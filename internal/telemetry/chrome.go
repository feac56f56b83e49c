// Chrome trace-event export for sharded runs.
//
// The shard engine, with diagnostics enabled, records wall-clock spans
// of each shard either executing one window's events ("run") or waiting
// at the barrier for the next window ("blocked"). Rendered as trace
// events — one track per shard — chrome://tracing or
// https://ui.perfetto.dev makes shard imbalance visible at a glance: a
// laggard shard shows long run spans while the others sit blocked.
//
// Unlike the JSONL metrics export this output is wall-clock and
// therefore intentionally NOT deterministic; it never feeds golden
// hashes or -json summaries.
package telemetry

import (
	"encoding/json"
	"io"

	"aggmac/internal/sim"
)

// chromeEvent is one complete ("ph":"X") trace event in the Chrome
// trace-event JSON-array format; ts and dur are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]uint64 `json:"args,omitempty"`
}

// WriteChromeTrace renders shard spans as a Chrome trace-event file.
func WriteChromeTrace(w io.Writer, spans []sim.ShardSpan) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, sp := range spans {
		ev := chromeEvent{
			Name: sp.Kind,
			Ph:   "X",
			TS:   float64(sp.Start) / 1e3,
			Dur:  float64(sp.End-sp.Start) / 1e3,
			PID:  0,
			TID:  sp.Shard,
		}
		if sp.Kind == "run" {
			ev.Args = map[string]uint64{
				"events": sp.Events,
				"sim_us": uint64(sp.SimAt) / 1e3,
			}
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(events)
}
