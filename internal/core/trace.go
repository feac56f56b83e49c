package core

import (
	"fmt"
	"io"

	"aggmac/internal/medium"
	"aggmac/internal/trace"
)

// Trace formats accepted by the configs' TraceFormat field.
const (
	TraceText  = "text"  // human-readable timeline (default)
	TraceJSONL = "jsonl" // one JSON object per event
)

// traceObserver builds the channel-timeline observer every Run entry point
// shares: a tracer writing to w, optionally filtered to events that touch
// one of the listed nodes (either endpoint matches; transmissions, whose
// Dst is -1, match on the sender). format selects the text tracer ("" or
// TraceText) or the JSONL tracer (TraceJSONL); both share the same
// medium.Observer contract and filter semantics; every config's Validate
// has rejected any other format. A nil writer disables tracing.
func traceObserver(w io.Writer, nodes []int, format string) medium.Observer {
	if w == nil {
		return nil
	}
	var filter func(medium.Event) bool
	if len(nodes) > 0 {
		set := make(map[medium.NodeID]bool, len(nodes))
		for _, n := range nodes {
			set[medium.NodeID(n)] = true
		}
		filter = func(ev medium.Event) bool { return set[ev.Src] || set[ev.Dst] }
	}
	if format == TraceJSONL {
		tr := trace.NewJSON(w)
		tr.Filter = filter
		return tr.Observe
	}
	tr := trace.New(w)
	tr.Filter = filter
	return tr.Observe
}

// checkTraceFormat rejects a TraceFormat other than "", TraceText and
// TraceJSONL.
func checkTraceFormat(format string) error {
	switch format {
	case "", TraceText, TraceJSONL:
		return nil
	}
	return fmt.Errorf("core: unknown trace format %q (%s|%s)", format, TraceText, TraceJSONL)
}
