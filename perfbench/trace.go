package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/runner"
	"aggmac/internal/telemetry"
)

// span is one timed interval of the traced run, kept in memory and
// written out as a Chrome trace event when the run ends.
type span struct {
	id, parent int
	name, cat  string
	start, end time.Duration
	lane       int
}

// spanLog records spans from the benchmark's own code, around its calls
// into the program. Only the run's main goroutine uses it.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// open starts a span now and returns its id (ids start at 1; parent 0 is
// none).
func (l *spanLog) open(name, cat string, parent int) int {
	return l.add(span{name: name, cat: cat, parent: parent, start: time.Since(l.t0)})
}

func (l *spanLog) add(s span) int {
	s.id = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.id
}

func (l *spanLog) close(id int) {
	l.spans[id-1].end = time.Since(l.t0)
}

// addPass records a measured pass's experiments or pools and their cells
// as spans under parent. Cells are laid out on lanes so that spans on one
// lane never overlap, one lane per busy worker.
func (l *spanLog) addPass(p passStats, parent int) {
	base := p.obs.start.Sub(l.t0)
	groups := map[string]int{}
	for _, g := range p.obs.groups {
		groups[g.name] = l.add(span{name: g.name, cat: "group", parent: parent,
			start: base + g.start, end: base + g.end})
	}
	cells := p.obs.sortedCells()
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].end-cells[i].wall < cells[j].end-cells[j].wall })
	var laneEnd []time.Duration
	for _, c := range cells {
		start := c.end - c.wall
		lane := 0
		for lane < len(laneEnd) && laneEnd[lane] > start {
			lane++
		}
		if lane == len(laneEnd) {
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = c.end
		l.add(span{name: c.key, cat: "cell", parent: groups[c.group],
			start: base + start, end: base + c.end, lane: lane + 1})
	}
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto), each with its id and parent id.
func (l *spanLog) writeChrome(path string, st stamp) error {
	evs := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		evs = append(evs, chromeEvent{Name: s.name, Cat: s.cat, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: s.lane,
			Args: map[string]int{"id": s.id, "parent": s.parent}})
	}
	return writeJSON(path, map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "otherData": st})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// traced is the --trace 1 run: an untraced pass, a CPU-profiled pass, a
// second untraced pass (so that the profiler's overhead is not confused
// with the first pass warming up), a pass with telemetry recorders on
// every cell, and the layer microbenchmarks. It reports per-layer metrics
// and writes trace.json, telemetry.json and cpu_share.json under out.
func traced(ctx context.Context, w workload, rf refFile, st stamp, workers int,
	out string, stderr io.Writer) (report, error) {
	set := st.InputSet
	dir := filepath.Join(out, fmt.Sprintf("%s-seed%d", w.name, st.Seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, err
	}
	spans := newSpanLog()
	root := spans.open("workload "+w.name, "workload", 0)

	profPath := filepath.Join(dir, "cpu.pprof")
	var passes []passStats
	for i, name := range []string{"pass untraced", "pass profiled", "pass untraced again"} {
		id := spans.open(name, "pass", root)
		var p passStats
		var err error
		if i == 1 {
			p, err = profiledPass(ctx, w, set, workers, profPath)
		} else {
			p, err = measurePass(ctx, w, set, workers)
		}
		if err != nil {
			return report{}, err
		}
		spans.close(id)
		spans.addPass(p, id)
		passes = append(passes, p)
	}
	base, prof := passes[0], passes[1]

	var rep report
	for _, p := range passes {
		a, f, err := checkPass(rf, set, p.obs, stderr)
		if err != nil {
			return report{}, err
		}
		rep.Attempted += a
		rep.Failed += f
	}
	rep.Correct = rep.Failed == 0

	id := spans.open("pass telemetry", "pass", root)
	tel, err := telemetryPass(ctx, base.obs.sortedCells(), workers)
	if err != nil {
		return report{}, err
	}
	spans.close(id)

	id = spans.open("layers", "phase", root)
	m := runLayerBenches(layerBenches(w.gridSide, int(tel.pendingPeak), set), spans, id)
	spans.close(id)
	spans.close(root)

	shares, cum, err := cpuShares(profPath)
	if err != nil {
		return report{}, err
	}
	counts := resultCounts(base.obs)
	for k, v := range counts {
		m[k] = metric{v, "count"}
	}
	for k, v := range tel.metrics() {
		m[k] = v
	}
	var busy time.Duration
	for _, c := range base.obs.cells {
		busy += c.wall
	}
	m["runner.busy_frac"] = metric{busy.Seconds() / (float64(workers) * base.wall.Seconds()), "ratio"}
	untraced := (base.cpu + passes[2].cpu).Seconds() / 2
	m["telemetry.overhead_frac"] = metric{prof.cpu.Seconds() / untraced, "ratio"}
	m["go.gc_cpu_frac"] = metric{base.gcCPUFrac, "ratio"}
	m["go.gc_cycles"] = metric{float64(base.gcCycles), "count"}
	for _, layer := range cpuLayers {
		m[layer+".cpu_share"] = metric{shares[layer], "ratio"}
	}
	rep.Metrics = m

	if err := spans.writeChrome(filepath.Join(dir, "trace.json"), st); err != nil {
		return report{}, err
	}
	if err := writeJSON(filepath.Join(dir, "telemetry.json"), map[string]any{
		"stamp": st, "cells": tel.cells, "telemetry": tel.metrics(), "results": counts}); err != nil {
		return report{}, err
	}
	if err := writeJSON(filepath.Join(dir, "cpu_share.json"), map[string]any{
		"stamp": st, "profile": filepath.Base(profPath), "cpu_share": shares, "cpu_cum_share": cum}); err != nil {
		return report{}, err
	}
	fmt.Fprintf(stderr, "perfbench: traced %s set %d: outputs in %s, fail_frac %d/%d\n",
		w.name, set, dir, rep.Failed, rep.Attempted)
	return rep, nil
}

// profiledPass is measurePass with the CPU profiler writing to path.
func profiledPass(ctx context.Context, w workload, set int64, workers int, path string) (passStats, error) {
	f, err := os.Create(path)
	if err != nil {
		return passStats{}, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return passStats{}, err
	}
	p, err := measurePass(ctx, w, set, workers)
	pprof.StopCPUProfile()
	if err != nil {
		return p, err
	}
	return p, f.Close()
}

// resultCounts sums the counts the layers leave in the cells' results.
func resultCounts(o *observer) map[string]float64 {
	c := map[string]float64{}
	add := func(k string, v int) { c[k] += float64(v) }
	for _, k := range []string{"medium.tx", "routing.recomputes", "routing.route_flaps",
		"topology.link_changes", "traffic.flows_started", "traffic.flows_completed",
		"faults.crashes", "faults.flaps"} {
		c[k] = 0
	}
	c["sim.events"] = float64(o.events())
	for _, cell := range o.cells {
		if !cell.ok {
			continue
		}
		r := cell.result
		for _, n := range nodeReports(r) {
			add("medium.tx", n.MAC.DataTx+n.MAC.RTSTx+n.MAC.CTSTx+n.MAC.AckTx)
		}
		if m := r.Mesh; m != nil {
			add("routing.recomputes", m.RouteRecomputes)
			add("routing.route_flaps", m.RouteFlaps)
			add("topology.link_changes", m.LinkUps+m.LinkDowns)
			add("faults.crashes", m.NodeCrashes)
			add("faults.flaps", m.FaultLinkDowns)
		}
		if s := r.Scenario; s != nil {
			add("routing.recomputes", s.RouteRecomputes)
			add("routing.route_flaps", s.RouteFlaps)
			add("topology.link_changes", s.LinkUps+s.LinkDowns)
			add("faults.crashes", s.NodeCrashes)
			add("faults.flaps", s.FaultLinkDowns)
			add("traffic.flows_started", s.FlowsStarted)
			add("traffic.flows_completed", s.FlowsCompleted)
		}
	}
	return c
}

func nodeReports(r runner.Result) []core.NodeReport {
	switch {
	case r.TCP != nil:
		return r.TCP.Nodes
	case r.UDP != nil:
		return r.UDP.Nodes
	case r.Mesh != nil:
		return r.Mesh.Nodes
	case r.Scenario != nil:
		return r.Scenario.Nodes
	}
	return nil
}

// telemetryCounts aggregates the telemetry recorders of every cell.
type telemetryCounts struct {
	cells       int
	pendingPeak float64
	summary     map[string]float64 // counter-like series summed over cells
	airtime     float64            // mean over cells of the final airtime fraction
	fill        float64            // mean over cells of the final aggregate fill
}

// countedSeries are the telemetry series summed over cells: cumulative
// counts, read at each cell's last sample.
var countedSeries = []string{"medium.collisions", "mac.acks_tx", "mac.acks_suppressed",
	"mac.retries", "tcp.retransmits", "tcp.rto_events"}

func (t telemetryCounts) metrics() map[string]metric {
	m := map[string]metric{
		"sim.pending_peak":    {t.pendingPeak, "count"},
		"medium.airtime_frac": {t.airtime, "ratio"},
		"mac.agg_fill_ratio":  {t.fill, "ratio"},
	}
	for _, name := range countedSeries {
		m[name] = metric{t.summary[name], "count"}
	}
	return m
}

// telemetryPass re-runs the pass's cells with a telemetry.Recorder in
// each config and aggregates the recorded series. The recorders' sampling
// events change the event sequence, so these runs are not checked
// against the references.
func telemetryPass(ctx context.Context, cells []*cellRecord, workers int) (telemetryCounts, error) {
	var specs []runner.Spec
	var recs []*telemetry.Recorder
	for _, c := range cells {
		if !c.ok {
			continue
		}
		s := c.spec
		rec := telemetry.NewRecorder(0)
		switch {
		case s.TCP != nil:
			cfg := *s.TCP
			cfg.Metrics = rec
			s.TCP = &cfg
		case s.UDP != nil:
			cfg := *s.UDP
			cfg.Metrics = rec
			s.UDP = &cfg
		case s.Mesh != nil:
			cfg := *s.Mesh
			cfg.Metrics = rec
			s.Mesh = &cfg
		case s.Scenario != nil:
			cfg := *s.Scenario
			cfg.Metrics = rec
			s.Scenario = &cfg
		}
		specs = append(specs, s)
		recs = append(recs, rec)
	}
	pool := runner.Pool{Workers: workers}
	res, err := pool.Run(ctx, specs)
	if err != nil {
		return telemetryCounts{}, err
	}
	t := telemetryCounts{summary: map[string]float64{}}
	for _, name := range countedSeries {
		t.summary[name] = 0
	}
	for i, r := range res {
		if r.Err != nil {
			return t, fmt.Errorf("telemetry run %s: %w", r.Key, r.Err)
		}
		t.cells++
		for _, ms := range recs[i].Summary().Metrics {
			switch {
			case ms.Name == "sim.pending_events":
				t.pendingPeak = max(t.pendingPeak, ms.Max)
			case ms.Name == "medium.airtime_frac":
				t.airtime += ms.Last
			case ms.Name == "mac.agg_fill_ratio":
				t.fill += ms.Last
			default:
				if _, ok := t.summary[ms.Name]; ok {
					t.summary[ms.Name] += ms.Last
				}
			}
		}
	}
	if t.cells > 0 {
		t.airtime /= float64(t.cells)
		t.fill /= float64(t.cells)
	}
	return t, nil
}
