// Scenario mode: run a declarative workload — a -scenario file, or an
// ad-hoc open/closed-loop workload assembled from flags — under one or
// more MAC schemes, fanned across the worker pool. Output is strictly
// deterministic (no wall-clock lines), so repeated runs hash identically;
// the CI determinism job relies on that.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/mac"
	"aggmac/internal/runner"
	"aggmac/internal/telemetry"
	"aggmac/internal/traffic"
)

// parseTraceNodes parses the -trace-nodes comma list.
func parseTraceNodes(list string) ([]int, error) {
	if list == "" {
		return nil, nil
	}
	var out []int
	for _, s := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -trace-nodes entry %q", s)
		}
		out = append(out, n)
	}
	return out, nil
}

// scenarioArgs carries everything scenario mode needs from main.
type scenarioArgs struct {
	sc          traffic.Scenario
	schemes     []mac.Scheme // resolved run list (file's schemes, or -scheme)
	seed        int64        // >0 overrides the scenario's seed
	parallel    int
	jsonOut     bool
	progress    bool
	verbose     bool
	traceTo     io.Writer
	traceNodes  []int
	traceFormat string
	metrics     string // telemetry JSONL path; "" = metrics off
	metricsIv   time.Duration
	storeDir    string // "" = no durable store
	resume      bool
}

// adhocScenario assembles a Scenario from CLI flags: the -topo mesh flags
// shape the topology and mobility (including -rate, carried as the PHY
// rate), -traffic names a single traffic model, and -arrival-rate /
// -users pick the arrival discipline.
func adhocScenario(a core.MeshTCPConfig, model string, arrivalRate float64, users int, think, dur time.Duration, schemes []mac.Scheme) (traffic.Scenario, error) {
	mode := traffic.ModeOpen
	if users > 0 {
		mode = traffic.ModeClosed
		if arrivalRate > 0 {
			return traffic.Scenario{}, fmt.Errorf("-arrival-rate and -users are mutually exclusive (open vs closed loop)")
		}
	}
	m := traffic.Model{Kind: model}
	switch model {
	case traffic.Bulk:
		m.Bytes = a.FileBytes
	case traffic.Pareto:
		m.Bytes = a.FileBytes
	case traffic.CBR, traffic.Poisson, traffic.OnOff:
		m.DurationS = dur.Seconds()
	default:
		return traffic.Scenario{}, fmt.Errorf("workload mode needs -traffic bulk|cbr|poisson|onoff|pareto, got %q", model)
	}
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = strings.ToLower(s.Name())
	}
	sc := traffic.Scenario{
		Version:     traffic.SchemaVersion,
		Name:        fmt.Sprintf("adhoc-%s-%s", mode, model),
		Seed:        a.Seed,
		DurationS:   dur.Seconds(),
		Schemes:     names,
		RateMbps:    a.Rate.Mbps(),
		MaxAggBytes: a.MaxAggBytes,
		Topology: traffic.Topology{
			Kind: a.Topology, Nodes: a.Nodes,
			Chains: a.Chains, ChainHops: a.ChainHops,
		},
		Traffic: traffic.Traffic{
			Mode:        mode,
			ArrivalRate: arrivalRate,
			Users:       users,
			ThinkS:      think.Seconds(),
			MinHops:     a.MinHops,
			Mix:         []traffic.WeightedModel{{Model: m, Weight: 1}},
		},
	}
	if a.Mobility != "" {
		sc.Mobility = &traffic.Mobility{
			Model: a.Mobility, Speed: a.Speed,
			PauseS: a.Pause.Seconds(), MoveIntervalS: a.MoveInterval.Seconds(),
		}
	}
	if err := sc.Validate(); err != nil {
		return traffic.Scenario{}, err
	}
	return sc, nil
}

// runScenarios executes the scenario once per scheme across the worker
// pool and prints per-scheme reports in scheme order. It validates every
// run's config before it opens the store: usage errors never touch it.
func runScenarios(a scenarioArgs) {
	if a.seed != 0 {
		// Reflect an explicit -seed in the scenario itself so the printed
		// header matches what actually ran.
		a.sc.Seed = a.seed
	}
	var rec *telemetry.Recorder
	if a.metrics != "" {
		// One recorder belongs to one run: a multi-scheme scenario would
		// interleave the schemes' series in completion order.
		if len(a.schemes) != 1 {
			fatal(fmt.Errorf("-metrics requires exactly one scheme per run (got %d)", len(a.schemes)))
		}
		rec = telemetry.NewRecorder(a.metricsIv)
	}
	specs := make([]runner.Spec, len(a.schemes))
	for i, scheme := range a.schemes {
		cfg := core.ScenarioConfig{
			Scenario: a.sc, Scheme: scheme, Seed: a.seed,
			TraceTo: a.traceTo, TraceNodes: a.traceNodes,
			TraceFormat: a.traceFormat, Metrics: rec,
		}
		if err := cfg.Validate(); err != nil {
			fatal(err)
		}
		specs[i] = runner.Spec{
			Key:      fmt.Sprintf("scenario/%s/%s", a.sc.Name, scheme.Name()),
			Scenario: &cfg,
		}
	}
	st := openStore(a.storeDir)
	pool := runner.Pool{Workers: a.parallel}
	if a.progress {
		pool.OnResult = runner.StderrProgress
	}
	if st != nil {
		pool.Cache = st
		pool.Resume = a.resume
	}
	var results []runner.Result
	if a.traceTo == nil {
		var err error
		results, err = pool.Run(context.Background(), specs)
		if err != nil {
			runFail(err)
		}
	} else {
		// Tracing: concurrent runs would interleave unlabeled timelines
		// from independent virtual clocks on one writer. Run the schemes
		// one at a time and delimit each run's timeline.
		for _, spec := range specs {
			fmt.Fprintf(a.traceTo, "=== trace %s\n", spec.Key)
			rs, err := pool.Run(context.Background(), []runner.Spec{spec})
			if err != nil {
				runFail(err)
			}
			results = append(results, rs...)
		}
	}
	if st != nil {
		storeSummary(st)
		st.Close()
	}
	for _, r := range results {
		if r.Err != nil {
			runFail(fmt.Errorf("run %s failed: %v", r.Key, r.Err))
		}
	}
	writeMetrics(rec, a.metrics)

	if a.jsonOut {
		out := make([]core.ScenarioResult, len(results))
		for i, r := range results {
			out[i] = *r.Scenario
		}
		writeJSON(out)
		return
	}
	printScenarioHeader(a.sc)
	for _, r := range results {
		printScenarioResult(*r.Scenario, a.verbose)
	}
}

func printScenarioHeader(sc traffic.Scenario) {
	fmt.Printf("scenario %s: topology=%s mode=%s duration=%gs deadline=%gs rate=%g Mbps seed=%d\n",
		sc.Name, sc.Topology.Kind, sc.Traffic.Mode, sc.DurationS, sc.DeadlineS, sc.RateMbps, sc.Seed)
	switch sc.Traffic.Mode {
	case traffic.ModeOpen:
		fmt.Printf("  open loop: Poisson arrivals at %g flows/s\n", sc.Traffic.ArrivalRate)
	case traffic.ModeClosed:
		fmt.Printf("  closed loop: %d users, mean think %gs\n", sc.Traffic.Users, sc.Traffic.ThinkS)
	}
	for i, wm := range sc.Traffic.Mix {
		fmt.Printf("  mix[%d]: %s weight=%g\n", i, wm.Model.Kind, wm.Weight)
	}
	if sc.Mobility != nil {
		fmt.Printf("  mobility: %s speed=%g interval=%gs\n",
			sc.Mobility.Model, sc.Mobility.Speed, sc.Mobility.MoveIntervalS)
	}
}

func fmtDur(d time.Duration) string { return d.Round(time.Millisecond).String() }

func printScenarioResult(r core.ScenarioResult, verbose bool) {
	fmt.Printf("scheme %s: nodes=%d links=%d avg-degree=%.1f\n",
		r.Scheme, r.NodeCount, r.LinkCount, r.AvgDegree)
	fmt.Printf("  flows: %d arrived, %d done, %d abandoned, %d skipped; peak %d active\n",
		r.FlowsStarted, r.FlowsCompleted, r.FlowsAbandoned, r.FlowsSkipped, r.PeakActive)
	fmt.Printf("  goodput: %.3f Mbps (%d bytes delivered over the arrival window)\n",
		r.AggregateMbps, r.DeliveredBytes)
	fmt.Printf("  fct: p50=%s p95=%s p99=%s mean=%s max=%s (%d samples)\n",
		fmtDur(r.FCT.P50), fmtDur(r.FCT.P95), fmtDur(r.FCT.P99),
		fmtDur(r.FCT.Mean), fmtDur(r.FCT.Max), r.FCT.Count)
	for _, pm := range r.PerModel {
		fmt.Printf("  model %-8s %d flows (%d done) %.3f Mbps, fct p50=%s p95=%s p99=%s\n",
			pm.Kind, pm.Flows, pm.FlowsDone, pm.GoodputMbps,
			fmtDur(pm.FCT.P50), fmtDur(pm.FCT.P95), fmtDur(pm.FCT.P99))
	}
	if r.LinkUps+r.LinkDowns+r.RouteRecomputes > 0 {
		fmt.Printf("  churn: %d link ups, %d link downs, %d route flaps over %d recomputes\n",
			r.LinkUps, r.LinkDowns, r.RouteFlaps, r.RouteRecomputes)
	}
	if r.Availability < 1 || r.NodeCrashes+r.FaultLinkDowns+r.PartitionsStarted+r.SNRBursts > 0 {
		fmt.Printf("  faults: %d crashes (%d recovered), %d flap downs (%d restored), %d/%d partitions healed, %d SNR bursts\n",
			r.NodeCrashes, r.NodeRecoveries, r.FaultLinkDowns, r.FaultLinkUps,
			r.PartitionsHealed, r.PartitionsStarted, r.SNRBursts)
		fmt.Printf("  degradation: availability %.4f, %d flows killed, heal latency %s\n",
			r.Availability, r.FlowsKilledByFault, fmtDur(r.MeanHealLatency))
	}
	fmt.Printf("  elapsed %s, %d events\n", fmtDur(r.Elapsed), r.EventsRun)
	if verbose {
		printNodes(r.Nodes)
	}
}

// writeJSON emits one machine-readable document on stdout.
func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		runFail(err)
	}
}

// jsonResult wraps a single-run result with its kind, the -json envelope
// for non-sweep runs (mirrors aggbench -json being an array of tables).
// Telemetry carries the -metrics per-run summary (the full series stay in
// the JSONL file); nil when metrics are off.
type jsonResult struct {
	Kind      string               `json:"kind"`
	TCP       *core.TCPResult      `json:"tcp,omitempty"`
	UDP       *core.UDPResult      `json:"udp,omitempty"`
	Mesh      *core.MeshResult     `json:"mesh,omitempty"`
	Scenario  *core.ScenarioResult `json:"scenario,omitempty"`
	Telemetry *telemetry.Summary   `json:"telemetry,omitempty"`
}
