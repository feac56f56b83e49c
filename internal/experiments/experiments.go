// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each function declares the corresponding experiment's
// run matrix as data, delegates execution to the internal/runner worker
// pool, and assembles a structured Table whose rows mirror what the paper
// reports; cmd/aggbench prints them and bench_test.go wraps them as
// benchmarks.
//
// Absolute numbers come from the calibrated simulator rather than the Hydra
// testbed, so they differ from the paper's; the shapes — who wins, by
// roughly what factor, where crossovers fall — are the reproduction target
// (see EXPERIMENTS.md for the side-by-side record).
//
// Execution is deterministic by construction: every run's seed and config
// are fixed when the matrix is declared, the runner returns results in
// matrix order, and table assembly consumes them in that order — so the
// same Options produce byte-identical tables at any worker count.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/mac"
	"aggmac/internal/phy"
	"aggmac/internal/runner"
)

// Row is one labeled series of values.
type Row struct {
	Label  string
	Values []float64
}

// Table is a regenerated experiment result.
type Table struct {
	ID      string // e.g. "Figure 7"
	Title   string
	Columns []string
	Rows    []Row
	Notes   string `json:",omitempty"`
}

// Options tune a regeneration run.
type Options struct {
	Seed int64
	// Quick shortens UDP measurement windows (for benchmarks).
	Quick bool
	// Workers caps how many simulations run concurrently; 0 means
	// GOMAXPROCS, 1 forces serial execution. The resulting tables are
	// identical at any setting — only wall-clock time changes.
	Workers int
	// Progress, when set, receives one callback per completed run.
	Progress func(runner.Progress)
	// Cache, when set, durably persists each completed run as it lands;
	// with Resume also set, previously completed cells are served from it
	// instead of re-running. Cached cells are byte-identical to fresh ones
	// (runs are pure functions of their spec and the store round-trip is
	// lossless), so tables regenerate incrementally from a warm store.
	Cache runner.Cache
	// Resume enables cache lookups (writes happen whenever Cache is set).
	Resume bool
	// MeshSizes overrides the scaling experiment's network sizes
	// (default 25, 100, 400); cmd/aggbench's -mesh-sizes flag sets it.
	MeshSizes []int
	// MeshTopos overrides the scaling experiment's topology generators
	// (default grid and disk); cmd/aggbench's -mesh-topos flag sets it.
	MeshTopos []string
}

func (o Options) udpDur() time.Duration {
	if o.Quick {
		return 10 * time.Second
	}
	return 40 * time.Second
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	width := 12
	fmt.Fprintf(&b, "%-*s", 18, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", 18, r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%*.3f", width, v)
		}
		b.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "  note: %s\n", t.Notes)
	}
	return b.String()
}

var experimentRates = phy.ExperimentRates()

func rateCols() []string {
	cols := make([]string, len(experimentRates))
	for i, r := range experimentRates {
		cols[i] = r.String()
	}
	return cols
}

// plan accumulates an experiment's run matrix alongside per-run sinks that
// assemble the table. The runner may execute runs in any order across any
// number of workers; sinks then fire strictly in declaration order, so
// assembly — including cross-run baselines like Table 3's NA row — stays
// deterministic.
type plan struct {
	specs []runner.Spec
	sinks []func(runner.Result)
}

func (p *plan) tcp(key string, cfg core.TCPConfig, sink func(core.TCPResult)) {
	p.specs = append(p.specs, runner.Spec{Key: key, TCP: &cfg})
	p.sinks = append(p.sinks, func(r runner.Result) { sink(*r.TCP) })
}

func (p *plan) udp(key string, cfg core.UDPConfig, sink func(core.UDPResult)) {
	p.specs = append(p.specs, runner.Spec{Key: key, UDP: &cfg})
	p.sinks = append(p.sinks, func(r runner.Result) { sink(*r.UDP) })
}

func (p *plan) mesh(key string, cfg core.MeshTCPConfig, sink func(core.MeshResult)) {
	p.specs = append(p.specs, runner.Spec{Key: key, Mesh: &cfg})
	p.sinks = append(p.sinks, func(r runner.Result) { sink(*r.Mesh) })
}

func (p *plan) scenario(key string, cfg core.ScenarioConfig, sink func(core.ScenarioResult)) {
	p.specs = append(p.specs, runner.Spec{Key: key, Scenario: &cfg})
	p.sinks = append(p.sinks, func(r runner.Result) { sink(*r.Scenario) })
}

// run executes the accumulated matrix and dispatches sinks in order. A run
// that fails (sim panic) propagates as a panic, matching what the old
// serial loops would have done.
func (p *plan) run(o Options) {
	pool := runner.Pool{Workers: o.Workers, OnResult: o.Progress,
		Cache: o.Cache, Resume: o.Resume}
	res, err := pool.Run(context.Background(), p.specs)
	if err != nil {
		panic(err)
	}
	for i, r := range res {
		if r.Err != nil {
			panic(r.Err)
		}
		p.sinks[i](r)
	}
}

// tcpRow declares one row of a TCP rate sweep: the label plus the config
// shared by every column (Rate and Seed are filled per cell).
type tcpRow struct {
	label string
	cfg   core.TCPConfig
}

// addTCPRateRows appends one table row per declared row, sweeping
// experimentRates as columns of end-to-end throughput.
func addTCPRateRows(p *plan, t *Table, o Options, id string, rows []tcpRow) {
	for _, row := range rows {
		ri := len(t.Rows)
		t.Rows = append(t.Rows, Row{Label: row.label})
		for _, rate := range experimentRates {
			cfg := row.cfg
			cfg.Rate = rate
			cfg.Seed = o.Seed
			p.tcp(fmt.Sprintf("%s/%s/%s", id, row.label, rate), cfg, func(r core.TCPResult) {
				t.Rows[ri].Values = append(t.Rows[ri].Values, r.ThroughputMbps)
			})
		}
	}
}

// Figure7 sweeps the maximum aggregation size on 1-hop UDP at three rates
// (§6.1): throughput rises with the cap, then collapses past the channel
// coherence budget (≈5/11/15 KB at 0.65/1.3/1.95 Mbps).
func Figure7(o Options) Table {
	sizes := []int{1024, 2048, 3072, 4096, 5120, 6144, 8192, 10240, 12288, 14336, 16384, 18432}
	t := Table{
		ID:    "Figure 7",
		Title: "Throughput vs maximum aggregation size (1-hop UDP)",
		Notes: "columns are the aggregation cap in KB; cliffs mark the 120-Ksample coherence budget",
	}
	for _, s := range sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("%dK", s/1024))
	}
	var p plan
	for _, rate := range []phy.Rate{phy.Rate650k, phy.Rate1300k, phy.Rate1950k} {
		ri := len(t.Rows)
		t.Rows = append(t.Rows, Row{Label: rate.String()})
		for _, s := range sizes {
			p.udp(fmt.Sprintf("fig7/%s/%dK", rate, s/1024), core.UDPConfig{
				Scheme: mac.BA, Rate: rate, Hops: 1,
				MaxAggBytes: s, Seed: o.Seed, Duration: o.udpDur(),
			}, func(r core.UDPResult) {
				t.Rows[ri].Values = append(t.Rows[ri].Values, r.ThroughputMbps)
			})
		}
	}
	p.run(o)
	return t
}

// Table2 measures 2-hop UDP throughput with and without unicast
// aggregation at 0.65 and 1.3 Mbps (§6.2).
func Table2(o Options) Table {
	t := Table{
		ID:      "Table 2",
		Title:   "2-hop UDP throughput (Mbps)",
		Columns: []string{"NoAgg", "UnicastAgg", "Diff%"},
		Notes:   "paper: 0.253/0.273 (+7.9%) at 0.65; 0.430/0.481 (+11.9%) at 1.3",
	}
	var p plan
	for _, rate := range []phy.Rate{phy.Rate650k, phy.Rate1300k} {
		ri := len(t.Rows)
		t.Rows = append(t.Rows, Row{Label: rate.String()})
		var na float64
		p.udp(fmt.Sprintf("table2/NA/%s", rate),
			core.UDPConfig{Scheme: mac.NA, Rate: rate, Hops: 2, Seed: o.Seed, Duration: o.udpDur()},
			func(r core.UDPResult) { na = r.ThroughputMbps })
		p.udp(fmt.Sprintf("table2/UA/%s", rate),
			core.UDPConfig{Scheme: mac.UA, Rate: rate, Hops: 2, Seed: o.Seed, Duration: o.udpDur()},
			func(r core.UDPResult) {
				ua := r.ThroughputMbps
				t.Rows[ri].Values = []float64{na, ua, 100 * (ua - na) / na}
			})
	}
	p.run(o)
	return t
}

// Figure8 compares NA and UA TCP throughput over 2- and 3-hop chains as a
// function of rate (§6.2).
func Figure8(o Options) Table {
	t := Table{
		ID:      "Figure 8",
		Title:   "TCP throughput, unicast aggregation vs none (Mbps)",
		Columns: rateCols(),
		Notes:   "improvement grows with rate and holds on both chain lengths",
	}
	var rows []tcpRow
	for _, hops := range []int{2, 3} {
		for _, scheme := range []mac.Scheme{mac.NA, mac.UA} {
			rows = append(rows, tcpRow{
				label: fmt.Sprintf("%d-hop %s", hops, scheme.Name()),
				cfg:   core.TCPConfig{Scheme: scheme, Hops: hops},
			})
		}
	}
	var p plan
	addTCPRateRows(&p, &t, o, "fig8", rows)
	p.run(o)
	return t
}

// Figure9 measures 2-hop UDP goodput under flooding at varying intervals,
// with aggregation (broadcast+unicast) and without (§6.3).
func Figure9(o Options) Table {
	// The paper sweeps seconds-scale intervals on a 1 MHz channel where
	// each flood costs several ms of airtime; the gap only becomes visible
	// once flooding occupies a few percent of the channel, so the sweep
	// extends to 50 ms.
	intervals := []time.Duration{2 * time.Second, time.Second, 500 * time.Millisecond,
		200 * time.Millisecond, 100 * time.Millisecond, 50 * time.Millisecond}
	t := Table{
		ID:    "Figure 9",
		Title: "2-hop UDP goodput vs flooding interval (Mbps)",
		Notes: "gap between agg and no-agg widens as flooding quickens",
	}
	for _, iv := range intervals {
		t.Columns = append(t.Columns, fmt.Sprintf("%.2fs", iv.Seconds()))
	}
	var p plan
	for _, rate := range []phy.Rate{phy.Rate650k, phy.Rate1300k} {
		for _, scheme := range []mac.Scheme{mac.NA, mac.BA} {
			label := "NoAgg"
			if scheme.AggregateBroadcast {
				label = "Agg"
			}
			ri := len(t.Rows)
			t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%s %s", rate, label)})
			for _, iv := range intervals {
				p.udp(fmt.Sprintf("fig9/%s/%s/%v", rate, label, iv),
					core.UDPConfig{Scheme: scheme, Rate: rate, Hops: 2,
						FloodInterval: iv, Seed: o.Seed, Duration: o.udpDur()},
					func(r core.UDPResult) {
						t.Rows[ri].Values = append(t.Rows[ri].Values, r.ThroughputMbps)
					})
			}
		}
	}
	p.run(o)
	return t
}

// Figure10 pins the broadcast-portion rate (0.65/1.3/2.6) while sweeping
// the unicast rate, against plain UA (§6.4.1).
func Figure10(o Options) Table {
	t := Table{
		ID:      "Figure 10",
		Title:   "2-hop TCP: BA with a fixed broadcast rate vs UA (Mbps)",
		Columns: rateCols(),
		Notes:   "BA(0.65) falls off at high unicast rates; BA(2.6) always wins",
	}
	var rows []tcpRow
	for _, br := range []phy.Rate{phy.Rate650k, phy.Rate1300k, phy.Rate2600k} {
		rows = append(rows, tcpRow{
			label: fmt.Sprintf("BA(bcast %s)", br),
			cfg:   core.TCPConfig{Scheme: mac.BA, FixedBroadcastRate: &br, Hops: 2},
		})
	}
	rows = append(rows, tcpRow{label: "UA", cfg: core.TCPConfig{Scheme: mac.UA, Hops: 2}})
	var p plan
	addTCPRateRows(&p, &t, o, "fig10", rows)
	p.run(o)
	return t
}

// Figure11 is the headline 2-hop TCP comparison with broadcasts at the
// unicast rate: BA > UA > NA at every rate (§6.4.1).
func Figure11(o Options) Table {
	t := Table{
		ID:      "Figure 11",
		Title:   "2-hop TCP: BA vs UA vs NA, broadcast at unicast rate (Mbps)",
		Columns: rateCols(),
		Notes:   "paper reports a maximum BA-over-UA gap of 10%",
	}
	var rows []tcpRow
	for _, scheme := range []mac.Scheme{mac.NA, mac.UA, mac.BA} {
		rows = append(rows, tcpRow{label: scheme.Name(), cfg: core.TCPConfig{Scheme: scheme, Hops: 2}})
	}
	var p plan
	addTCPRateRows(&p, &t, o, "fig11", rows)
	p.run(o)
	return t
}

// Figure12 extends the comparison to the 3-hop chain and the two-session
// star (worst-case session), §6.4.2.
func Figure12(o Options) Table {
	t := Table{
		ID:      "Figure 12",
		Title:   "TCP over complex topologies (Mbps; star = worst session)",
		Columns: rateCols(),
		Notes:   "paper: BA-UA gap 12.2% at 3 hops, 11% on the star",
	}
	var rows []tcpRow
	for _, scheme := range []mac.Scheme{mac.NA, mac.UA, mac.BA} {
		rows = append(rows, tcpRow{
			label: "3-hop " + scheme.Name(),
			cfg:   core.TCPConfig{Scheme: scheme, Hops: 3},
		})
	}
	for _, scheme := range []mac.Scheme{mac.UA, mac.BA} {
		rows = append(rows, tcpRow{
			label: "star " + scheme.Name(),
			cfg:   core.TCPConfig{Scheme: scheme, Star: true},
		})
	}
	var p plan
	addTCPRateRows(&p, &t, o, "fig12", rows)
	p.run(o)
	return t
}

// Figure13 compares BA against its delayed variant on 2- and 3-hop chains
// (§6.4.3).
func Figure13(o Options) Table {
	t := Table{
		ID:      "Figure 13",
		Title:   "TCP: delayed BA vs BA (Mbps)",
		Columns: rateCols(),
		Notes:   "paper found DBA ≈ BA (max +2%/+4%); 'smaller than we expected'",
	}
	var rows []tcpRow
	for _, hops := range []int{2, 3} {
		for _, scheme := range []mac.Scheme{mac.BA, mac.DBA} {
			rows = append(rows, tcpRow{
				label: fmt.Sprintf("%d-hop %s", hops, scheme.Name()),
				cfg:   core.TCPConfig{Scheme: scheme, Hops: hops},
			})
		}
	}
	var p plan
	addTCPRateRows(&p, &t, o, "fig13", rows)
	p.run(o)
	return t
}

// Figure14 isolates backward aggregation by disabling forward aggregation
// on the 3-hop chain (§6.4.4).
func Figure14(o Options) Table {
	noFwd := mac.BA
	noFwd.DisableForwardAggregation = true
	t := Table{
		ID:      "Figure 14",
		Title:   "3-hop TCP without forward aggregation (Mbps)",
		Columns: rateCols(),
		Notes:   "BA-vs-noFwd gap grows with rate: forward aggregation matters more at speed",
	}
	rows := []tcpRow{
		{label: "NA", cfg: core.TCPConfig{Scheme: mac.NA, Hops: 3}},
		{label: "BA w/o fwd", cfg: core.TCPConfig{Scheme: noFwd, Hops: 3}},
		{label: "BA", cfg: core.TCPConfig{Scheme: mac.BA, Hops: 3}},
	}
	var p plan
	addTCPRateRows(&p, &t, o, "fig14", rows)
	p.run(o)
	return t
}

// relayCfg is the 2-hop TCP run whose relay row feeds the detail tables
// (the paper measures Tables 3–8 at relays).
func relayCfg(scheme mac.Scheme, rate phy.Rate, seed int64) core.TCPConfig {
	return core.TCPConfig{Scheme: scheme, Rate: rate, Hops: 2, Seed: seed}
}

var detailRate = phy.Rate2600k // rate used for the detail tables

// Table3 reports the 2-hop relay detail: average frame size, transmissions
// relative to NA, and size overhead (§6.4.5).
func Table3(o Options) Table {
	t := Table{
		ID:      "Table 3",
		Title:   "2-hop relay detail (at " + detailRate.String() + ")",
		Columns: []string{"FrameB", "TX%", "SizeOv%"},
		Notes:   "paper: NA 765B/100%/15.1 — UA 2662/33.7/6.83 — BA 2727/26.7/6.55 — DBA 3477/21.1/5.8",
	}
	var p plan
	naTx := 0
	for _, scheme := range []mac.Scheme{mac.NA, mac.UA, mac.BA, mac.DBA} {
		p.tcp("table3/"+scheme.Name(), relayCfg(scheme, detailRate, o.Seed),
			func(r core.TCPResult) {
				rel := core.Relay(r.Nodes)
				if scheme.Name() == "NA" {
					naTx = rel.MAC.DataTx
				}
				t.Rows = append(t.Rows, Row{Label: scheme.Name(), Values: []float64{
					rel.MAC.AvgFrameBytes(),
					100 * float64(rel.MAC.DataTx) / float64(naTx),
					100 * rel.MAC.SizeOverhead(rel.PreambleBytes),
				}})
			})
	}
	p.run(o)
	return t
}

// Table4 reports the relay's time overhead (headers, control frames,
// backoff, IFS as a fraction of exchange airtime) per scheme and rate.
func Table4(o Options) Table {
	t := Table{
		ID:      "Table 4",
		Title:   "2-hop relay time overhead (%)",
		Columns: rateCols(),
		Notes:   "paper NA row: 22.4 / 34.9 / 44.4 / 52.1",
	}
	var p plan
	for _, scheme := range []mac.Scheme{mac.NA, mac.UA, mac.BA, mac.DBA} {
		ri := len(t.Rows)
		t.Rows = append(t.Rows, Row{Label: scheme.Name()})
		for _, rate := range experimentRates {
			p.tcp(fmt.Sprintf("table4/%s/%s", scheme.Name(), rate),
				relayCfg(scheme, rate, o.Seed),
				func(r core.TCPResult) {
					rel := core.Relay(r.Nodes)
					t.Rows[ri].Values = append(t.Rows[ri].Values, 100*rel.MAC.TimeOverhead())
				})
		}
	}
	p.run(o)
	return t
}

// Tables5to7 compare the relay between the 2-hop chain and the star:
// frame size (Table 5), size overhead (Table 6), transmissions relative to
// NA (Table 7), §6.4.5.
func Tables5to7(o Options) Table {
	t := Table{
		ID:      "Tables 5-7",
		Title:   "Relay: 2-hop chain vs star centre (at " + detailRate.String() + ")",
		Columns: []string{"2hopFrmB", "starFrmB", "2hopOv%", "starOv%", "2hopTX%", "starTX%"},
		Notes:   "paper: UA frame flat (2662→2651), BA grows (2727→3432); TX% drops for both",
	}
	starCfg := func(scheme mac.Scheme) core.TCPConfig {
		return core.TCPConfig{Scheme: scheme, Rate: detailRate, Star: true, Seed: o.Seed}
	}
	var p plan
	var chainNA, starNA core.NodeReport
	p.tcp("table5/NA/chain", relayCfg(mac.NA, detailRate, o.Seed),
		func(r core.TCPResult) { chainNA = core.Relay(r.Nodes) })
	p.tcp("table5/NA/star", starCfg(mac.NA),
		func(r core.TCPResult) { starNA = core.Relay(r.Nodes) })
	for _, scheme := range []mac.Scheme{mac.UA, mac.BA} {
		var chain core.NodeReport
		p.tcp("table5/"+scheme.Name()+"/chain", relayCfg(scheme, detailRate, o.Seed),
			func(r core.TCPResult) { chain = core.Relay(r.Nodes) })
		p.tcp("table5/"+scheme.Name()+"/star", starCfg(scheme),
			func(r core.TCPResult) {
				star := core.Relay(r.Nodes)
				t.Rows = append(t.Rows, Row{Label: scheme.Name(), Values: []float64{
					chain.MAC.AvgFrameBytes(), star.MAC.AvgFrameBytes(),
					100 * chain.MAC.SizeOverhead(chain.PreambleBytes),
					100 * star.MAC.SizeOverhead(star.PreambleBytes),
					100 * float64(chain.MAC.DataTx) / float64(chainNA.MAC.DataTx),
					100 * float64(star.MAC.DataTx) / float64(starNA.MAC.DataTx),
				}})
			})
	}
	p.run(o)
	return t
}

// Table8 reports average frame size at every node of the 2- and 3-hop
// chains for UA and BA (§6.4.5).
func Table8(o Options) Table {
	t := Table{
		ID:      "Table 8",
		Title:   "Frame size at all nodes, 2-hop vs 3-hop (bytes, at " + detailRate.String() + ")",
		Columns: []string{"Srv(2)", "Relay(2)", "Cli(2)", "Srv(3)", "Rly1(3)", "Rly2(3)", "Cli(3)"},
		Notes:   "paper UA: 3897/2662/463 | 3451/2384/2224/443; BA: 3488/2727/447 | 3313/2538/2670/430",
	}
	var p plan
	for _, scheme := range []mac.Scheme{mac.UA, mac.BA} {
		ri := len(t.Rows)
		t.Rows = append(t.Rows, Row{Label: scheme.Name()})
		for _, hops := range []int{2, 3} {
			p.tcp(fmt.Sprintf("table8/%s/%dhop", scheme.Name(), hops),
				core.TCPConfig{Scheme: scheme, Rate: detailRate, Hops: hops, Seed: o.Seed},
				func(r core.TCPResult) {
					for _, n := range r.Nodes {
						t.Rows[ri].Values = append(t.Rows[ri].Values, n.MAC.AvgFrameBytes())
					}
				})
		}
	}
	p.run(o)
	return t
}

// Experiment pairs a name with its generator.
type Experiment struct {
	Name string
	Run  func(Options) Table
}

// All lists every regenerable experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig7", Figure7},
		{"table2", Table2},
		{"fig8", Figure8},
		{"fig9", Figure9},
		{"fig10", Figure10},
		{"fig11", Figure11},
		{"fig12", Figure12},
		{"fig13", Figure13},
		{"fig14", Figure14},
		{"table3", Table3},
		{"table4", Table4},
		{"table5", Tables5to7},
		{"table8", Table8},
		{"ext-fairness", ExtensionFairness},
		{"ext-delay", ExtensionDelay},
		{"scaling", ScalingMesh},
		{"mobility", Mobility},
		{"load", Load},
		{"resilience", Resilience},
	}
}
