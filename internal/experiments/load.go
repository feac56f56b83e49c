package experiments

import (
	"fmt"

	"aggmac/internal/core"
	"aggmac/internal/mac"
	"aggmac/internal/runner"
	"aggmac/internal/traffic"
)

// The open-loop arrival rates (flows per second) and the closed-loop user
// population the offered-load experiment sweeps.
var (
	loadRates = []float64{0.2, 1.0}
	loadUsers = 6
)

// LoadScenario builds the canonical offered-load workload: a 16-node grid
// carrying a web-like mix — Pareto objects (mean 12 KB, weight 3) plus
// larger bulk transfers (60 KB, weight 1) — under either open-loop Poisson
// arrivals at arrivalRate flows/s or a closed-loop population of users
// with 2 s mean think time. Quick mode halves the arrival window.
func LoadScenario(mode string, arrivalRate float64, users int, quick bool) traffic.Scenario {
	dur := 60.0
	if quick {
		dur = 30.0
	}
	return traffic.Scenario{
		Version:   traffic.SchemaVersion,
		Name:      "offered-load",
		Seed:      1,
		DurationS: dur,
		DeadlineS: 4 * dur,
		Schemes:   []string{"na", "ua", "ba"},
		RateMbps:  2.6,
		Topology:  traffic.Topology{Kind: "grid", Nodes: 16},
		Traffic: traffic.Traffic{
			Mode:        mode,
			ArrivalRate: arrivalRate,
			Users:       users,
			ThinkS:      2,
			Mix: []traffic.WeightedModel{
				{Model: traffic.Model{Kind: traffic.Pareto, Bytes: 12_000, MaxBytes: 240_000}, Weight: 3},
				{Model: traffic.Model{Kind: traffic.Bulk, Bytes: 60_000}, Weight: 1},
			},
		},
	}
}

// LoadCell builds one offered-load run config.
// bench_test.go and the perfbench module reuse it so their benchmarks
// measure exactly the experiment's configuration.
func LoadCell(mode string, scheme mac.Scheme, arrivalRate float64, users int, seed int64, quick bool) core.ScenarioConfig {
	sc := LoadScenario(mode, arrivalRate, users, quick)
	return core.ScenarioConfig{Scenario: sc, Scheme: scheme, Seed: seed}
}

// scenarioPct returns completed flows as a percentage of arrivals.
func scenarioPct(r core.ScenarioResult) float64 {
	if r.FlowsStarted == 0 {
		return 0
	}
	return 100 * float64(r.FlowsCompleted) / float64(r.FlowsStarted)
}

// Load measures flow-completion time and goodput as offered load varies,
// under all three base schemes and both arrival disciplines — the workload
// regime the paper's fixed FTP setup never reaches. Open-loop rows push
// Poisson flow arrivals at fixed rates whether or not the network keeps
// up; the closed-loop row lets a think-time user population self-throttle.
// Columns report aggregate goodput, FCT p50/p95/p99 in milliseconds, and
// the fraction of arrived flows that completed by the deadline.
func Load(o Options) Table {
	t := Table{
		ID:    "Load",
		Title: "Offered load: flow completion time under open/closed-loop workloads",
		Columns: []string{
			"Mbps", "FCTp50ms", "FCTp95ms", "FCTp99ms", "Done%",
		},
		Notes: "grid N=16, pareto(12K)x3 + bulk(60K)x1 mix; open rows: Poisson arrivals at λ flows/s; closed row: think-time users (2 s mean); FCT over completed flows only",
	}
	type workload struct {
		label string
		mode  string
		rate  float64
		users int
	}
	var loads []workload
	for _, r := range loadRates {
		loads = append(loads, workload{
			label: fmt.Sprintf("open λ=%g", r),
			mode:  traffic.ModeOpen, rate: r,
		})
	}
	loads = append(loads, workload{
		label: fmt.Sprintf("closed U=%d", loadUsers),
		mode:  traffic.ModeClosed, users: loadUsers,
	})

	var p plan
	for _, w := range loads {
		for _, scheme := range []mac.Scheme{mac.NA, mac.UA, mac.BA} {
			w := w
			ri := len(t.Rows)
			t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%s %s", scheme.Name(), w.label)})
			key := fmt.Sprintf("load/%s/%s", scheme.Name(), w.label)
			cell := LoadCell(w.mode, scheme, w.rate, w.users, runner.DeriveSeed(o.Seed, key), o.Quick)
			p.scenario(key, cell, func(r core.ScenarioResult) {
				t.Rows[ri].Values = []float64{
					r.AggregateMbps,
					float64(r.FCT.P50.Milliseconds()),
					float64(r.FCT.P95.Milliseconds()),
					float64(r.FCT.P99.Milliseconds()),
					scenarioPct(r),
				}
			})
		}
	}
	p.run(o)
	return t
}
