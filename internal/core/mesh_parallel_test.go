package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"aggmac/internal/mac"
)

// hashMeshResult renders every field of a MeshResult (floats in exact hex)
// and hashes it, ignoring Shards — the one field that legitimately differs
// between the engines.
func hashMeshResult(r MeshResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "agg=%x min=%x mean=%x done=%d completed=%v elapsed=%d events=%d nodes=%d links=%d deg=%x\n",
		r.AggregateMbps, r.MinMbps, r.MeanMbps, r.FlowsDone, r.Completed, r.Elapsed,
		r.EventsRun, r.NodeCount, r.LinkCount, r.AvgDegree)
	fmt.Fprintf(&b, "churn=%d/%d/%d/%d\n", r.LinkUps, r.LinkDowns, r.RouteFlaps, r.RouteRecomputes)
	for _, f := range r.Flows {
		fmt.Fprintf(&b, "flow %d->%d hops=%d mbps=%x done=%v finish=%d\n",
			f.Server, f.Client, f.Hops, f.Mbps, f.Done, f.Finish)
	}
	for _, nr := range r.Nodes {
		fmt.Fprintf(&b, "node %d %s mac=%+v net=%+v pre=%x\n", nr.ID, nr.Role, nr.MAC, nr.Net, nr.PreambleBytes)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// equivCases is the randomized matrix for the parallel-vs-sequential
// property test: topology × scheme × seed cells kept small enough for CI.
func equivCases(short bool) []MeshTCPConfig {
	base := func(topo string, scheme mac.Scheme, seed int64) MeshTCPConfig {
		return MeshTCPConfig{
			Scheme: scheme, Topology: topo, Nodes: 36, Flows: 4,
			FileBytes: 8000, Seed: seed, Deadline: 300 * time.Second,
		}
	}
	cases := []MeshTCPConfig{
		base(MeshGrid, mac.BA, 1),
		base(MeshDisk, mac.UA, 7),
		base(MeshGrid, mac.NA, 3),
	}
	if !short {
		cases = append(cases,
			base(MeshDisk, mac.DBA, 11),
			base(MeshGrid, mac.UA, 1234),
			base(MeshDisk, mac.BA, 99),
		)
	}
	return cases
}

// TestParallelOneShardBitIdentical: Shards=1 must reproduce the sequential
// engine byte for byte — same flows, counters, finish times and executed
// event count.
func TestParallelOneShardBitIdentical(t *testing.T) {
	for _, cfg := range equivCases(testing.Short()) {
		name := fmt.Sprintf("%s/%v/seed%d", cfg.Topology, cfg.Scheme, cfg.Seed)
		seqCfg, parCfg := cfg, cfg
		parCfg.Shards = 1
		seq := RunMeshTCP(seqCfg)
		par := RunMeshTCP(parCfg)
		if par.Shards != 1 || seq.Shards != 0 {
			t.Fatalf("%s: engine labels seq=%d par=%d", name, seq.Shards, par.Shards)
		}
		if hs, hp := hashMeshResult(seq), hashMeshResult(par); hs != hp {
			t.Errorf("%s: one-shard run diverged from sequential\nseq events=%d agg=%.3f\npar events=%d agg=%.3f",
				name, seq.EventsRun, seq.AggregateMbps, par.EventsRun, par.AggregateMbps)
		}
	}
}

// TestParallelDeterministicAcrossRuns: a K-shard run is a pure function of
// (config, K): identical hashes across repeats and GOMAXPROCS settings.
func TestParallelDeterministicAcrossRuns(t *testing.T) {
	cases := equivCases(testing.Short())[:2]
	if raceEnabled {
		// Interleaving coverage, not statistical coverage: under the race
		// detector every run costs ~20x wall clock, and a K>1 run drains to
		// the deadline (no early halt), so wall clock scales with simulated
		// time. Hash stability doesn't need completed flows — a short
		// deadline probes the same synchronization paths at a fraction of
		// the cost.
		cases = []MeshTCPConfig{{Scheme: mac.BA, Topology: MeshGrid, Nodes: 16,
			Flows: 2, FileBytes: 2000, Seed: 1, Deadline: 5 * time.Second}}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cfg := range cases {
		for _, k := range []int{2, 4} {
			cfg.Shards = k
			name := fmt.Sprintf("%s/%v/seed%d/k%d", cfg.Topology, cfg.Scheme, cfg.Seed, k)
			runtime.GOMAXPROCS(4)
			ref := hashMeshResult(RunMeshTCP(cfg))
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				if h := hashMeshResult(RunMeshTCP(cfg)); h != ref {
					t.Errorf("%s: hash changed at GOMAXPROCS=%d", name, procs)
				}
			}
		}
	}
}

// TestParallelStatisticallyEquivalent: K>1 runs approximate cross-shard
// carrier sense inside the first lookahead window, so a single run is not
// bit-identical — collision realizations diverge chaotically, with the
// same magnitude as changing the seed (measured ±30-50% per run at this
// flow size). The statistical claim is therefore paired across seeds: the
// same seed set runs in both modes (identical flow plans), every flow must
// complete in both, per-run divergence must stay below the catastrophic
// threshold, and the cross-seed mean goodput and channel activity must
// agree within a tolerance well under the single-seed noise floor.
//
// The mesh is sized so shards stay coarser than the radio range (8x8 grid,
// k<=4 → strips two columns wide). Sharding finer than the radio range puts
// every node on a boundary and the lookahead-window carrier-sense
// approximation turns into a measurable systematic bias (34% mean goodput
// loss at 36 nodes / k=4 vs 9% at 64 nodes / k=4) — that regime is
// documented as out of scope, not asserted here.
func TestParallelStatisticallyEquivalent(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	families := []MeshTCPConfig{
		{Scheme: mac.BA, Topology: MeshGrid},
		{Scheme: mac.UA, Topology: MeshDisk},
		{Scheme: mac.NA, Topology: MeshGrid},
	}
	if testing.Short() {
		seeds = seeds[:4]
		families = families[:2]
	}
	if raceEnabled {
		// The race detector's value here is interleaving coverage, not
		// statistical power — the mean assertions are skipped and a trimmed
		// matrix keeps the race job's wall clock sane.
		seeds = seeds[:2]
		families = families[:1]
	}
	for _, fam := range families {
		fam.Nodes, fam.Flows, fam.FileBytes, fam.Deadline = 64, 4, 8000, 300*time.Second
		for _, k := range []int{2, 4} {
			name := fmt.Sprintf("%s/%s/k%d", fam.Topology, fam.Scheme.Name(), k)
			var seqAgg, parAgg float64
			var seqTx, parTx int
			for _, seed := range seeds {
				cfg := fam
				cfg.Seed = seed
				seq := RunMeshTCP(cfg)
				cfg.Shards = k
				par := RunMeshTCP(cfg)
				if par.FlowsDone != seq.FlowsDone {
					t.Errorf("%s seed=%d: FlowsDone %d, sequential %d", name, seed, par.FlowsDone, seq.FlowsDone)
				}
				if rel := relDiff(par.AggregateMbps, seq.AggregateMbps); rel > 0.75 {
					t.Errorf("%s seed=%d: catastrophic divergence: %.3f vs %.3f Mbps",
						name, seed, par.AggregateMbps, seq.AggregateMbps)
				}
				seqAgg += seq.AggregateMbps
				parAgg += par.AggregateMbps
				for i := range seq.Nodes {
					seqTx += seq.Nodes[i].MAC.DataTx
					parTx += par.Nodes[i].MAC.DataTx
				}
			}
			if raceEnabled {
				continue // too few seeds for the mean assertions to have power
			}
			if rel := relDiff(parAgg, seqAgg); rel > 0.25 {
				t.Errorf("%s: mean aggregate goodput %.3f vs %.3f Mbps over %d seeds (%.0f%% apart)",
					name, parAgg/float64(len(seeds)), seqAgg/float64(len(seeds)), len(seeds), rel*100)
			}
			if rel := relDiff(float64(parTx), float64(seqTx)); rel > 0.25 {
				t.Errorf("%s: total data transmissions %d vs %d over %d seeds (%.0f%% apart)",
					name, parTx, seqTx, len(seeds), rel*100)
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestParallelRejectsUnsupportedModes: the sharded path must refuse
// configurations whose semantics it cannot reproduce.
func TestParallelRejectsUnsupportedModes(t *testing.T) {
	base := MeshTCPConfig{Scheme: mac.BA, Nodes: 16, Flows: 2, FileBytes: 2000,
		Seed: 1, Deadline: 60 * time.Second, Shards: 2}
	for name, mutate := range map[string]func(*MeshTCPConfig){
		"mobility": func(c *MeshTCPConfig) { c.Mobility = MobilityWaypoint },
		"trace":    func(c *MeshTCPConfig) { c.TraceTo = &strings.Builder{} },
	} {
		cfg := base
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: sharded run did not panic", name)
				}
			}()
			RunMeshTCP(cfg)
		}()
	}
}
