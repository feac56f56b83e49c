package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/experiments"
	"aggmac/internal/faults"
	"aggmac/internal/mac"
	"aggmac/internal/runner"
	"aggmac/internal/traffic"
)

// inputSets is the number of distinct input sets a workload has. Seeds
// 1..inputSets select sets 1..inputSets and every other seed wraps
// around; refs/ holds the reference digests of every set, so any seed can
// be checked for correctness.
const inputSets = 16

// inputSet maps a workload seed onto its input set, 1..inputSets.
func inputSet(seed int64) int64 {
	return ((seed-1)%inputSets+inputSets)%inputSets + 1
}

// paperExperiments is how many entries of experiments.All(), from fig7
// through ext-delay, the paper workload runs.
const paperExperiments = 15

// paperSeedsPerSet is how many consecutive simulation seeds one paper pass
// regenerates the experiments at.
const paperSeedsPerSet = 3

// churnSeedsPerSet is how many simulation seeds one mesh-churn pass runs
// its cells at, so that no cell takes more than a small share of a pass.
const churnSeedsPerSet = 2

// mobileDeadline caps the simulated time of a mobile cell: a cell whose
// flows stall would otherwise recompute routes every tick up to the
// scaling cells' 1200 s deadline and take ten times longer than the rest.
const mobileDeadline = 100 * time.Second

var schemes = []mac.Scheme{mac.NA, mac.UA, mac.BA}

// workload is one named set of inputs. pass executes every cell of the
// input set once on a pool of the given size, reporting each finished
// cell to obs; it returns an error only when the pass itself could not
// run (a failed cell is the observer's concern).
type workload struct {
	name string
	// gridSide is the side of the largest grid the workload simulates,
	// which sizes the medium, routing and topology microbenchmarks.
	gridSide int
	// passSeconds is the share of --seconds one pass stands for; it turns
	// --seconds into a pass count. It is the wall time of one pass on two
	// cores, except on mesh-churn, where it is shorter so that a run
	// samples enough fault-injected cells for a steady cell_cpu_ms_p50.
	passSeconds float64
	pass        func(ctx context.Context, set int64, workers int, obs *observer) error
}

var workloads = []workload{
	{name: "paper", gridSide: 3, passSeconds: 5, pass: paperPass},
	{name: "mesh-static", gridSide: 40, passSeconds: 10, pass: func(ctx context.Context, set int64, workers int, obs *observer) error {
		return poolPass(ctx, meshStaticSpecs(set), workers, obs)
	}},
	{name: "mesh-churn", gridSide: 20, passSeconds: 4, pass: func(ctx context.Context, set int64, workers int, obs *observer) error {
		return poolPass(ctx, meshChurnSpecs(set), workers, obs)
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// paperPass regenerates the paper experiments as cmd/aggbench does, one
// experiment after another, each fanning its cells across the pool.
func paperPass(ctx context.Context, set int64, workers int, obs *observer) error {
	exps := experiments.All()[:paperExperiments]
	for i := int64(0); i < paperSeedsPerSet; i++ {
		seed := (set-1)*paperSeedsPerSet + 1 + i
		prefix := fmt.Sprintf("s%d/", i)
		for _, e := range exps {
			if err := ctx.Err(); err != nil {
				return err
			}
			done := obs.begin(prefix + e.Name)
			opts := experiments.Options{Seed: seed, Workers: workers,
				Cache: obs.cache(prefix), Resume: true, Progress: obs.progress(prefix)}
			t, err := runExperiment(e, opts)
			done()
			if err != nil {
				obs.fail(prefix+e.Name, err)
				continue
			}
			obs.table(prefix+"table/"+e.Name, t)
		}
	}
	return nil
}

// runExperiment turns the panic an experiment raises for a failed cell
// into an error.
func runExperiment(e experiments.Experiment, opts experiments.Options) (t experiments.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment %s: %v", e.Name, r)
		}
	}()
	return e.Run(opts), nil
}

// poolPass runs a cell list through one runner.Pool.
func poolPass(ctx context.Context, specs []runner.Spec, workers int, obs *observer) error {
	done := obs.begin("pool")
	defer done()
	pool := runner.Pool{Workers: workers, Cache: obs.cache(""), Resume: true, OnResult: obs.progress("")}
	res, err := pool.Run(ctx, specs)
	if err != nil {
		return err
	}
	for _, r := range res {
		if r.Err != nil {
			obs.fail(r.Key, r.Err)
		}
	}
	return nil
}

// meshStaticSpecs is the scaling experiment's own cells at N=400 and
// N=1600, largest first so the slowest cells do not end the pass alone.
func meshStaticSpecs(set int64) []runner.Spec {
	var specs []runner.Spec
	for _, n := range []int{1600, 400} {
		for _, topo := range []string{core.MeshGrid, core.MeshDisk} {
			for _, s := range schemes {
				cfg := experiments.ScalingCell(topo, s, n, set)
				specs = append(specs, runner.Spec{
					Key: fmt.Sprintf("static/%s/%s/N%d", topo, s.Name(), n), Mesh: &cfg})
			}
		}
	}
	return specs
}

// meshChurnSpecs mixes three kinds of churning cell under every scheme:
// waypoint-mobile grids, crash- and flap-injected grids, and the
// open-loop offered-load scenario. The slow mobile cells come first so
// the pool's tail is made of short ones.
func meshChurnSpecs(set int64) []runner.Spec {
	var mobile, faulty, load []runner.Spec
	for i := int64(0); i < churnSeedsPerSet; i++ {
		seed := (set-1)*churnSeedsPerSet + 1 + i
		prefix := fmt.Sprintf("churn/s%d/", i)
		for _, s := range schemes {
			mob := experiments.ScalingCell(core.MeshGrid, s, 225, seed)
			mob.Mobility = core.MobilityWaypoint
			mob.Speed = 4
			mob.Pause = time.Second
			mob.MoveInterval = 500 * time.Millisecond
			mob.Deadline = mobileDeadline
			mobile = append(mobile, runner.Spec{Key: prefix + "mobile/" + s.Name() + "/N225", Mesh: &mob})

			flt := experiments.ScalingCell(core.MeshGrid, s, 400, seed)
			flt.Faults = &faults.Config{CrashMTBF: 20 * time.Second, FlapMTBF: 10 * time.Second}
			faulty = append(faulty, runner.Spec{Key: prefix + "faults/" + s.Name() + "/N400", Mesh: &flt})

			key := prefix + "load/" + s.Name()
			cell := experiments.LoadCell(traffic.ModeOpen, s, 1.0, 0, runner.DeriveSeed(seed, key), false)
			load = append(load, runner.Spec{Key: key, Scenario: &cell})
		}
	}
	return append(append(mobile, faulty...), load...)
}

// gridSide is the side of the largest square grid that fits n nodes, as
// the mesh generators round it.
func gridSide(n int) int { return int(math.Sqrt(float64(n))) }
