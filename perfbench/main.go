// Command perfbench is the repository's benchmark. It drives one named
// workload through the simulator's public entry points — the experiments
// package, core.Run* and runner.Pool — on a closed loop of nproc workers
// (each worker starts its next cell when the current one finishes), checks
// every cell's simulated output against committed reference digests, and
// prints host-cost metrics as one JSON line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of untraced passes; --trace 1
// prints per-layer metrics from layer microbenchmarks and a separate
// profiled pass, and writes a Chrome trace, telemetry counts and the
// per-layer CPU table under -out. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"aggmac/internal/runner"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run: paper, mesh-static or mesh-churn")
		seed      = fs.Int64("seed", 1, "workload seed; seeds 1..16 select input sets 1..16, others wrap around")
		seconds   = fs.Int("seconds", 20, "run length in seconds: sets how many passes, over consecutive input sets, a run makes")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		out       = fs.String("out", "perfbench-out", "directory for the traced run's files")
		writeRefs = fs.String("write-refs", "", "regenerate the workload's reference digests into this directory and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	ctx := context.Background()
	workers := runtime.NumCPU()
	if *writeRefs != "" {
		if err := regenerateRefs(ctx, w, workers, *writeRefs, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	rf, err := loadRefs(w.name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	st := newStamp(w.name, *seed, workers)
	if err := json.NewEncoder(stdout).Encode(map[string]any{"stamp": st}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var rep report
	if *trace == 0 {
		rep, err = endToEnd(ctx, w, rf, inputSet(*seed), workers, passCount(w, *seconds), stderr)
	} else {
		rep, err = traced(ctx, w, rf, st, workers, *out, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// endToEnd measures n untraced passes over consecutive input sets from
// set. After each pass it checks the pass's outputs, times a window of
// set-up builds for the pass's cells, and releases the results so they do
// not weigh on the next pass's heap.
func endToEnd(ctx context.Context, w workload, rf refFile, set int64, workers, n int,
	stderr io.Writer) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	var passes []passStats
	var cellCPU []float64
	groupWall := map[string][]float64{} // by slot, every repetition
	var passGroups []string
	setup := newSetupTimer()
	for i, s := 0, set; i < n; i, s = i+1, nextSet(s) {
		p, err := measurePass(ctx, w, s, workers)
		if err != nil {
			return report{}, err
		}
		a, f, err := checkPass(rf, s, p.obs, stderr)
		if err != nil {
			return report{}, err
		}
		rep.Attempted += a
		rep.Failed += f
		passGroups = passGroups[:0]
		for _, g := range p.obs.groups {
			slot := slotOf(g.name)
			passGroups = append(passGroups, slot)
			groupWall[slot] = append(groupWall[slot], (g.end - g.start).Seconds())
		}
		var specs []runner.Spec
		for _, c := range p.obs.cells {
			if c.ok {
				cellCPU = append(cellCPU, float64(c.cpu)/float64(time.Millisecond))
				specs = append(specs, c.spec)
			}
		}
		p.obs = nil
		setup.window(specs)
		passes = append(passes, p)
		fmt.Fprintf(stderr, "perfbench: pass %d: set %d, %.2fs wall, %.2fs cpu, %d events, %.0f MB allocated, %.1f MB live heap p95\n",
			i+1, s, p.wall.Seconds(), p.cpu.Seconds(), p.events, float64(p.alloc)/1e6, float64(p.peakLive)/1e6)
	}
	rep.Correct = rep.Failed == 0
	// A pass's makespan is the sum of its groups' (paper: experiments';
	// mesh: the pool's), each taken at the first quartile of its
	// repetitions in the run. Load from elsewhere on a shared machine only
	// ever slows a repetition down, so the faster repetitions are the ones
	// it missed (README.md, "Steadiness", has the comparison).
	var wall float64
	for _, g := range passGroups {
		wall += percentile(groupWall[g], 0.25)
	}
	m := rep.Metrics
	m["wall_s"] = metric{wall, "s"}
	m["cpu_s"] = metric{perPass(passes, func(p passStats) float64 { return p.cpu.Seconds() }), "s"}
	m["events_per_cpu_s"] = metric{perPass(passes, func(p passStats) float64 {
		return float64(p.events) / p.cpu.Seconds()
	}), "1/s"}
	m["cell_cpu_ms_p50"] = metric{percentile(cellCPU, 0.5), "ms"}
	m["cell_cpu_ms_p90"] = metric{percentile(cellCPU, 0.9), "ms"}
	m["alloc_mb"] = metric{perPass(passes, func(p passStats) float64 { return float64(p.alloc) / 1e6 }), "MB"}
	m["peak_heap_mb"] = metric{perPass(passes, func(p passStats) float64 { return float64(p.peakLive) / 1e6 }), "MB"}
	m["setup_s"] = metric{setup.seconds() / float64(n), "s"}
	fmt.Fprintf(stderr, "perfbench: %s set %d: %d pass(es), %d cells sampled, fail_frac %d/%d\n",
		w.name, set, n, len(cellCPU), rep.Failed, rep.Attempted)
	return rep, nil
}

// checkPass checks one pass's outputs and reports the mismatches.
func checkPass(rf refFile, set int64, o *observer, stderr io.Writer) (attempted, failed int, err error) {
	got, err := outputDigests(o)
	if err != nil {
		return 0, 0, err
	}
	attempted, failed, bad := checkOutputs(rf, set, got)
	for i, key := range bad {
		if i == 5 {
			fmt.Fprintf(stderr, "perfbench: ... and %d more\n", len(bad)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: output %s does not match its reference\n", key)
	}
	for key, e := range o.fails {
		fmt.Fprintf(stderr, "perfbench: %s failed: %v\n", key, e)
	}
	return attempted, failed, nil
}

// regenerateRefs runs one pass per input set and writes the digests.
func regenerateRefs(ctx context.Context, w workload, workers int, dir string, stderr io.Writer) error {
	sets := make([]map[string]string, inputSets)
	for s := int64(1); s <= inputSets; s++ {
		p, err := measurePass(ctx, w, s, workers)
		if err != nil {
			return err
		}
		if len(p.obs.fails) > 0 {
			return fmt.Errorf("input set %d: %d cell(s) failed", s, len(p.obs.fails))
		}
		if sets[s-1], err = outputDigests(p.obs); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "perfbench: %s set %d: %d outputs, %.1fs wall, %.1fs cpu, %d events\n",
			w.name, s, len(sets[s-1]), p.wall.Seconds(), p.cpu.Seconds(), p.events)
	}
	return writeRefs(dir, w.name, sets)
}
