// Command aggbench regenerates the paper's evaluation: every table and
// figure of "Improving the Performance of Multi-hop Wireless Networks using
// Frame Aggregation and Broadcast for TCP ACKs" (Kim et al., CoNEXT 2008),
// printed as aligned text tables, JSON, or CSV.
//
// Each experiment's independent simulation runs are fanned across a worker
// pool (internal/runner); output is bit-identical at any worker count, so
// -parallel only changes wall-clock time.
//
// Usage:
//
//	aggbench                 # run everything (paper order), GOMAXPROCS workers
//	aggbench -exp fig11      # one experiment
//	aggbench -seed 7 -quick  # shorter UDP windows, different seed
//	aggbench -parallel 1     # force serial execution
//	aggbench -json > e.json  # machine-readable output
//	aggbench -csv  > e.csv
//	aggbench -progress       # per-run progress lines on stderr
//	aggbench -list           # list experiment names
//
// The mesh scaling experiment takes size/topology overrides:
//
//	aggbench -exp scaling                          # N ∈ {25,100,400}, grid+disk
//	aggbench -exp scaling -mesh-sizes 49,225       # custom network sizes
//	aggbench -exp scaling -mesh-topos grid,chains  # custom generators
//
// The offered-load experiment (workload engine: open-loop Poisson flow
// arrivals and closed-loop think-time users, FCT p50/p95/p99 columns):
//
//	aggbench -exp load
//
// Performance tooling (see README "Performance"):
//
//	aggbench -cpuprofile cpu.pprof -exp fig7   # profile the hot path
//	aggbench -memprofile mem.pprof -exp fig7
//
// Crash-safe sweeps (see README "Crash-safe sweeps"): -store DIR flushes
// every completed cell durably as it lands; -resume additionally serves
// already-stored cells from the store, so a killed regeneration re-run
// with the same flags produces byte-identical output to an uninterrupted
// run:
//
//	aggbench -store results/ -resume -json > eval.json
//
// Exit codes: 0 success; 1 a run failed or the environment did (store
// locked, I/O error); 2 flag/usage error. Usage errors never touch the
// store.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/experiments"
	"aggmac/internal/runner"
	"aggmac/internal/store"
)

// Exit codes, documented in the README: usage/validation errors must be
// distinguishable from run failures in scripts and CI, and must never
// create or lock the results store.
const (
	exitRunFail = 1
	exitUsage   = 2
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment to run (empty = all); see -list")
		seed       = flag.Int64("seed", 1, "simulation seed")
		quick      = flag.Bool("quick", false, "shorter UDP measurement windows")
		parallel   = flag.Int("parallel", 0, "concurrent simulation workers (0 = GOMAXPROCS, 1 = serial)")
		jsonOut    = flag.Bool("json", false, "emit tables as a JSON array")
		csvOut     = flag.Bool("csv", false, "emit tables as CSV")
		progress   = flag.Bool("progress", false, "report each completed run on stderr")
		list       = flag.Bool("list", false, "list experiment names and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		meshSizes  = flag.String("mesh-sizes", "", "scaling experiment: comma list of network sizes (default 25,100,400)")
		meshTopos  = flag.String("mesh-topos", "", "scaling experiment: comma list of topologies: grid|disk|chains (default grid,disk)")
		storeDir   = flag.String("store", "", "durable results store directory; completed cells are flushed there as they land")
		resume     = flag.Bool("resume", false, "serve already-stored cells from -store instead of re-running them")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "aggbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "aggbench:", err)
			}
		}()
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Println(e.Name)
		}
		return
	}
	if *jsonOut && *csvOut {
		fmt.Fprintln(os.Stderr, "aggbench: -json and -csv are mutually exclusive")
		os.Exit(exitUsage)
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "aggbench: -parallel must be >= 0, got %d\n", *parallel)
		os.Exit(exitUsage)
	}
	if *resume && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "aggbench: -resume requires -store")
		os.Exit(exitUsage)
	}
	// Resolve the experiment selection before touching the store: an unknown
	// -exp is a usage error and must not create, lock or mutate anything.
	var selected []experiments.Experiment
	for _, e := range all {
		if *exp == "" || e.Name == *exp {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "aggbench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(exitUsage)
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick, Workers: *parallel}
	if *progress {
		opts.Progress = runner.StderrProgress
	}
	if *meshSizes != "" {
		for _, s := range strings.Split(*meshSizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 4 {
				fmt.Fprintf(os.Stderr, "aggbench: bad -mesh-sizes entry %q\n", s)
				os.Exit(exitUsage)
			}
			opts.MeshSizes = append(opts.MeshSizes, n)
		}
	}
	if *meshTopos != "" {
		for _, s := range strings.Split(*meshTopos, ",") {
			topo := strings.TrimSpace(s)
			switch topo {
			case core.MeshGrid, core.MeshDisk, core.MeshChains:
				opts.MeshTopos = append(opts.MeshTopos, topo)
			default:
				fmt.Fprintf(os.Stderr, "aggbench: bad -mesh-topos entry %q (grid|disk|chains)\n", s)
				os.Exit(exitUsage)
			}
		}
	}

	// All validation is done; only now may the store be created and locked.
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(exitRunFail)
		}
		defer st.Close()
		opts.Cache = st
		opts.Resume = *resume
	}

	// JSON/CSV need the whole set before encoding; text mode prints each
	// table as soon as its runs finish.
	var tables []experiments.Table
	start := time.Now()
	for _, e := range selected {
		t, err := runExperiment(e, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aggbench: experiment %s: %v\n", e.Name, err)
			if st != nil {
				st.Close() // completed cells are already durable
			}
			os.Exit(exitRunFail)
		}
		if *jsonOut || *csvOut {
			tables = append(tables, t)
		} else {
			fmt.Println(t.Format())
		}
	}
	if st != nil {
		for _, line := range st.Summary() {
			fmt.Fprintln(os.Stderr, "aggbench:", line)
		}
	}

	switch {
	case *jsonOut:
		if err := experiments.WriteJSON(os.Stdout, tables); err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
	case *csvOut:
		if err := experiments.WriteCSV(os.Stdout, tables); err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
	default:
		fmt.Printf("regenerated %d experiment(s) in %v (wall clock)\n",
			len(selected), time.Since(start).Round(time.Millisecond))
	}
}

// runExperiment converts a failed run's panic (how experiments.plan surfaces
// sim failures and cache errors) into an error, so main can exit with the
// run-failure code instead of a stack trace.
func runExperiment(e experiments.Experiment, opts experiments.Options) (t experiments.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(error); ok {
				err = re
			} else {
				err = fmt.Errorf("%v", r)
			}
		}
	}()
	return e.Run(opts), nil
}
