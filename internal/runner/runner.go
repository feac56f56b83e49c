// Package runner executes declarative sets of simulation runs across a
// worker pool. An experiment (or a CLI sweep) describes its run matrix as a
// slice of Specs — scheme × PHY rate × topology × traffic × seed — and the
// Pool fans the independent, deterministic simulations across workers.
//
// Determinism contract: every run's outcome is a pure function of its
// config (each sim owns its scheduler and seeded random source, and shares
// no mutable state with other runs), and results are returned indexed by
// spec position. A sweep therefore produces bit-identical output no matter
// how many workers execute it or in which order runs complete. Per-run
// seeds for generated grids come from DeriveSeed, a pure function of the
// base seed and the run's key.
package runner

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/traffic"
)

// Spec is one declarative simulation run: a stable key (identity for seed
// derivation and progress display) plus exactly one traffic config.
type Spec struct {
	Key      string
	TCP      *core.TCPConfig
	UDP      *core.UDPConfig
	Mesh     *core.MeshTCPConfig
	Scenario *core.ScenarioConfig
}

// Validate reports a spec that does not set exactly one config, or the
// Validate error of the config it sets.
func (s Spec) Validate() error {
	set := 0
	for _, present := range []bool{s.TCP != nil, s.UDP != nil, s.Mesh != nil, s.Scenario != nil} {
		if present {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("runner: spec %q must set exactly one of TCP, UDP, Mesh or Scenario", s.Key)
	}
	var cfg interface{ Validate() error }
	switch {
	case s.TCP != nil:
		cfg = s.TCP
	case s.UDP != nil:
		cfg = s.UDP
	case s.Mesh != nil:
		cfg = s.Mesh
	default:
		cfg = s.Scenario
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("runner: spec %q: %w", s.Key, err)
	}
	return nil
}

// Result is one completed run, indexed by its spec's position.
type Result struct {
	Index    int
	Key      string
	TCP      *core.TCPResult
	UDP      *core.UDPResult
	Mesh     *core.MeshResult
	Scenario *core.ScenarioResult
	// Wall is the wall-clock cost of this run (not simulated time).
	Wall time.Duration
	// Err is non-nil when the spec was malformed, the sim panicked, or the
	// sweep was cancelled before this run started.
	Err error
	// Cached reports the result was served from the Pool's Cache without
	// executing; Wall is then 0.
	Cached bool
}

// ThroughputMbps returns the run's headline metric: end-to-end TCP goodput,
// UDP sink goodput, or a mesh run's aggregate goodput across its flows.
func (r Result) ThroughputMbps() float64 {
	switch {
	case r.TCP != nil:
		return r.TCP.ThroughputMbps
	case r.UDP != nil:
		return r.UDP.ThroughputMbps
	case r.Mesh != nil:
		return r.Mesh.AggregateMbps
	case r.Scenario != nil:
		return r.Scenario.AggregateMbps
	}
	return 0
}

// Progress reports one completed run. Done counts completions so far, so a
// reporter can render "[Done/Total] Key".
type Progress struct {
	Done  int
	Total int
	Index int
	Key   string
	Wall  time.Duration
	// Cached mirrors the completed Result, so reporters can tell cache
	// hits from executed cells without holding the results slice.
	Cached bool
	// Elapsed is the wall time since the sweep started, measured when this
	// completion was reported, so reporters can derive a completion rate
	// and an ETA. Zero only for reporters invoked outside Pool.Run.
	Elapsed time.Duration
}

// StderrProgress is the standard per-run progress reporter the CLIs wire
// to -progress: one "[done/total] key (wall)" line per completed run, with
// a sweep-level rate and ETA once the pool supplies elapsed wall time.
func StderrProgress(p Progress) {
	var rate string
	if p.Elapsed > 0 && p.Done > 0 {
		rps := float64(p.Done) / p.Elapsed.Seconds()
		eta := time.Duration(float64(p.Total-p.Done) / rps * float64(time.Second))
		rate = fmt.Sprintf(" [%.1f runs/s, eta %v]", rps, eta.Round(time.Second))
	}
	if p.Cached {
		fmt.Fprintf(os.Stderr, "[%d/%d] %s (cached)%s\n", p.Done, p.Total, p.Key, rate)
		return
	}
	fmt.Fprintf(os.Stderr, "[%d/%d] %s (%v)%s\n", p.Done, p.Total, p.Key, p.Wall.Round(time.Millisecond), rate)
}

// Cache is a durable results store consulted and fed by the Pool (see
// internal/store for the on-disk implementation). Lookup returns the
// previously stored result for a spec's cell; Store persists a completed
// one. Implementations must be safe for concurrent use and must only be
// handed successful results.
type Cache interface {
	Lookup(Spec) (Result, bool, error)
	Store(Spec, Result) error
}

// Pool executes specs across Workers goroutines.
type Pool struct {
	// Workers is the concurrency cap; <=0 means GOMAXPROCS.
	Workers int
	// OnResult, when set, is called after each run completes, in completion
	// order. Calls are serialized; the callback must not block for long.
	OnResult func(Progress)
	// Cache, when set, receives every successful result as it completes —
	// durably, before the sweep moves on, so a killed sweep keeps its
	// finished cells. With Resume also set, Cache is consulted before
	// executing and hits skip execution entirely.
	Cache Cache
	// Resume enables cache lookups (Cache writes happen regardless).
	Resume bool

	// execute is a test seam for fault injection; nil means runOne.
	execute func(int, Spec) Result
}

func (p *Pool) workers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every spec and returns results in spec order. The slice
// always has len(specs) entries; on cancellation the unstarted entries
// carry ctx's error, and Run's own error is ctx.Err(). Individual run
// failures (malformed spec, sim panic) land in Result.Err, not in Run's
// error, so one bad cell cannot sink a sweep. A failing Cache is also not
// allowed to sink the sweep: every run still executes, and the first cache
// error is returned after completion so callers can fail loudly.
func (p *Pool) Run(ctx context.Context, specs []Spec) ([]Result, error) {
	results := make([]Result, len(specs))
	if len(specs) == 0 {
		return results, ctx.Err()
	}

	start := time.Now()

	idxCh := make(chan int)
	go func() {
		defer close(idxCh)
		for i := range specs {
			select {
			case idxCh <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	var cacheErr error
	var cacheErrOnce sync.Once
	noteCacheErr := func(err error) { cacheErrOnce.Do(func() { cacheErr = err }) }
	for w := p.workers(len(specs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if ctx.Err() != nil {
					return
				}
				results[i] = p.runSpec(i, specs[i], noteCacheErr)
				// Flush the completed cell durably before reporting it, so
				// a kill at any point loses at most the in-flight runs.
				if p.Cache != nil && results[i].Err == nil && !results[i].Cached {
					if err := p.Cache.Store(specs[i], results[i]); err != nil {
						noteCacheErr(err)
					}
				}
				if p.OnResult != nil {
					mu.Lock()
					done++
					p.OnResult(Progress{Done: done, Total: len(specs),
						Index: i, Key: specs[i].Key, Wall: results[i].Wall,
						Cached: results[i].Cached, Elapsed: time.Since(start)})
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		for i := range results {
			r := &results[i]
			if r.TCP == nil && r.UDP == nil && r.Mesh == nil && r.Scenario == nil && r.Err == nil {
				results[i] = Result{Index: i, Key: specs[i].Key, Err: err}
			}
		}
		return results, err
	}
	if cacheErr != nil {
		return results, fmt.Errorf("runner: results cache: %w", cacheErr)
	}
	return results, nil
}

// runSpec serves one spec from the cache when allowed, otherwise executes
// it once: a run is a pure function of its spec, so executing it again
// could only reproduce the same result or the same error.
func (p *Pool) runSpec(i int, s Spec, noteCacheErr func(error)) Result {
	if p.Cache != nil && p.Resume {
		switch r, ok, err := p.Cache.Lookup(s); {
		case err != nil:
			noteCacheErr(err)
		case ok:
			r.Index = i
			r.Key = s.Key
			r.Cached = true
			r.Wall = 0
			return r
		}
	}
	if p.execute != nil {
		return p.execute(i, s)
	}
	return runOne(i, s)
}

// runOne executes a single spec, converting panics into Result.Err so a
// diverging cell reports instead of killing the whole sweep. Error panic
// values are wrapped with %w, so callers can still match them.
func runOne(i int, s Spec) (res Result) {
	start := time.Now()
	res = Result{Index: i, Key: s.Key}
	defer func() {
		res.Wall = time.Since(start)
		r := recover()
		if r == nil {
			return
		}
		res.TCP, res.UDP, res.Mesh, res.Scenario = nil, nil, nil, nil
		if err, ok := r.(error); ok {
			res.Err = fmt.Errorf("runner: run %q panicked: %w", s.Key, err)
			return
		}
		res.Err = fmt.Errorf("runner: run %q panicked: %v", s.Key, r)
	}()
	// An invalid config reports its reason, not a panic.
	if err := s.Validate(); err != nil {
		res.Err = err
		return res
	}
	switch {
	case s.TCP != nil:
		r := core.RunTCP(*s.TCP)
		res.TCP = &r
	case s.UDP != nil:
		r := core.RunUDP(*s.UDP)
		res.UDP = &r
	case s.Mesh != nil:
		r := core.RunMeshTCP(*s.Mesh)
		res.Mesh = &r
	default:
		r := core.RunScenario(*s.Scenario)
		res.Scenario = &r
	}
	return res
}

// DeriveSeed maps (base seed, run key) to a per-run seed. It is a pure
// function, so the seed a run gets never depends on worker count or
// completion order — only on the sweep's base seed and the run's identity.
// The implementation lives in internal/traffic, which applies the same
// discipline to per-flow random streams; this alias keeps the runner's
// historical call sites (and derived seeds) unchanged.
func DeriveSeed(base int64, key string) int64 { return traffic.DeriveSeed(base, key) }
