package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/mac"
	"aggmac/internal/phy"
	"aggmac/internal/routing"
	"aggmac/internal/runner"
	"aggmac/internal/topology"
)

// netBuild describes the network a cell builds before its first event.
type netBuild struct {
	key    string // distinct topology: kind, size and placement seed
	kind   string // "linear", "star", core.MeshGrid, core.MeshDisk or core.MeshChains
	hops   int    // linear
	nodes  int    // grid and disk
	chains int    // chains
	seed   int64
	opts   mac.Options
}

// buildOf reads the network a cell builds from its spec.
func buildOf(s runner.Spec) netBuild {
	switch {
	case s.TCP != nil:
		c := s.TCP
		opts := mac.DefaultOptions(c.Scheme, c.Rate)
		if c.Star {
			return netBuild{key: "star", kind: "star", seed: c.Seed, opts: opts}
		}
		hops := c.Hops
		if hops == 0 {
			hops = 2
		}
		return netBuild{key: fmt.Sprintf("linear/h%d", hops), kind: "linear", hops: hops, seed: c.Seed, opts: opts}
	case s.UDP != nil:
		c := s.UDP
		hops := c.Hops
		if hops == 0 {
			hops = 2
		}
		return netBuild{key: fmt.Sprintf("linear/h%d", hops), kind: "linear", hops: hops, seed: c.Seed,
			opts: mac.DefaultOptions(c.Scheme, c.Rate)}
	case s.Mesh != nil:
		c := s.Mesh
		return meshBuild(c.Topology, c.Nodes, c.Chains, c.ChainHops, c.Seed, mac.DefaultOptions(c.Scheme, c.Rate))
	default:
		sc := s.Scenario.Scenario
		nodes := sc.Topology.Nodes
		if nodes == 0 {
			nodes = 25
		}
		return meshBuild(sc.Topology.Kind, nodes, sc.Topology.Chains, sc.Topology.ChainHops, s.Scenario.Seed,
			mac.DefaultOptions(s.Scenario.Scheme, phy.Rate2600k))
	}
}

func meshBuild(kind string, nodes, chains, hops int, seed int64, opts mac.Options) netBuild {
	if kind == "" {
		kind = core.MeshGrid
	}
	b := netBuild{kind: kind, nodes: nodes, chains: chains, hops: hops, seed: seed, opts: opts}
	switch kind {
	case core.MeshDisk:
		b.key = fmt.Sprintf("disk/N%d/seed%d", nodes, seed)
	case core.MeshChains:
		b.key = fmt.Sprintf("chains/%dx%d", chains, hops)
	default:
		b.key = fmt.Sprintf("grid/k%d", gridSide(nodes))
	}
	return b
}

// build builds the network once: topology construction with routes
// deferred, then the all-pairs route install where the generator defers it.
func (b netBuild) build() {
	opts := b.opts
	cfg := topology.Config{Seed: b.seed, Phy: phy.DefaultParams(),
		OptsFor: func(int, int) mac.Options { return opts }}
	mcfg := topology.MeshConfig{Config: cfg, DeferRoutes: true}
	var m *topology.Mesh
	switch b.kind {
	case "linear":
		topology.NewLinear(b.hops, cfg)
		return
	case "star":
		topology.NewStar(cfg)
		return
	case core.MeshDisk:
		m = topology.NewRandomDisk(b.nodes, mcfg)
	case core.MeshChains:
		m = topology.NewParallelChains(b.chains, b.hops, 0, mcfg)
	default:
		m = topology.NewGrid(max(gridSide(b.nodes), 2), mcfg)
	}
	routing.InstallShortestPaths(m.Nodes, m.Adjacency())
}

// Each distinct network is timed in batches of builds lasting at least
// setupBatch: at least setupMinReps batches per window, and more until
// setupMinTime is measured or setupMaxReps batches are done. A batch runs
// after a full GC and with the collector paused, so it times construction
// work rather than where GC cycles happen to fall; the garbage
// construction makes shows in alloc_mb, since every cell builds its
// network inside the passes.
const (
	setupBatch   = 2 * time.Millisecond
	setupMinReps = 3
	setupMaxReps = 50
	setupMinTime = 200 * time.Millisecond
)

// setupTimer measures the host time cells spend building their networks.
// It times in windows, one after each pass, so that a burst of load on a
// shared machine falls on one window's builds rather than on all of them.
type setupTimer struct {
	cells map[string]int       // cells per distinct network
	per   map[string][]float64 // seconds per build, every batch so far
}

func newSetupTimer() *setupTimer {
	return &setupTimer{cells: map[string]int{}, per: map[string][]float64{}}
}

// window counts the given cells and times builds of their distinct
// networks.
func (t *setupTimer) window(specs []runner.Spec) {
	builds := map[string]netBuild{}
	for _, s := range specs {
		b := buildOf(s)
		builds[b.key] = b
		t.cells[b.key]++
	}
	for key, b := range builds {
		start := time.Now()
		b.build()
		batch := max(1, int(setupBatch/max(time.Since(start), 1)))
		var spent time.Duration
		for n := 0; n < setupMinReps || (spent < setupMinTime && n < setupMaxReps); n++ {
			runtime.GC()
			gc := debug.SetGCPercent(-1)
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				b.build()
			}
			d := time.Since(t0)
			debug.SetGCPercent(gc)
			spent += d
			t.per[key] = append(t.per[key], d.Seconds()/float64(batch))
		}
	}
}

// seconds is the build time of every cell counted, each charged its
// network's median build time.
func (t *setupTimer) seconds() float64 {
	var total float64
	for key, n := range t.cells {
		total += float64(n) * median(t.per[key])
	}
	return total
}
