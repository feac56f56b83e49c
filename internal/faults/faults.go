// Package faults injects seeded failures into generated meshes: node
// crash/recover cycles, per-link up/down flapping, scheduled area
// partitions, and SNR-degradation bursts. A Set mirrors the mobility
// models' contract — Step advances every fault process to an absolute
// simulated instant and is tick-size invariant, so the fault state at time
// T never depends on how the dynamics tick partitioned [0, T] — and
// implements topology.LinkOverlay, so link cuts and SNR penalties flow
// through the mesh's existing delta-only UpdateLinks reconciliation
// instead of a parallel bookkeeping path. Faults therefore compose with
// mobility: one pooled-scheduler tick steps motion and failures together
// and pays one incremental link reconcile for both.
//
// Determinism: every process draws from a private stream derived from
// (seed, stream kind, entity index) through a splitmix64 finalizer,
// decoupled from the simulation, placement, flow-sampling and mobility
// streams. Enabling one fault class never perturbs the draws of another,
// and the same (config, seed) replays the same failure schedule exactly.
package faults

import (
	"fmt"
	"math/rand"
	"time"

	"aggmac/internal/topology"
)

// Partition axes.
const (
	AxisX = "x"
	AxisY = "y"
)

// minMean is the smallest accepted MTBF/MTTR. Renewal processes consume
// exponential legs one by one, so a mean far below the tick interval would
// make Step's cost explode; 1 ms is three orders of magnitude below any
// sane dynamics tick and still keeps legs-per-tick bounded.
const minMean = time.Millisecond

// Partition is one scheduled area partition: for the window
// [Start, Start+Duration) every link crossing the line Axis = At is cut.
// Endpoints are classified by their live positions, so under mobility the
// cut tracks the nodes, not the build-time layout.
type Partition struct {
	Start    time.Duration
	Duration time.Duration
	// Axis is AxisX (cut at X = At) or AxisY (cut at Y = At).
	Axis string
	// At is the cut line's coordinate in spacing units.
	At float64
}

// cuts reports whether the active partition separates positions a and b.
func (p *Partition) cuts(a, b topology.Point) bool {
	if p.Axis == AxisY {
		return (a.Y < p.At) != (b.Y < p.At)
	}
	return (a.X < p.At) != (b.X < p.At)
}

// Config parameterizes a fault set. The zero value injects nothing.
type Config struct {
	// CrashMTBF is each node's mean up time between crashes; 0 disables
	// node crashes. CrashMTTR is the mean repair time (default 10 s when
	// crashes are enabled). Both are means of exponential draws.
	CrashMTBF time.Duration
	CrashMTTR time.Duration
	// FlapMTBF is each link's mean up time between flaps; 0 disables link
	// flapping. FlapMTTR is the mean down time (default 2 s). Flap
	// processes attach to the node pairs linked at build time.
	FlapMTBF time.Duration
	FlapMTTR time.Duration
	// Partitions are scheduled area partitions, applied independently.
	Partitions []Partition
	// SNRBurstMTBF is each node's mean time between SNR-degradation
	// bursts; 0 disables bursts. SNRBurstMTTR is the mean burst duration
	// (default 1 s) and SNRBurstDB the penalty applied to every link of a
	// bursting node while the burst lasts (default 10 dB).
	SNRBurstMTBF time.Duration
	SNRBurstMTTR time.Duration
	SNRBurstDB   float64
}

// Enabled reports whether the config injects any fault at all.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.CrashMTBF > 0 || c.FlapMTBF > 0 || len(c.Partitions) > 0 || c.SNRBurstMTBF > 0
}

// Normalize fills defaulted fields in place; it is idempotent.
func (c *Config) Normalize() {
	if c.CrashMTBF > 0 && c.CrashMTTR == 0 {
		c.CrashMTTR = 10 * time.Second
	}
	if c.FlapMTBF > 0 && c.FlapMTTR == 0 {
		c.FlapMTTR = 2 * time.Second
	}
	if c.SNRBurstMTBF > 0 {
		if c.SNRBurstMTTR == 0 {
			c.SNRBurstMTTR = time.Second
		}
		if c.SNRBurstDB == 0 {
			c.SNRBurstDB = 10
		}
	}
}

// Validate normalizes the config and reports the first problem.
func (c *Config) Validate() error {
	c.Normalize()
	check := func(name string, mtbf, mttr time.Duration) error {
		if mtbf == 0 {
			return nil
		}
		if mtbf < minMean {
			return fmt.Errorf("faults: %s MTBF %v is below the minimum %v", name, mtbf, minMean)
		}
		if mttr < minMean {
			return fmt.Errorf("faults: %s MTTR %v is below the minimum %v", name, mttr, minMean)
		}
		return nil
	}
	if err := check("crash", c.CrashMTBF, c.CrashMTTR); err != nil {
		return err
	}
	if err := check("flap", c.FlapMTBF, c.FlapMTTR); err != nil {
		return err
	}
	if err := check("SNR burst", c.SNRBurstMTBF, c.SNRBurstMTTR); err != nil {
		return err
	}
	if c.SNRBurstDB < 0 {
		return fmt.Errorf("faults: SNR burst penalty %g dB is negative", c.SNRBurstDB)
	}
	for i := range c.Partitions {
		p := &c.Partitions[i]
		if p.Axis == "" {
			p.Axis = AxisX
		}
		if p.Axis != AxisX && p.Axis != AxisY {
			return fmt.Errorf("faults: partition %d axis %q (want %s|%s)", i, p.Axis, AxisX, AxisY)
		}
		if p.Start < 0 {
			return fmt.Errorf("faults: partition %d start %v is negative", i, p.Start)
		}
		if p.Duration <= 0 {
			return fmt.Errorf("faults: partition %d duration %v must be positive", i, p.Duration)
		}
	}
	return nil
}

// Clone deep-copies the config (the Partitions slice is duplicated).
func (c *Config) Clone() *Config {
	if c == nil {
		return nil
	}
	d := *c
	d.Partitions = append([]Partition(nil), c.Partitions...)
	return &d
}

// Fault stream kinds, mixed into per-entity seeds.
const (
	streamCrash = iota
	streamFlap
	streamBurst
)

// faultSeed derives the private stream seed for entity i of the given
// stream kind: the base seed mixed through a splitmix64 finalizer with an
// ascii constant distinct from the mobility/placement/flow salts.
func faultSeed(seed int64, stream, i int) int64 {
	x := uint64(seed) ^ 0x6661756c7473 // "faults"
	x += uint64(int64(stream)+1) * 0xbf58476d1ce4e5b9
	x += uint64(int64(i)+2) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// renewal is an alternating-exponential up/down process. Legs are drawn
// sequentially from the private stream and consumed one by one, exactly
// like RandomWaypoint's target sequence, so the state at absolute time T
// is independent of how Step calls partition time.
type renewal struct {
	rng              *rand.Rand
	meanUp, meanDown float64 // seconds
	up               bool
	until            float64 // absolute end of the current leg, seconds
}

func newRenewal(meanUp, meanDown time.Duration, seed int64) renewal {
	r := renewal{
		rng:    rand.New(rand.NewSource(seed)),
		meanUp: meanUp.Seconds(), meanDown: meanDown.Seconds(),
		up: true,
	}
	r.until = r.rng.ExpFloat64() * r.meanUp
	return r
}

// stateAt consumes legs up to absolute time now (seconds, non-decreasing
// across calls) and returns whether the process is up.
func (r *renewal) stateAt(now float64) bool {
	for r.until <= now {
		r.up = !r.up
		mean := r.meanUp
		if !r.up {
			mean = r.meanDown
		}
		r.until += r.rng.ExpFloat64() * mean
	}
	return r.up
}

// Delta reports what one Step observed changing. State is sampled at tick
// boundaries (like the mobility link churn counters): a crash and recovery
// both inside one tick interval is unobservable and counts nothing.
type Delta struct {
	// Crashed/Recovered list the node ids whose observed state changed,
	// ascending. The slices are reused across Steps; do not retain them.
	Crashed, Recovered []int
	// FlapsDown/FlapsUp count managed links whose flap state changed.
	FlapsDown, FlapsUp int
	// PartitionsStarted/PartitionsHealed count partition window edges.
	PartitionsStarted, PartitionsHealed int
	// HealLatency sums, over partitions healed this step, the delay
	// between the scheduled window end and this tick — the reconnection
	// latency the periodic reconcile imposes.
	HealLatency time.Duration
	// BurstsStarted counts SNR bursts that began this step.
	BurstsStarted, BurstsEnded int
}

// Set is one run's fault state. It implements topology.LinkOverlay: the
// mesh's UpdateLinks consults LinkUp/SNRPenaltyDB on every reconcile, so a
// vetoed link is cut through the same incremental SetConnected path a
// mobility range cut uses, and restored links rise the same way.
type Set struct {
	cfg Config
	m   *topology.Mesh

	crash    []renewal // per node; nil when crashes are disabled
	nodeDown []bool

	links    [][2]int // managed flap links (a < b), build-time link set
	linkIdx  map[[2]int]int
	flap     []renewal
	flapDown []bool

	burst   []renewal // per node; nil when bursts are disabled
	burstOn []bool

	partActive []bool

	now         time.Duration
	downCount   int
	downSeconds float64 // integral of downCount over observed time
}

// New builds the fault set over the mesh's build-time link set. cfg is
// validated (New panics on an invalid config — callers validate at load
// time, so a failure here is a programming error, consistent with the
// run entry points). The returned Set holds a reference to the mesh's
// live position slice for partition classification.
func New(cfg Config, m *topology.Mesh, seed int64) *Set {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	n := len(m.Nodes)
	s := &Set{
		cfg: cfg, m: m,
		nodeDown:   make([]bool, n),
		partActive: make([]bool, len(cfg.Partitions)),
	}
	if cfg.CrashMTBF > 0 {
		s.crash = make([]renewal, n)
		for i := range s.crash {
			s.crash[i] = newRenewal(cfg.CrashMTBF, cfg.CrashMTTR, faultSeed(seed, streamCrash, i))
		}
	}
	if cfg.FlapMTBF > 0 {
		adj := m.Adjacency()
		for a := 0; a < n; a++ {
			for _, b := range adj(a) {
				if b > a {
					s.links = append(s.links, [2]int{a, b})
				}
			}
		}
		s.linkIdx = make(map[[2]int]int, len(s.links))
		s.flap = make([]renewal, len(s.links))
		s.flapDown = make([]bool, len(s.links))
		for i, l := range s.links {
			s.linkIdx[l] = i
			s.flap[i] = newRenewal(cfg.FlapMTBF, cfg.FlapMTTR, faultSeed(seed, streamFlap, i))
		}
	}
	if cfg.SNRBurstMTBF > 0 {
		s.burst = make([]renewal, n)
		s.burstOn = make([]bool, n)
		for i := range s.burst {
			s.burst[i] = newRenewal(cfg.SNRBurstMTBF, cfg.SNRBurstMTTR, faultSeed(seed, streamBurst, i))
		}
	}
	return s
}

// Step advances every fault process to absolute time now (non-decreasing
// across calls) and reports the observed state changes. The caller applies
// the delta — crash/recover hooks, then a link reconcile — before the next
// event runs.
func (s *Set) Step(now time.Duration) Delta {
	var d Delta
	// Integrate the previously observed down state over the elapsed
	// interval before sampling the new one (availability accounting).
	s.downSeconds += (now - s.now).Seconds() * float64(s.downCount)
	t := now.Seconds()
	s.now = now

	for i := range s.crash {
		up := s.crash[i].stateAt(t)
		switch {
		case !up && !s.nodeDown[i]:
			s.nodeDown[i] = true
			s.downCount++
			d.Crashed = append(d.Crashed, i)
		case up && s.nodeDown[i]:
			s.nodeDown[i] = false
			s.downCount--
			d.Recovered = append(d.Recovered, i)
		}
	}
	for i := range s.flap {
		up := s.flap[i].stateAt(t)
		switch {
		case !up && !s.flapDown[i]:
			s.flapDown[i] = true
			d.FlapsDown++
		case up && s.flapDown[i]:
			s.flapDown[i] = false
			d.FlapsUp++
		}
	}
	for i := range s.cfg.Partitions {
		p := &s.cfg.Partitions[i]
		active := now >= p.Start && now < p.Start+p.Duration
		switch {
		case active && !s.partActive[i]:
			s.partActive[i] = true
			d.PartitionsStarted++
		case !active && s.partActive[i]:
			s.partActive[i] = false
			d.PartitionsHealed++
			d.HealLatency += now - (p.Start + p.Duration)
		}
	}
	for i := range s.burst {
		on := !s.burst[i].stateAt(t) // a burst is the process's down leg
		switch {
		case on && !s.burstOn[i]:
			s.burstOn[i] = true
			d.BurstsStarted++
		case !on && s.burstOn[i]:
			s.burstOn[i] = false
			d.BurstsEnded++
		}
	}
	return d
}

// NodeDown reports node i's observed crash state.
func (s *Set) NodeDown(i int) bool { return s.nodeDown[i] }

// LinkUp implements topology.LinkOverlay: a link is up when both endpoints
// are up, its flap process (if managed) is up, and no active partition
// separates the endpoints. Symmetric in (a, b).
func (s *Set) LinkUp(a, b int) bool {
	if s.nodeDown[a] || s.nodeDown[b] {
		return false
	}
	if s.linkIdx != nil {
		if a > b {
			a, b = b, a
		}
		if li, ok := s.linkIdx[[2]int{a, b}]; ok && s.flapDown[li] {
			return false
		}
	}
	for i := range s.partActive {
		if s.partActive[i] && s.cfg.Partitions[i].cuts(s.m.Pos[a], s.m.Pos[b]) {
			return false
		}
	}
	return true
}

// SNRPenaltyDB implements topology.LinkOverlay: each bursting endpoint
// degrades the link by the configured penalty.
func (s *Set) SNRPenaltyDB(a, b int) float64 {
	if s.burstOn == nil {
		return 0
	}
	var p float64
	if s.burstOn[a] {
		p += s.cfg.SNRBurstDB
	}
	if s.burstOn[b] {
		p += s.cfg.SNRBurstDB
	}
	return p
}

// Availability returns the mean fraction of node-time spent up over
// [0, end], extrapolating the currently observed state from the last Step
// to end. It does not mutate the set.
func (s *Set) Availability(end time.Duration) float64 {
	n := len(s.nodeDown)
	if n == 0 || end <= 0 {
		return 1
	}
	down := s.downSeconds
	if end > s.now {
		down += (end - s.now).Seconds() * float64(s.downCount)
	}
	return 1 - down/(end.Seconds()*float64(n))
}
