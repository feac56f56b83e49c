// Package telemetry is the deterministic observability layer: gauges
// and fixed-bucket histograms registered per component, sampled
// into time-series on simulated-time scheduler ticks, exported as
// versioned JSONL and summarized into the CLIs' -json envelopes.
//
// Determinism contract. Everything exported derives from simulated time
// and simulation state: samples are taken by scheduler events at fixed
// simulated instants, registration order fixes series order, and no
// wall-clock value ever enters a series. A metrics-on run therefore
// produces byte-identical JSONL across repeats and GOMAXPROCS settings.
// A metrics-off run (nil Recorder) schedules nothing and draws no
// randomness, so event sequences — and golden hashes — are untouched.
//
// Overhead contract. Disabled is the default and costs almost nothing:
// a nil *Registry hands out nil instrument handles, and every handle
// method nil-checks its receiver, so instrumented hot paths carry one
// predictable branch and zero allocations. Enabled-path sampling
// allocates only when a series grows.
//
// Concurrency contract. A Registry is confined to one scheduler: its
// gauges and histograms are read and written only by that scheduler's
// event loop (sharded runs use one Registry per shard, keyed by shard
// index).
package telemetry

import (
	"time"

	"aggmac/internal/sim"
)

// DefaultInterval is the sampling period used when a Recorder is built
// with a non-positive interval: 10 samples per simulated second.
const DefaultInterval = 100 * time.Millisecond

// Recorder owns the telemetry of one run: a sampling interval and one
// Registry per shard (a sequential run uses shard 0 only). Build it
// before the run, pass it through the config, and export after.
type Recorder struct {
	interval time.Duration
	regs     []*Registry
}

// NewRecorder returns a Recorder sampling every interval of simulated
// time, or every DefaultInterval if interval is not positive.
func NewRecorder(interval time.Duration) *Recorder {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Recorder{interval: interval}
}

// Interval reports the simulated-time sampling period.
func (r *Recorder) Interval() time.Duration { return r.interval }

// Registry returns the registry for the given shard index, creating it
// and any lower-indexed gaps on first use. Call during single-threaded
// run construction, before shard goroutines start.
func (r *Recorder) Registry(shard int) *Registry {
	if r == nil {
		return nil
	}
	for len(r.regs) <= shard {
		r.regs = append(r.regs, &Registry{shard: len(r.regs)})
	}
	return r.regs[shard]
}

// Registry holds one scheduler's instruments in registration order —
// the order that fixes series order in every export.
type Registry struct {
	shard   int
	metrics []*metric
	byName  map[string]*metric
	times   []time.Duration // tick instants, shared by all series
}

type metricKind uint8

const (
	kindGauge metricKind = iota
	kindHist
)

func (k metricKind) String() string {
	switch k {
	case kindGauge:
		return "gauge"
	default:
		return "hist"
	}
}

type metric struct {
	name  string
	kind  metricKind
	gauge func() float64
	hist  *Histogram

	samples []float64  // one scalar per tick (gauge)
	ticks   []histTick // one snapshot per tick (hist)
}

type histTick struct {
	count   uint64
	sum     float64
	buckets []uint64
}

// Histogram accumulates observations into fixed buckets chosen at
// registration. Observe is nil-safe and allocation-free: bucket i
// counts observations v with v <= bounds[i]; the final bucket is the
// overflow. Confined to the owning scheduler's goroutine.
type Histogram struct {
	bounds  []float64
	buckets []uint64
	count   uint64
	sum     float64
}

// Observe records one observation. Safe on a nil receiver; never
// allocates.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i]++
	h.count++
	h.sum += v
}

// Gauge registers a sampled read-out. fn runs on sampler ticks, on the
// owning scheduler's goroutine; it must not mutate simulation state or
// draw randomness. No-op on a nil Registry.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	if m := r.byName[name]; m != nil {
		m.gauge = fn
		return
	}
	r.register(&metric{name: name, kind: kindGauge, gauge: fn})
}

// Histogram registers a fixed-bucket histogram with the given upper
// bounds (ascending; an overflow bucket is implicit). Returns a nil
// handle on a nil Registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if m := r.byName[name]; m != nil {
		return m.hist
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]uint64, len(bounds)+1),
	}
	r.register(&metric{name: name, kind: kindHist, hist: h})
	return h
}

func (r *Registry) register(m *metric) {
	if r.byName == nil {
		r.byName = make(map[string]*metric)
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
}

// Start schedules sampler ticks on sched every interval of simulated
// time up to and including until. No-op on a nil Registry, so a
// metrics-off run schedules nothing and its event sequence is
// untouched. Tick callbacks only read state and append samples — they
// never mutate the simulation or consume the scheduler's RNG.
func (r *Registry) Start(sched *sim.Scheduler, interval, until time.Duration) {
	if r == nil || interval <= 0 {
		return
	}
	var tick func()
	tick = func() {
		now := sched.Now()
		r.sample(now)
		if now+interval <= until {
			sched.After(interval, "telemetry: sample", tick)
		}
	}
	if interval <= until {
		sched.After(interval, "telemetry: sample", tick)
	}
}

// sample appends one tick at simulated instant now to every series.
func (r *Registry) sample(now time.Duration) {
	r.times = append(r.times, now)
	for _, m := range r.metrics {
		switch m.kind {
		case kindGauge:
			m.samples = append(m.samples, m.gauge())
		case kindHist:
			m.ticks = append(m.ticks, histTick{
				count:   m.hist.count,
				sum:     m.hist.sum,
				buckets: append([]uint64(nil), m.hist.buckets...),
			})
		}
	}
}

// Ticks reports how many samples have been taken.
func (r *Registry) Ticks() int {
	if r == nil {
		return 0
	}
	return len(r.times)
}
