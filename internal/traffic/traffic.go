// Package traffic is the workload-generation subsystem: the traffic
// models, flow-arrival processes and declarative scenario schema that turn
// the repo's "N flows forever" experiments into churning workloads whose
// flows arrive, transfer and complete over time.
//
// Everything here is seed-deterministic and engine-agnostic. A Model is a
// declarative description (JSON-serializable, validated); instantiating it
// with a per-flow seed yields a Source — a pull-based iterator over
// (delay, bytes) chunks. Because a Source owns its random stream and is
// only ever pulled, the arrival/size sequence it produces is a pure
// function of (model, seed): it cannot depend on worker count, scheduler
// tick size, or how eagerly the consumer drains it. The engine in
// internal/core pulls chunks on the simulated clock; the property tests
// pull them in different step sizes and on different goroutines and
// require identical streams.
package traffic

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// Model kinds.
const (
	Bulk    = "bulk"    // one object of exactly Bytes, sent immediately
	CBR     = "cbr"     // constant bit rate: PacketBytes every fixed interval
	Poisson = "poisson" // Poisson packet arrivals at a mean rate
	OnOff   = "onoff"   // exponential on/off bursts of CBR traffic
	Pareto  = "pareto"  // one object with a Pareto-sampled (web-like) size
)

// Model declares one traffic model. It is pure data: the scenario schema
// embeds it, Validate checks it, and New instantiates it with a per-flow
// seed. Zero fields take model-specific defaults (see Validate).
type Model struct {
	// Kind selects the model: bulk | cbr | poisson | onoff | pareto.
	Kind string `json:"kind"`
	// Bytes is the transfer size (bulk) or the mean object size (pareto).
	Bytes int `json:"bytes,omitempty"`
	// PacketBytes sizes each chunk of the paced models (cbr, poisson,
	// onoff). Default 1000.
	PacketBytes int `json:"packet_bytes,omitempty"`
	// RateMbps is the sending rate of the paced models: the constant rate
	// (cbr), the mean arrival rate (poisson), or the on-burst rate (onoff).
	RateMbps float64 `json:"rate_mbps,omitempty"`
	// DurationS bounds a paced flow's sending time in seconds, which makes
	// every flow finite so its completion time is well-defined.
	DurationS float64 `json:"duration_s,omitempty"`
	// MeanOnS / MeanOffS are the exponential burst/silence means of the
	// onoff model, in seconds. Defaults 1 and 1.
	MeanOnS  float64 `json:"mean_on_s,omitempty"`
	MeanOffS float64 `json:"mean_off_s,omitempty"`
	// Shape is the Pareto tail exponent (must exceed 1 for a finite mean;
	// default 1.5, the classic heavy-tailed web-object figure).
	Shape float64 `json:"shape,omitempty"`
	// MaxBytes caps Pareto-sampled object sizes (default 100 × Bytes), so
	// one astronomically unlucky draw cannot dominate a whole run.
	MaxBytes int `json:"max_bytes,omitempty"`
}

// withDefaults returns the model with zero fields resolved.
func (m Model) withDefaults() Model {
	switch m.Kind {
	case Bulk:
		if m.Bytes == 0 {
			m.Bytes = 200_000
		}
	case Pareto:
		if m.Bytes == 0 {
			m.Bytes = 30_000
		}
		if m.Shape == 0 {
			m.Shape = 1.5
		}
		if m.MaxBytes == 0 {
			m.MaxBytes = 100 * m.Bytes
		}
	case CBR, Poisson, OnOff:
		if m.PacketBytes == 0 {
			m.PacketBytes = 1000
		}
		if m.RateMbps == 0 {
			m.RateMbps = 0.2
		}
		if m.DurationS == 0 {
			m.DurationS = 10
		}
		if m.Kind == OnOff {
			if m.MeanOnS == 0 {
				m.MeanOnS = 1
			}
			if m.MeanOffS == 0 {
				m.MeanOffS = 1
			}
		}
	}
	return m
}

// Validate reports the first problem with the model, after defaults.
func (m Model) Validate() error {
	d := m.withDefaults()
	switch m.Kind {
	case Bulk:
		if d.Bytes < 1 {
			return fmt.Errorf("traffic: bulk bytes must be positive, got %d", d.Bytes)
		}
	case Pareto:
		if d.Bytes < 1 {
			return fmt.Errorf("traffic: pareto mean bytes must be positive, got %d", d.Bytes)
		}
		if d.Shape <= 1 {
			return fmt.Errorf("traffic: pareto shape must exceed 1 for a finite mean, got %g", d.Shape)
		}
		if d.MaxBytes < d.Bytes {
			return fmt.Errorf("traffic: pareto max_bytes %d below mean %d", d.MaxBytes, d.Bytes)
		}
	case CBR, Poisson, OnOff:
		if d.PacketBytes < 1 {
			return fmt.Errorf("traffic: %s packet_bytes must be positive, got %d", m.Kind, d.PacketBytes)
		}
		if d.RateMbps <= 0 {
			return fmt.Errorf("traffic: %s rate_mbps must be positive, got %g", m.Kind, d.RateMbps)
		}
		if d.DurationS <= 0 {
			return fmt.Errorf("traffic: %s duration_s must be positive, got %g", m.Kind, d.DurationS)
		}
		// A packet interval that truncates to zero nanoseconds would let a
		// source emit unbounded zero-wait chunks and never advance: the
		// engine pumps wait==0 chunks synchronously, so such a model must
		// be rejected, not run.
		if d.interval() <= 0 {
			return fmt.Errorf("traffic: %s rate %g Mbps is too fast for %d-byte packets (interval rounds to zero)", m.Kind, d.RateMbps, d.PacketBytes)
		}
		if m.Kind == OnOff && (d.MeanOnS <= 0 || d.MeanOffS <= 0) {
			return fmt.Errorf("traffic: onoff mean_on_s/mean_off_s must be positive, got %g/%g", d.MeanOnS, d.MeanOffS)
		}
	default:
		return fmt.Errorf("traffic: unknown model kind %q (bulk|cbr|poisson|onoff|pareto)", m.Kind)
	}
	return nil
}

// Source is a pull-based iterator over one flow's send schedule. Next
// returns the delay from the previous chunk (or from the flow's start, for
// the first) to the next chunk and that chunk's size; ok=false means the
// flow has sent everything and should close. The stream a Source produces
// depends only on (Model, seed), never on when or how it is pulled.
type Source interface {
	// Kind names the generating model.
	Kind() string
	Next() (wait time.Duration, bytes int, ok bool)
}

// New instantiates the model as a Source. The kinds that draw (Pareto,
// Poisson, OnOff) get their own random stream seeded with seed; Bulk and
// CBR are deterministic and seed none. It panics on an invalid model;
// validate first when the model comes from user input.
func (m Model) New(seed int64) Source {
	if err := m.Validate(); err != nil {
		panic(err.Error())
	}
	d := m.withDefaults()
	switch d.Kind {
	case Bulk:
		return &bulkSource{bytes: d.Bytes}
	case CBR:
		return &cbrSource{model: d}
	}
	rng := rand.New(rand.NewSource(seed))
	switch d.Kind {
	case Pareto:
		return &bulkSource{kind: Pareto, bytes: d.sampleParetoBytes(rng)}
	case Poisson:
		return &poissonSource{model: d, rng: rng}
	default: // OnOff
		return &onoffSource{model: d, rng: rng}
	}
}

// sampleParetoBytes draws one Pareto(shape) object size with mean Bytes,
// clamped to [1, MaxBytes].
func (m Model) sampleParetoBytes(rng *rand.Rand) int {
	// Mean of Pareto(xm, α) is xm·α/(α−1); invert for the scale xm.
	xm := float64(m.Bytes) * (m.Shape - 1) / m.Shape
	u := 1 - rng.Float64() // (0, 1]: keeps the draw finite
	size := int(xm / math.Pow(u, 1/m.Shape))
	if size > m.MaxBytes {
		size = m.MaxBytes
	}
	if size < 1 {
		size = 1
	}
	return size
}

// interval is the fixed packet spacing of a paced model at its rate.
func (m Model) interval() time.Duration {
	return time.Duration(float64(m.PacketBytes*8) / (m.RateMbps * 1e6) * float64(time.Second))
}

// bulkSource emits one chunk immediately (bulk and sampled pareto objects).
type bulkSource struct {
	kind  string
	bytes int
	done  bool
}

func (s *bulkSource) Kind() string {
	if s.kind != "" {
		return s.kind
	}
	return Bulk
}

func (s *bulkSource) Next() (time.Duration, int, bool) {
	if s.done {
		return 0, 0, false
	}
	s.done = true
	return 0, s.bytes, true
}

// cbrSource emits PacketBytes every interval for DurationS.
type cbrSource struct {
	model   Model
	elapsed time.Duration
	first   bool
}

func (s *cbrSource) Kind() string { return CBR }

func (s *cbrSource) Next() (time.Duration, int, bool) {
	wait := s.model.interval()
	if !s.first {
		s.first = true
		wait = 0
	}
	if s.elapsed+wait > time.Duration(s.model.DurationS*float64(time.Second)) {
		return 0, 0, false
	}
	s.elapsed += wait
	return wait, s.model.PacketBytes, true
}

// poissonSource emits PacketBytes at exponential inter-arrival times whose
// mean matches RateMbps, for DurationS.
type poissonSource struct {
	model   Model
	rng     *rand.Rand
	elapsed time.Duration
}

func (s *poissonSource) Kind() string { return Poisson }

func (s *poissonSource) Next() (time.Duration, int, bool) {
	mean := s.model.interval()
	wait := time.Duration(s.rng.ExpFloat64() * float64(mean))
	if s.elapsed+wait > time.Duration(s.model.DurationS*float64(time.Second)) {
		return 0, 0, false
	}
	s.elapsed += wait
	return wait, s.model.PacketBytes, true
}

// onoffSource alternates exponential ON bursts of CBR traffic with
// exponential OFF silences, for DurationS of total (on + off) time.
type onoffSource struct {
	model    Model
	rng      *rand.Rand
	elapsed  time.Duration // total time consumed, on + off
	burnLeft time.Duration // remaining ON time of the current burst
	started  bool
}

func (s *onoffSource) Kind() string { return OnOff }

func (s *onoffSource) Next() (time.Duration, int, bool) {
	iv := s.model.interval()
	bound := time.Duration(s.model.DurationS * float64(time.Second))
	var wait time.Duration
	if !s.started {
		s.started = true
		s.burnLeft = time.Duration(s.rng.ExpFloat64() * s.model.MeanOnS * float64(time.Second))
	}
	// Walk off-periods until the next packet fits inside an ON burst. The
	// duration bound is checked inside the walk: with MeanOnS far below
	// the packet interval, bursts long enough to carry a packet are
	// astronomically rare draws, and only the bound keeps Next finite.
	for s.burnLeft < iv {
		wait += s.burnLeft // tail of the dying burst passes in silence
		wait += time.Duration(s.rng.ExpFloat64() * s.model.MeanOffS * float64(time.Second))
		s.burnLeft = time.Duration(s.rng.ExpFloat64() * s.model.MeanOnS * float64(time.Second))
		if s.elapsed+wait > bound {
			return 0, 0, false
		}
	}
	wait += iv
	s.burnLeft -= iv
	if s.elapsed+wait > bound {
		return 0, 0, false
	}
	s.elapsed += wait
	return wait, s.model.PacketBytes, true
}

// Event is one materialized chunk of a source's schedule, at a cumulative
// offset from the flow's start.
type Event struct {
	At    time.Duration
	Bytes int
}

// Events drains up to max chunks of src into a cumulative-time schedule —
// the materialized form the property tests compare across seeds, step
// sizes and goroutines.
func Events(src Source, max int) []Event {
	var out []Event
	var at time.Duration
	for len(out) < max {
		wait, bytes, ok := src.Next()
		if !ok {
			break
		}
		at += wait
		out = append(out, Event{At: at, Bytes: bytes})
	}
	return out
}

// DeriveSeed maps (base seed, key) to a decoupled per-flow seed: FNV-1a
// over the key mixed with the base through a splitmix64 finalizer. It is a
// pure function, so the random stream a flow gets never depends on worker
// count or completion order — only on the base seed and the flow's
// identity. internal/runner re-exports it for per-run seeds.
func DeriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := uint64(base) ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}
