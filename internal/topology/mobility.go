// Mobility models: time-stepped node-position processes that turn the
// static mesh generators into mobile scenarios. A model owns every node's
// position and advances it to any simulated instant on demand; the mesh's
// UpdateLinks then reconciles the medium's connectivity and per-link SNR
// with the new distances through the incremental SetConnected/SetSNR
// paths, so the topology becomes a function of time without ever paying an
// all-pairs O(N²) rescan on the hot path.
//
// Both models are seeded and fully deterministic: the same (seed, config)
// replays the same trajectories. The random streams are derived from the
// seed but decoupled from the simulation's RNG and the placement
// generator's stream, so enabling mobility never perturbs backoff or
// error draws of an otherwise-identical run.
package topology

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Mobility model names (core.MeshTCPConfig.Mobility / aggsim -mobility).
const (
	MobilityWaypoint = "waypoint"
	MobilityDrift    = "drift"
)

// Model is a seeded node-position process. Step advances the process to
// the absolute simulated time now (calls must use non-decreasing now) and
// returns every node's position. The returned slice is the model's live
// state: callers must treat it as read-only and must not retain it across
// steps.
type Model interface {
	Step(now time.Duration) []Point
}

// NewMobility builds the named model over the mesh's current node
// positions and area. speed is in units of nominal node spacing per
// simulated second (<= 0 selects 1); pause applies to the waypoint model
// only.
func NewMobility(kind string, m *Mesh, speed float64, pause time.Duration, seed int64) (Model, error) {
	switch kind {
	case MobilityWaypoint:
		return NewRandomWaypoint(m.Pos, m.Extent, speed, pause, seed), nil
	case MobilityDrift:
		return NewLinearDrift(m.Pos, m.Extent, speed, seed), nil
	}
	return nil, fmt.Errorf("topology: unknown mobility model %q (%s|%s)", kind, MobilityWaypoint, MobilityDrift)
}

// mobilitySeed derives the per-stream seed for node i (or -1 for a
// model-wide stream): the base seed mixed with the index through a
// splitmix64 finalizer, decoupled from the simulation and placement
// streams.
func mobilitySeed(seed int64, i int) int64 {
	x := uint64(seed) ^ 0x6d6f62696c697479 // "mobility"
	x += uint64(int64(i)+2) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// RandomWaypoint is the classic random-waypoint process: each node picks a
// uniform target inside the area, travels toward it in a straight line at
// the model speed, dwells there for the pause time, then repeats. Every
// node owns a private random stream derived from (seed, index), so one
// node's trajectory never depends on the others' arrival times — and the
// target sequence is independent of how Step calls partition time.
type RandomWaypoint struct {
	pos    []Point
	extent Point
	speed  float64
	pause  float64 // seconds of dwell per arrival
	now    time.Duration

	rng       []*rand.Rand
	target    []Point
	pauseLeft []float64 // seconds of dwell remaining per node
}

// NewRandomWaypoint builds the process over a copy of the given starting
// positions (the caller's slice is never mutated), roaming the
// [0,extent.X]×[0,extent.Y] area.
func NewRandomWaypoint(start []Point, extent Point, speed float64, pause time.Duration, seed int64) *RandomWaypoint {
	if speed <= 0 {
		speed = 1
	}
	if pause < 0 {
		pause = 0
	}
	w := &RandomWaypoint{
		pos:       append([]Point(nil), start...),
		extent:    extent,
		speed:     speed,
		pause:     pause.Seconds(),
		rng:       make([]*rand.Rand, len(start)),
		target:    make([]Point, len(start)),
		pauseLeft: make([]float64, len(start)),
	}
	for i := range start {
		w.rng[i] = rand.New(rand.NewSource(mobilitySeed(seed, i)))
		w.target[i] = w.draw(i)
	}
	return w
}

func (w *RandomWaypoint) draw(i int) Point {
	return Point{X: w.rng[i].Float64() * w.extent.X, Y: w.rng[i].Float64() * w.extent.Y}
}

// Step advances every node to time now. Each node is simulated exactly leg
// by leg (pause, travel, arrival, redraw), so trajectories do not depend
// on the tick interval beyond float rounding.
func (w *RandomWaypoint) Step(now time.Duration) []Point {
	dt := (now - w.now).Seconds()
	w.now = now
	if dt <= 0 {
		return w.pos
	}
	for i := range w.pos {
		left := dt
		// The leg cap only guards degenerate zero-area layouts (every
		// target equals the position and pause is zero) from spinning.
		for legs := 0; left > 1e-12 && legs < 4096; legs++ {
			if w.pauseLeft[i] > 0 {
				c := math.Min(w.pauseLeft[i], left)
				w.pauseLeft[i] -= c
				left -= c
				continue
			}
			d := w.pos[i].dist(w.target[i])
			if travel := w.speed * left; travel < d {
				f := travel / d
				w.pos[i].X += (w.target[i].X - w.pos[i].X) * f
				w.pos[i].Y += (w.target[i].Y - w.pos[i].Y) * f
				break
			}
			w.pos[i] = w.target[i]
			left -= d / w.speed
			w.target[i] = w.draw(i)
			w.pauseLeft[i] = w.pause
		}
	}
	return w.pos
}

// LinearDrift moves every node along a fixed heading at constant speed,
// reflecting off the area boundary (a deterministic billiard). Headings
// are drawn once from the seed at construction; after that positions are a
// closed-form function of time, so trajectories are bit-identical no
// matter how often Step is called.
type LinearDrift struct {
	origin []Point
	vel    []Point // units per second
	pos    []Point
	extent Point
}

// NewLinearDrift builds the process over a copy of the given starting
// positions (the caller's slice is never mutated), bouncing inside the
// [0,extent.X]×[0,extent.Y] area.
func NewLinearDrift(start []Point, extent Point, speed float64, seed int64) *LinearDrift {
	if speed <= 0 {
		speed = 1
	}
	d := &LinearDrift{
		origin: append([]Point(nil), start...),
		vel:    make([]Point, len(start)),
		pos:    append([]Point(nil), start...),
		extent: extent,
	}
	rng := rand.New(rand.NewSource(mobilitySeed(seed, -1)))
	for i := range d.vel {
		a := 2 * math.Pi * rng.Float64()
		d.vel[i] = Point{X: speed * math.Cos(a), Y: speed * math.Sin(a)}
	}
	return d
}

// reflect1 folds x into [0, w] as a billiard reflection (period 2w). A
// zero-width dimension collapses to 0.
func reflect1(x, w float64) float64 {
	if w <= 0 {
		return 0
	}
	x = math.Mod(x, 2*w)
	if x < 0 {
		x += 2 * w
	}
	if x > w {
		x = 2*w - x
	}
	return x
}

// Step places every node at its closed-form position for time now.
func (d *LinearDrift) Step(now time.Duration) []Point {
	t := now.Seconds()
	for i := range d.pos {
		d.pos[i] = Point{
			X: reflect1(d.origin[i].X+d.vel[i].X*t, d.extent.X),
			Y: reflect1(d.origin[i].Y+d.vel[i].Y*t, d.extent.Y),
		}
	}
	return d.pos
}
