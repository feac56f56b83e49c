// Package sim provides the discrete-event simulation engine that all other
// subsystems run on: a virtual clock, an event queue with deterministic
// ordering, cancellable timers, and a seeded random source.
//
// All simulated components share one *Scheduler. Events scheduled for the
// same instant fire in the order they were scheduled (FIFO), which keeps
// runs fully deterministic for a given seed.
//
// The event core is allocation-free in steady state: events live in a slab
// recycled through a free list, the priority queue is a value-based 4-ary
// index heap over slab slots, and Timer handles are generation-stamped
// values — scheduling, firing and cancelling events never touches the heap
// allocator once the slab has grown to the run's high-water mark.
// Timer.Stop removes the event from the queue immediately (no lazy-cancel
// tombstones), so Pending is exact and cancelled slots are reused at once.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is the simulated clock value, measured as an offset from the start of
// the run. It uses time.Duration (nanoseconds) so PHY-level math — samples at
// 2 Msps are 500 ns each — stays exact.
type Time = time.Duration

// event is one slab slot. A slot is queued when pos >= 0; a freed slot bumps
// gen so stale Timer handles can never cancel its next occupant.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among equal times
	fn   func()
	what string // optional label, used in panic messages
	gen  uint32
	pos  int32 // index into Scheduler.queue, -1 when not queued
}

// Timer is a handle to a scheduled event that can be cancelled. It is a
// small value (no allocation per timer); the zero Timer is valid and behaves
// like one that already fired.
type Timer struct {
	s    *Scheduler
	slot int32
	gen  uint32
}

// Stop cancels the timer, removing its event from the queue immediately and
// recycling the slot. It reports whether the timer was still pending (false
// if it already fired or was already stopped).
func (t Timer) Stop() bool {
	s := t.s
	if s == nil {
		return false
	}
	ev := &s.events[t.slot]
	if ev.gen != t.gen || ev.pos < 0 {
		return false
	}
	s.removeAt(int(ev.pos))
	s.release(t.slot)
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t Timer) Pending() bool {
	if t.s == nil {
		return false
	}
	ev := &t.s.events[t.slot]
	return ev.gen == t.gen && ev.pos >= 0
}

// Scheduler owns the virtual clock and the pending-event queue.
type Scheduler struct {
	now    Time
	events []event // slab; grows to the high-water mark, then stable
	queue  []int32 // 4-ary min-heap of slab slots, ordered by (at, seq)
	free   []int32 // recycled slots
	seq    uint64
	rng    *rand.Rand
	ran    uint64
	halted bool

	wallBudget time.Duration // 0: no watchdog
	wallStart  time.Time
}

// WallBudgetError reports a run that exceeded its wall-clock budget. It is
// raised as a panic from Step so a hung simulation fails loudly mid-run;
// the runner's recover converts it into a per-run error, so one
// pathological cell reports instead of stalling a whole sweep.
type WallBudgetError struct {
	// Budget is the configured wall-clock allowance.
	Budget time.Duration
	// SimTime and Events locate how far the run got.
	SimTime Time
	Events  uint64
}

func (e *WallBudgetError) Error() string {
	return fmt.Sprintf("sim: wall-clock budget %v exceeded at simulated %v after %d events",
		e.Budget, e.SimTime, e.Events)
}

// SetWallBudget arms a wall-clock watchdog: once more than d of real time
// elapses (measured from this call), Step panics with a *WallBudgetError.
// The check samples the wall clock every few thousand events, so the
// overhead on healthy runs is negligible and event order is never
// affected — the watchdog only decides whether the run survives, not what
// it computes. d <= 0 disarms.
func (s *Scheduler) SetWallBudget(d time.Duration) {
	s.wallBudget = d
	s.wallStart = time.Now()
}

// NewScheduler returns a scheduler whose random source is seeded with seed.
// The same seed always yields the same run.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// EventsRun returns the number of events executed so far.
func (s *Scheduler) EventsRun() uint64 { return s.ran }

// Pending returns the number of events currently queued. Stopped timers are
// removed immediately, so the count is exact.
func (s *Scheduler) Pending() int { return len(s.queue) }

// PoolStats reports the event core's slab occupancy: slots is the slab's
// high-water mark, free the recycled slots available for reuse, and
// pending the events currently queued. The telemetry layer samples these
// as the event-pool occupancy gauges.
func (s *Scheduler) PoolStats() (slots, free, pending int) {
	return len(s.events), len(s.free), len(s.queue)
}

// At schedules fn to run at absolute time at. Scheduling in the past panics:
// that is always a simulation bug, never a recoverable condition.
func (s *Scheduler) At(at Time, what string, fn func()) Timer {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", what, at, s.now))
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.events = append(s.events, event{})
		slot = int32(len(s.events) - 1)
	}
	ev := &s.events[slot]
	ev.at, ev.seq, ev.fn, ev.what = at, s.seq, fn, what
	s.seq++
	i := len(s.queue)
	s.queue = append(s.queue, slot)
	ev.pos = int32(i)
	s.siftUp(i)
	return Timer{s: s, slot: slot, gen: ev.gen}
}

// After schedules fn to run d from now.
func (s *Scheduler) After(d time.Duration, what string, fn func()) Timer {
	return s.At(s.now+d, what, fn)
}

// Halt stops the run loop after the current event returns.
func (s *Scheduler) Halt() { s.halted = true }

// Halted reports whether Halt has been called since the last Run/RunUntil
// started. The shard engine polls it between events; Run, RunUntil and
// ShardEngine.Run clear it on entry.
func (s *Scheduler) Halted() bool { return s.halted }

// PeekTime returns the deadline of the earliest pending event without
// executing it. ok is false when the queue is empty.
func (s *Scheduler) PeekTime() (at Time, ok bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.events[s.queue[0]].at, true
}

// AdvanceTo moves the clock forward to t without executing anything. The
// shard engine uses it to run externally-staged boundary events at their
// exact timestamps. Moving backwards panics: a boundary event lands at
// least one lookahead after its cause, so it is staged before the window
// that contains it and is never in the local past; a violation is an
// engine bug.
func (s *Scheduler) AdvanceTo(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before now %v", t, s.now))
	}
	s.now = t
}

// Step runs the next pending event, advancing the clock to its deadline.
// It reports false when no events remain.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	slot := s.queue[0]
	s.removeAt(0)
	ev := &s.events[slot]
	at, fn := ev.at, ev.fn
	s.release(slot)
	s.now = at
	s.ran++
	if s.wallBudget > 0 && s.ran&4095 == 0 && time.Since(s.wallStart) > s.wallBudget {
		panic(&WallBudgetError{Budget: s.wallBudget, SimTime: s.now, Events: s.ran})
	}
	fn()
	return true
}

// Run executes events until the queue drains or Halt is called.
func (s *Scheduler) Run() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}

// RunUntil executes events with deadlines <= end, then sets the clock to end.
// Events scheduled beyond end remain queued.
func (s *Scheduler) RunUntil(end Time) {
	s.halted = false
	for !s.halted {
		if len(s.queue) == 0 {
			break
		}
		// Peek: queue[0] is the earliest event.
		if s.events[s.queue[0]].at > end {
			break
		}
		s.Step()
	}
	if s.now < end {
		s.now = end
	}
}

// release recycles a slot: the generation bump invalidates outstanding Timer
// handles, and dropping fn releases the closure for the GC.
func (s *Scheduler) release(slot int32) {
	ev := &s.events[slot]
	ev.gen++
	ev.fn = nil
	ev.what = ""
	ev.pos = -1
	s.free = append(s.free, slot)
}

// less orders two slab slots by (at, seq). The order is total (seq is
// unique), so any heap arity yields the same pop sequence.
func (s *Scheduler) less(a, b int32) bool {
	ea, eb := &s.events[a], &s.events[b]
	return ea.at < eb.at || (ea.at == eb.at && ea.seq < eb.seq)
}

// siftUp restores the heap above position i.
func (s *Scheduler) siftUp(i int) {
	q := s.queue
	slot := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !s.less(slot, q[p]) {
			break
		}
		q[i] = q[p]
		s.events[q[i]].pos = int32(i)
		i = p
	}
	q[i] = slot
	s.events[slot].pos = int32(i)
}

// siftDown restores the heap below position i.
func (s *Scheduler) siftDown(i int) {
	q := s.queue
	n := len(q)
	slot := q[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s.less(q[j], q[best]) {
				best = j
			}
		}
		if !s.less(q[best], slot) {
			break
		}
		q[i] = q[best]
		s.events[q[i]].pos = int32(i)
		i = best
	}
	q[i] = slot
	s.events[slot].pos = int32(i)
}

// removeAt deletes the queue entry at position i, preserving heap order.
func (s *Scheduler) removeAt(i int) {
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue = s.queue[:n]
	if i == n {
		return
	}
	s.queue[i] = last
	s.events[last].pos = int32(i)
	s.siftDown(i)
	if s.queue[i] == last {
		s.siftUp(i)
	}
}
