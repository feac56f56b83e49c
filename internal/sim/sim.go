// Package sim provides the discrete-event simulation engine that all other
// subsystems run on: a virtual clock, an event queue with deterministic
// ordering, cancellable timers, and a seeded random source.
//
// All simulated components share one *Scheduler. Events scheduled for the
// same instant fire in the order they were scheduled (FIFO), which keeps
// runs fully deterministic for a given seed.
//
// Pending events live in two kinds of queue. The heap holds events at
// arbitrary deadlines: a 4-ary heap whose entries carry their (at, seq)
// keys inline, so sifting compares contiguous memory and touches the event
// slab only to record positions. A lane (Scheduler.Lane) holds events
// scheduled one fixed delay d after Now, such as the MAC's slot and
// interframe-space timers. Because the clock never runs backwards and seq
// only grows, each new lane event sorts after every event already in its
// lane, so a lane is a plain FIFO ring and its order costs nothing to keep.
// Step, RunUntil and PeekTime take the smallest (at, seq) among the heap
// top and the lane heads: the same total order a single heap would give,
// so adding lanes changes no pop sequence, seq assignment or EventsRun.
//
// The event core is allocation-free in steady state: heap events live in a
// slab recycled through a free list, lane rings keep their high-water
// capacity, and Timer handles are generation-stamped values. Scheduling,
// firing and cancelling events never touches the heap allocator once the
// slab and the rings have grown to the run's high-water mark.
// Timer.Stop removes a heap event from the heap immediately. A stopped
// lane event becomes a tombstone in its ring entry, dropped when it
// reaches the lane's head, so it lives at most one lane delay; it is never
// counted as pending, so Pending is exact either way.
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
// gen so stale Timer handles can never cancel its next occupant. Its
// deadline lives in the queue entry, not here.
type event struct {
	fn  func()
	gen uint32
	pos int32 // index into Scheduler.queue, -1 when not queued
}

// entry is one queue element: the event's ordering key held inline, so a
// sift compares neighbouring entries instead of chasing slab slots.
type entry struct {
	at   Time
	seq  uint64 // tie-break: FIFO among equal times
	slot int32
}

// before orders entries by (at, seq). The order is total (seq is unique),
// so any heap arity yields the same pop sequence.
func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Timer is a handle to a scheduled event that can be cancelled. It is a
// small value (no allocation per timer); the zero Timer is valid and behaves
// like one that already fired. A heap event's handle names its slab slot
// and the slot's generation; a lane event's handle names its lane (as a
// negative slot, see Lane.id) and its absolute index in the lane's ring.
type Timer struct {
	s    *Scheduler
	slot int32
	gen  uint32
}

// Stop cancels the timer: a heap event leaves the heap and recycles its
// slot at once, a lane event becomes a tombstone. It reports whether the
// timer was still pending (false if it already fired or was already
// stopped).
func (t Timer) Stop() bool {
	s := t.s
	if s == nil {
		return false
	}
	if t.slot < 0 {
		return s.lanes[^t.slot].stop(t.gen)
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
	if t.slot < 0 {
		return t.s.lanes[^t.slot].entry(t.gen) != nil
	}
	ev := &t.s.events[t.slot]
	return ev.gen == t.gen && ev.pos >= 0
}

// Scheduler owns the virtual clock and the pending-event queues.
type Scheduler struct {
	now      Time
	events   []event // slab; grows to the high-water mark, then stable
	queue    []entry // 4-ary min-heap ordered by (at, seq)
	free     []int32 // recycled slots
	lanes    []*Lane // fixed-delay FIFOs, at most one per delay
	laneLive int     // live (not stopped) events over all lanes
	seq      uint64
	rng      *rand.Rand
	ran      uint64
	halted   bool
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

// Pending returns the number of events currently queued. Stopped timers
// never count (lane tombstones included), so the count is exact.
func (s *Scheduler) Pending() int { return len(s.queue) + s.laneLive }

// PoolStats reports the event core's occupancy: slots is the event storage
// held (the slab's high-water mark plus every lane ring's capacity), free
// the slab slots and ring entries available for reuse, and pending the
// live events queued. Lane tombstones are the remainder, slots - free -
// pending. The telemetry layer samples these as the event-pool occupancy
// gauges.
func (s *Scheduler) PoolStats() (slots, free, pending int) {
	slots, free = len(s.events), len(s.free)
	for _, l := range s.lanes {
		slots += len(l.buf)
		free += len(l.buf) - int(l.tail-l.head)
	}
	return slots, free, s.Pending()
}

// At schedules fn to run at absolute time at. Scheduling in the past panics:
// that is always a simulation bug, never a recoverable condition. what
// labels the event in that panic's message.
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
	ev.fn = fn
	i := len(s.queue)
	s.queue = append(s.queue, entry{at: at, seq: s.seq, slot: slot})
	s.seq++
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

// PeekTime returns the deadline of the earliest pending event, heap or
// lane, without executing it. ok is false when nothing is pending.
func (s *Scheduler) PeekTime() (at Time, ok bool) {
	_, at, ok = s.next()
	return at, ok
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
	l, at, ok := s.next()
	if ok {
		s.fire(l, at)
	}
	return ok
}

// next finds the earliest pending event by (at, seq): the head of lane l,
// or the heap top when l is nil. ok is false when nothing is pending.
// Each lane keeps its live head's key inline (an empty lane's sorts
// last), so each queue costs one comparison.
func (s *Scheduler) next() (l *Lane, at Time, ok bool) {
	at, seq := maxTime, maxSeq
	if len(s.queue) > 0 {
		at, seq, ok = s.queue[0].at, s.queue[0].seq, true
	}
	for _, c := range s.lanes {
		if c.at < at || (c.at == at && c.seq < seq) {
			l, at, seq = c, c.at, c.seq
		}
	}
	return l, at, ok || l != nil
}

// fire dequeues the event next found (lane l's head, or the heap top when
// l is nil), advances the clock to its deadline at and runs it.
func (s *Scheduler) fire(l *Lane, at Time) {
	var fn func()
	if l != nil {
		fn = l.pop()
	} else {
		slot := s.queue[0].slot
		s.removeAt(0)
		fn = s.events[slot].fn
		s.release(slot)
	}
	s.now = at
	s.ran++
	fn()
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
		l, at, ok := s.next()
		if !ok || at > end {
			break
		}
		s.fire(l, at)
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
	ev.pos = -1
	s.free = append(s.free, slot)
}

// siftUp restores the heap above position i.
func (s *Scheduler) siftUp(i int) {
	q := s.queue
	e := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		s.events[q[i].slot].pos = int32(i)
		i = p
	}
	q[i] = e
	s.events[e.slot].pos = int32(i)
}

// siftDown restores the heap below position i.
func (s *Scheduler) siftDown(i int) {
	q := s.queue
	n := len(q)
	e := q[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[best]) {
				best = j
			}
		}
		if !q[best].before(&e) {
			break
		}
		q[i] = q[best]
		s.events[q[i].slot].pos = int32(i)
		i = best
	}
	q[i] = e
	s.events[e.slot].pos = int32(i)
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
	s.events[last.slot].pos = int32(i)
	s.siftDown(i)
	if s.queue[i].slot == last.slot {
		s.siftUp(i)
	}
}
