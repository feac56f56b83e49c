package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// refScheduler is the reference model the property and fuzz tests hold the
// scheduler to: every pending event in a slice, the next one found by a
// linear scan for the smallest (at, seq). It knows nothing of heaps, lanes
// or tombstones.
type refScheduler struct {
	now  Time
	seq  uint64
	pend []refEvent
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (r *refScheduler) add(at Time, id int) {
	r.pend = append(r.pend, refEvent{at: at, seq: r.seq, id: id})
	r.seq++
}

func (r *refScheduler) stop(id int) bool {
	for i, e := range r.pend {
		if e.id == id {
			r.pend = slices.Delete(r.pend, i, i+1)
			return true
		}
	}
	return false
}

func (r *refScheduler) pending(id int) bool {
	return slices.ContainsFunc(r.pend, func(e refEvent) bool { return e.id == id })
}

// next returns the index of the earliest pending event, or -1.
func (r *refScheduler) next() int {
	best := -1
	for i, e := range r.pend {
		if best < 0 || e.at < r.pend[best].at || (e.at == r.pend[best].at && e.seq < r.pend[best].seq) {
			best = i
		}
	}
	return best
}

// pop removes the earliest event, moves the clock to it and returns its id.
func (r *refScheduler) pop() (int, bool) {
	i := r.next()
	if i < 0 {
		return 0, false
	}
	e := r.pend[i]
	r.pend = slices.Delete(r.pend, i, i+1)
	r.now = e.at
	return e.id, true
}

// schedPair drives a Scheduler and the reference model with the same
// operations and checks, after each, that both fired the same events in
// the same order and agree on the clock, Pending and PeekTime. Event ids
// are the order of scheduling.
type schedPair struct {
	s      *Scheduler
	ref    refScheduler
	lanes  []*Lane
	timers []Timer
	fired  []int // ids in the order the scheduler ran them
	want   []int // ids in the order the model ran them
}

// pairLaneDelays are the test lanes' delays. Two of them are equal to
// delays the heap side draws too, so lane and heap events tie.
var pairLaneDelays = []time.Duration{9 * time.Microsecond, 10 * time.Microsecond, 0, 50 * time.Microsecond}

func newSchedPair() *schedPair {
	p := &schedPair{s: NewScheduler(1)}
	for _, d := range pairLaneDelays {
		p.lanes = append(p.lanes, p.s.Lane(d))
	}
	return p
}

func (p *schedPair) fn(id int) func() {
	return func() { p.fired = append(p.fired, id) }
}

// at schedules a heap event at absolute time at (clamped to now).
func (p *schedPair) at(at Time) int {
	at = max(at, p.s.Now())
	id := len(p.timers)
	p.timers = append(p.timers, p.s.At(at, "heap", p.fn(id)))
	p.ref.add(at, id)
	return id
}

func (p *schedPair) after(d time.Duration) int { return p.at(p.s.Now() + d) }

// laneAfter schedules an event on lane i (mod the lane count).
func (p *schedPair) laneAfter(i int) int {
	i %= len(p.lanes)
	id := len(p.timers)
	p.timers = append(p.timers, p.lanes[i].After("lane", p.fn(id)))
	p.ref.add(p.s.Now()+pairLaneDelays[i], id)
	return id
}

// stop stops the timer with id k (mod the ids issued so far).
func (p *schedPair) stop(k int) error {
	if len(p.timers) == 0 {
		return nil
	}
	id := k % len(p.timers)
	if got, want := p.timers[id].Pending(), p.ref.pending(id); got != want {
		return fmt.Errorf("timer %d: Pending = %v, model %v", id, got, want)
	}
	if got, want := p.timers[id].Stop(), p.ref.stop(id); got != want {
		return fmt.Errorf("timer %d: Stop = %v, model %v", id, got, want)
	}
	if p.timers[id].Pending() {
		return fmt.Errorf("timer %d pending after Stop", id)
	}
	return nil
}

func (p *schedPair) step() {
	p.s.Step()
	if id, ok := p.ref.pop(); ok {
		p.want = append(p.want, id)
	}
}

func (p *schedPair) runUntil(end Time) {
	p.s.RunUntil(end)
	for i := p.ref.next(); i >= 0 && p.ref.pend[i].at <= end; i = p.ref.next() {
		id, _ := p.ref.pop()
		p.want = append(p.want, id)
	}
	p.ref.now = max(p.ref.now, end)
}

// advanceTo moves both clocks to t, clamped to at most the next event so
// no event is left in the past (the shard engine's contract).
func (p *schedPair) advanceTo(t Time) {
	if i := p.ref.next(); i >= 0 {
		t = min(t, p.ref.pend[i].at)
	}
	t = max(t, p.s.Now())
	p.s.AdvanceTo(t)
	p.ref.now = t
}

func (p *schedPair) drain() {
	for len(p.ref.pend) > 0 {
		p.step()
	}
	p.s.Run()
}

// check compares the scheduler with the model.
func (p *schedPair) check() error {
	if !slices.Equal(p.fired, p.want) {
		return fmt.Errorf("fired %v, model %v", p.fired, p.want)
	}
	if p.s.Now() != p.ref.now {
		return fmt.Errorf("Now = %v, model %v", p.s.Now(), p.ref.now)
	}
	if got, want := p.s.Pending(), len(p.ref.pend); got != want {
		return fmt.Errorf("Pending = %d, model %d", got, want)
	}
	if _, _, pending := p.s.PoolStats(); pending != len(p.ref.pend) {
		return fmt.Errorf("PoolStats pending = %d, model %d", pending, len(p.ref.pend))
	}
	at, ok := p.s.PeekTime()
	i := p.ref.next()
	if ok != (i >= 0) || (ok && at != p.ref.pend[i].at) {
		return fmt.Errorf("PeekTime = %v,%v; model has %d pending", at, ok, len(p.ref.pend))
	}
	return nil
}

// FuzzScheduler decodes scheduler operations from the fuzz bytes (At,
// After, lane After, Stop, Step, RunUntil, AdvanceTo; two bytes each) and
// checks the fired order, the clock and Pending against the reference
// model after every operation, then after a final drain.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 9, 2, 0, 2, 1, 4, 0, 4, 0})
	f.Add([]byte{2, 0, 1, 9, 2, 2, 3, 0, 4, 0, 5, 20, 6, 3, 2, 1, 4, 0})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 3, 1, 3, 0, 3, 2, 4, 0, 4, 0, 4, 0})
	f.Add([]byte{1, 50, 2, 3, 6, 40, 2, 3, 5, 255, 2, 1, 1, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		p := newSchedPair()
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%7, int(data[i+1])
			switch op {
			case 0:
				p.at(p.s.Now() + Time(arg)*time.Microsecond)
			case 1:
				p.after(Time(arg%16) * time.Microsecond)
			case 2:
				p.laneAfter(arg)
			case 3:
				if err := p.stop(arg); err != nil {
					t.Fatalf("op %d: %v", i/2, err)
				}
			case 4:
				p.step()
			case 5:
				p.runUntil(p.s.Now() + Time(arg)*time.Microsecond)
			case 6:
				p.advanceTo(p.s.Now() + Time(arg)*time.Microsecond)
			}
			if err := p.check(); err != nil {
				t.Fatalf("after op %d (%d,%d): %v", i/2, op, arg, err)
			}
		}
		p.drain()
		if err := p.check(); err != nil {
			t.Fatalf("after drain: %v", err)
		}
	})
}
