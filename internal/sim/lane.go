package sim

import (
	"fmt"
	"math"
	"time"
)

// Lane is a FIFO of events each scheduled one fixed delay after Now. Its
// events come out in (at, seq) order by construction (see the package
// comment), so the lane is a ring with no sifting: scheduling appends at
// the tail and the scheduler pops the head whenever it is the earliest
// pending event. Lane events share the scheduler's clock, seq counter and
// Timer API with heap events.
type Lane struct {
	// at and seq are the head entry's key, kept here so the scheduler's
	// per-event scan reads no ring; an empty lane holds (maxTime,
	// maxSeq), which sorts after every event.
	at  Time
	seq uint64
	// buf is the ring; its length is a power of two and mask is length-1.
	// head and tail are absolute indices that wrap with uint32 arithmetic,
	// the live window is [head, tail), and an entry sits at buf[i&mask].
	// Like a slab generation, an index is reused only after 2^32 pushes.
	// The head entry is never a tombstone: stop and pop drop dead entries
	// that reach it.
	head, tail uint32
	mask       uint32
	buf        []laneEntry
	s          *Scheduler
	d          time.Duration
	// id is ^(index in s.lanes), always negative: it is the slot field of
	// this lane's Timer handles, which tells them apart from slab slots.
	id int32
}

// maxTime and maxSeq form the key of an empty lane.
const (
	maxTime = Time(math.MaxInt64)
	maxSeq  = uint64(math.MaxUint64)
)

// laneEntry is one lane event: its ordering key and its callback, which is
// nil once the event is stopped (a tombstone).
type laneEntry struct {
	at  Time
	seq uint64
	fn  func()
}

// Lane returns the scheduler's lane for delay d, creating it on first use;
// every call with the same d returns the same lane. Components look their
// lanes up once, at construction, and schedule through them afterwards.
func (s *Scheduler) Lane(d time.Duration) *Lane {
	if d < 0 {
		panic(fmt.Sprintf("sim: lane with negative delay %v", d))
	}
	for _, l := range s.lanes {
		if l.d == d {
			return l
		}
	}
	l := &Lane{at: maxTime, seq: maxSeq, s: s, d: d, id: ^int32(len(s.lanes))}
	if s.lanes == nil {
		// Room for the MAC's three lanes (slot, DIFS, SIFS) in one
		// allocation: every short chain run builds its own scheduler.
		s.lanes = make([]*Lane, 0, 4)
	}
	s.lanes = append(s.lanes, l)
	return l
}

// After schedules fn to run the lane's delay from now. It behaves exactly
// like Scheduler.After with that delay: the event takes the next seq and
// fires in the same (at, seq) order. A lane event can never be in the
// past, so what only labels the panic a nil fn raises (a nil callback
// would otherwise pass for a tombstone).
func (l *Lane) After(what string, fn func()) Timer {
	if fn == nil {
		panic(fmt.Sprintf("sim: lane event %q has a nil callback", what))
	}
	if l.tail-l.head == uint32(len(l.buf)) {
		l.grow()
	}
	s := l.s
	k := l.tail
	at := s.now + l.d
	l.buf[k&l.mask] = laneEntry{at: at, seq: s.seq, fn: fn}
	if k == l.head {
		l.at, l.seq = at, s.seq
	}
	s.seq++
	l.tail++
	s.laneLive++
	return Timer{s: s, slot: l.id, gen: k}
}

// grow doubles the ring, from 8 entries: a short chain run's lanes hold a
// few entries each, and a mesh's grow with the stations contending at
// once. Entries keep their absolute indices, so outstanding Timer handles
// stay valid.
func (l *Lane) grow() {
	n := max(2*len(l.buf), 8)
	buf := make([]laneEntry, n)
	mask := uint32(n - 1)
	for k := l.head; k != l.tail; k++ {
		buf[k&mask] = l.buf[k&l.mask]
	}
	l.buf, l.mask = buf, mask
}

// entry returns the live entry at absolute index k, or nil when k has
// fired, was stopped, or lies outside the window.
func (l *Lane) entry(k uint32) *laneEntry {
	if k-l.head >= l.tail-l.head {
		return nil
	}
	e := &l.buf[k&l.mask]
	if e.fn == nil {
		return nil
	}
	return e
}

// stop tombstones the event at absolute index k and reports whether it was
// pending.
func (l *Lane) stop(k uint32) bool {
	e := l.entry(k)
	if e == nil {
		return false
	}
	e.fn = nil
	l.s.laneLive--
	if k == l.head {
		l.trim()
	}
	return true
}

// pop removes the head event and returns its callback.
func (l *Lane) pop() func() {
	e := &l.buf[l.head&l.mask]
	fn := e.fn
	e.fn = nil
	l.head++
	l.s.laneLive--
	l.trim()
	return fn
}

// trim drops tombstones from the head, restoring the invariant that the
// head entry is live, and records the new head's key. Every entry ahead
// of a tombstone is due no later than it, so a tombstone is gone by its
// own deadline.
func (l *Lane) trim() {
	for ; l.head != l.tail; l.head++ {
		if e := &l.buf[l.head&l.mask]; e.fn != nil {
			l.at, l.seq = e.at, e.seq
			return
		}
	}
	l.at, l.seq = maxTime, maxSeq
}
