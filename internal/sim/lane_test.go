package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestLaneOnePerDelay(t *testing.T) {
	s := NewScheduler(1)
	a, b := s.Lane(9*time.Microsecond), s.Lane(10*time.Microsecond)
	if a == b {
		t.Fatal("different delays share a lane")
	}
	if s.Lane(9*time.Microsecond) != a {
		t.Fatal("the same delay returned a second lane")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a negative lane delay did not panic")
		}
	}()
	s.Lane(-time.Microsecond)
}

// A lane event and a heap event due at the same instant fire in seq order:
// whichever was scheduled first fires first, as with two heap events.
func TestLaneHeapTieFiresInSeqOrder(t *testing.T) {
	for _, laneFirst := range []bool{true, false} {
		s := NewScheduler(1)
		l := s.Lane(9 * time.Microsecond)
		var got []string
		lane := func() { l.After("lane", func() { got = append(got, "lane") }) }
		heap := func() { s.After(9*time.Microsecond, "heap", func() { got = append(got, "heap") }) }
		want := []string{"heap", "lane"}
		if laneFirst {
			lane()
			heap()
			want = []string{"lane", "heap"}
		} else {
			heap()
			lane()
		}
		s.Run()
		if !slices.Equal(got, want) || s.Now() != 9*time.Microsecond {
			t.Fatalf("laneFirst=%v: fired %v at %v, want %v at 9µs", laneFirst, got, s.Now(), want)
		}
	}
	// Two lanes meeting at one instant: the earlier-scheduled event wins
	// even though its lane's delay is longer.
	s := NewScheduler(1)
	long, short := s.Lane(10*time.Microsecond), s.Lane(5*time.Microsecond)
	var got []string
	long.After("long", func() { got = append(got, "long") })
	s.At(5*time.Microsecond, "mid", func() {
		short.After("short", func() { got = append(got, "short") })
	})
	s.Run()
	if !slices.Equal(got, []string{"long", "short"}) {
		t.Fatalf("fired %v, want [long short]", got)
	}
}

// PeekTime, RunUntil and AdvanceTo see lane heads: the shard engine peeks
// and advances each shard's scheduler between its windows.
func TestLaneHeadsVisibleToPeekRunUntilAdvance(t *testing.T) {
	s := NewScheduler(1)
	l := s.Lane(3 * time.Microsecond)
	var got []Time
	rec := func() { got = append(got, s.Now()) }
	s.At(10*time.Microsecond, "heap", rec)
	l.After("lane", rec)
	if at, ok := s.PeekTime(); !ok || at != 3*time.Microsecond {
		t.Fatalf("PeekTime = %v,%v, want the lane head at 3µs", at, ok)
	}
	s.RunUntil(2 * time.Microsecond)
	if len(got) != 0 || s.Now() != 2*time.Microsecond {
		t.Fatalf("RunUntil(2µs) fired %v, now %v", got, s.Now())
	}
	l.After("lane", rec) // due at 5µs
	s.RunUntil(4 * time.Microsecond)
	if !slices.Equal(got, []Time{3 * time.Microsecond}) {
		t.Fatalf("RunUntil(4µs) fired at %v, want [3µs]", got)
	}
	s.AdvanceTo(5 * time.Microsecond)
	l.After("lane", rec) // due at 8µs: the delay counts from the advanced clock
	if at, _ := s.PeekTime(); at != 5*time.Microsecond {
		t.Fatalf("PeekTime = %v, want 5µs", at)
	}
	s.RunUntil(20 * time.Microsecond)
	want := []Time{3 * time.Microsecond, 5 * time.Microsecond, 8 * time.Microsecond, 10 * time.Microsecond}
	if !slices.Equal(got, want) || s.Pending() != 0 {
		t.Fatalf("fired at %v with %d pending, want %v", got, s.Pending(), want)
	}
	if _, ok := s.PeekTime(); ok {
		t.Fatal("PeekTime reports an event on an empty scheduler")
	}
}

// The shard engine runs lane events inside its windows: a boundary event
// staged at a lane head's instant runs first, and lane events beyond the
// deadline stay queued.
func TestShardEngineRunsLaneEvents(t *testing.T) {
	scheds := []*Scheduler{NewScheduler(1), NewScheduler(2)}
	e := NewShardEngine(scheds, testLook)
	e.Connect(0, 1)
	l := scheds[1].Lane(testLook)
	var log []string
	scheds[1].At(0, "arm", func() {
		l.After("lane", func() {
			log = append(log, "lane")
			l.After("late", func() { t.Error("lane event beyond the deadline executed") })
		})
	})
	scheds[0].At(0, "post", func() {
		e.Post(0, 1, testLook, func() { log = append(log, "boundary") })
	})
	e.Run(testLook + testLook/2)
	if !slices.Equal(log, []string{"boundary", "lane"}) {
		t.Fatalf("log = %v, want [boundary lane]", log)
	}
	if scheds[1].Pending() != 1 || scheds[1].Now() != testLook+testLook/2 {
		t.Fatalf("shard 1: %d pending at %v, want 1 at the deadline", scheds[1].Pending(), scheds[1].Now())
	}
}

// Stopped lane events are tombstones: never counted as pending, reported
// by PoolStats as neither free nor pending, and gone from the ring once the
// head passes them, so the ring stays at its high-water size under churn.
func TestLaneTombstonesExactAndBounded(t *testing.T) {
	s := NewScheduler(1)
	l := s.Lane(10 * time.Microsecond)
	fn := func() {}
	a := l.After("a", fn)
	b := l.After("b", fn)
	c := l.After("c", fn)
	if !b.Stop() || b.Pending() || !a.Pending() || !c.Pending() {
		t.Fatal("Stop on a mid-ring lane event misbehaved")
	}
	slots, free, pending := s.PoolStats()
	if pending != 2 || s.Pending() != 2 || slots-free-pending != 1 {
		t.Fatalf("PoolStats = %d,%d,%d, Pending %d; want 2 pending and 1 tombstone", slots, free, pending, s.Pending())
	}
	if !a.Stop() {
		t.Fatal("Stop on the lane head reported not pending")
	}
	// Stopping the head drops it and the tombstone behind it.
	if slots, free, pending = s.PoolStats(); pending != 1 || slots-free != 1 {
		t.Fatalf("PoolStats = %d,%d,%d; want only c held", slots, free, pending)
	}
	if at, _ := s.PeekTime(); at != 10*time.Microsecond {
		t.Fatalf("PeekTime = %v", at)
	}
	s.Run()
	if c.Pending() || c.Stop() || s.Pending() != 0 {
		t.Fatal("fired lane event still pending")
	}

	// Churn: every station re-arms its slot each step and a fifth are
	// stopped and re-armed. The ring never needs more room than the
	// events scheduled within one lane delay.
	for i := 0; i < 256; i++ {
		l.After("x", fn)
	}
	s.Run()
	high, _, _ := s.PoolStats()
	rng := rand.New(rand.NewSource(1))
	var timers [32]Timer
	for round := 0; round < 2000; round++ {
		for i := range timers {
			if !timers[i].Pending() {
				timers[i] = l.After("slot", fn)
			} else if rng.Intn(5) == 0 {
				timers[i].Stop()
				timers[i] = l.After("slot", fn)
			}
		}
		s.RunUntil(s.Now() + time.Duration(1+rng.Intn(12))*time.Microsecond)
	}
	if slots, _, _ := s.PoolStats(); slots != high {
		t.Fatalf("lane ring grew from %d to %d entries under bounded churn", high, slots)
	}
}

// slotStation is one contender of BenchmarkSchedulerSlotLanes: it counts
// down backoff slots, transmits when the count reaches zero, and restarts
// after DIFS when frozen. slot and difs are nil to schedule through the
// heap instead of lanes.
type slotStation struct {
	s          *Scheduler
	rng        *rand.Rand
	slot, difs *Lane
	left       int
	timer      Timer
	slotFn     func()
	difsFn     func()
	txEndFn    func()
}

const (
	benchSlot = 9 * time.Microsecond
	benchDIFS = 28 * time.Microsecond
)

func (st *slotStation) armSlot() {
	if st.slot != nil {
		st.timer = st.slot.After("slot", st.slotFn)
	} else {
		st.timer = st.s.After(benchSlot, "slot", st.slotFn)
	}
}

func (st *slotStation) armDIFS() {
	if st.difs != nil {
		st.timer = st.difs.After("difs", st.difsFn)
	} else {
		st.timer = st.s.After(benchDIFS, "difs", st.difsFn)
	}
}

func (st *slotStation) onSlot() {
	if st.left--; st.left > 0 {
		st.armSlot()
		return
	}
	st.left = 1 + st.rng.Intn(31)
	air := time.Millisecond + time.Duration(st.rng.Intn(1000))*time.Microsecond
	st.timer = st.s.After(air, "txEnd", st.txEndFn)
}

// buildSlotContention sets up n stations counting down slots, a ticker
// that freezes a handful of them every 100µs (Stop, then restart after
// DIFS), and a few long heap timers that re-arm themselves: the event mix
// of a large mesh run, where idle backoff slots dominate.
func buildSlotContention(n int, lanes bool) *Scheduler {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(1))
	sts := make([]*slotStation, n)
	for i := range sts {
		st := &slotStation{s: s, rng: rng, left: 1 + rng.Intn(31)}
		if lanes {
			st.slot, st.difs = s.Lane(benchSlot), s.Lane(benchDIFS)
		}
		st.slotFn, st.difsFn, st.txEndFn = st.onSlot, st.armSlot, st.armDIFS
		st.armDIFS()
		sts[i] = st
	}
	var freeze func()
	freeze = func() {
		for k := 0; k < 8; k++ {
			if st := sts[rng.Intn(n)]; st.timer.Stop() {
				st.armDIFS()
			}
		}
		s.After(100*time.Microsecond, "freeze", freeze)
	}
	s.After(100*time.Microsecond, "freeze", freeze)
	for k := 0; k < 8; k++ {
		var rto func()
		rto = func() { s.After(time.Duration(10+rng.Intn(190))*time.Millisecond, "rto", rto) }
		rto()
	}
	return s
}

// BenchmarkSchedulerSlotLanes runs the slot-contention workload of 400
// stations, one op per event, with the fixed-delay timers on the heap and
// on lanes.
func BenchmarkSchedulerSlotLanes(b *testing.B) {
	for _, bc := range []struct {
		name  string
		lanes bool
	}{{"heap", false}, {"lanes", true}} {
		b.Run(bc.name, func(b *testing.B) {
			s := buildSlotContention(400, bc.lanes)
			for i := 0; i < 100000; i++ {
				s.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
