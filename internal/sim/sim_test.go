package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(30*time.Microsecond, "c", func() { got = append(got, 3) })
	s.After(10*time.Microsecond, "a", func() { got = append(got, 1) })
	s.After(20*time.Microsecond, "b", func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Microsecond {
		t.Fatalf("Now = %v, want 30µs", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, "tie", func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events ran out of order: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var fired []string
	s.After(time.Millisecond, "outer", func() {
		fired = append(fired, "outer")
		s.After(time.Millisecond, "inner", func() { fired = append(fired, "inner") })
	})
	s.Run()
	if len(fired) != 2 || fired[1] != "inner" {
		t.Fatalf("nested scheduling failed: %v", fired)
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("Now = %v, want 2ms", s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	tm := s.After(time.Millisecond, "x", func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before Stop")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if tm.Pending() {
		t.Fatal("timer should not be pending after Stop")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler(1)
	tm := s.After(time.Millisecond, "x", func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
	if tm.Pending() {
		t.Fatal("fired timer should not be pending")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.After(time.Millisecond, "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(0, "past", func() {})
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler(1)
	var fired []string
	s.After(time.Millisecond, "a", func() { fired = append(fired, "a") })
	s.After(3*time.Millisecond, "b", func() { fired = append(fired, "b") })
	s.RunUntil(2 * time.Millisecond)
	if len(fired) != 1 || fired[0] != "a" {
		t.Fatalf("RunUntil fired %v, want [a]", fired)
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("Now = %v, want 2ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("remaining event did not run: %v", fired)
	}
}

// RunUntil must never execute an event past its deadline, even when the
// queue head at the deadline check is a cancelled timer. The lazy-cancel
// scheduler had exactly this bug: Step() reaped tombstones and then ran the
// next live event unconditionally, so a cancelled head with at <= end let
// one event beyond end slip through.
func TestRunUntilStopsAtDeadlineWithCancelledHead(t *testing.T) {
	s := NewScheduler(1)
	tm := s.After(time.Millisecond, "cancelled-head", func() {})
	ran := false
	s.After(5*time.Millisecond, "beyond", func() { ran = true })
	tm.Stop()
	s.RunUntil(2 * time.Millisecond)
	if ran {
		t.Fatal("RunUntil executed an event past its deadline")
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("Now = %v, want 2ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

func TestRunUntilEmptyAdvancesClock(t *testing.T) {
	s := NewScheduler(1)
	s.RunUntil(5 * time.Second)
	if s.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", s.Now())
	}
}

func TestHalt(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	s.After(time.Millisecond, "a", func() { n++; s.Halt() })
	s.After(2*time.Millisecond, "b", func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("Halt did not stop the loop: ran %d events", n)
	}
	s.Run()
	if n != 2 {
		t.Fatalf("second Run did not resume: ran %d events", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		s := NewScheduler(seed)
		var trace []int64
		var step func()
		step = func() {
			trace = append(trace, int64(s.Now()), s.rng.Int63n(1000))
			if len(trace) < 200 {
				s.After(time.Duration(1+s.rng.Intn(100))*time.Microsecond, "step", step)
			}
		}
		s.After(0, "start", step)
		s.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// Property: for any set of delays, heap and lane events mixed, events fire
// in nondecreasing time order, in the reference model's (at, seq) order,
// and the clock ends at the last deadline. Every seventh value first steps
// the clock forward, so lane events land at many instants.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		p := newSchedPair()
		var fireTimes []Time
		var last Time
		for _, d := range delaysRaw {
			if d%7 == 0 {
				p.step()
			}
			if d%3 == 0 {
				p.laneAfter(int(d / 3))
			} else {
				p.after(time.Duration(d%1000) * time.Microsecond)
			}
			last = max(last, p.ref.pend[len(p.ref.pend)-1].at)
		}
		for p.s.Pending() > 0 {
			p.step()
			fireTimes = append(fireTimes, p.s.Now())
		}
		if p.check() != nil || len(p.fired) != len(delaysRaw) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return p.s.Now() == last
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset of timers, heap and lane events
// mixed, means exactly the complement fires, and Pending counts exactly
// the survivors (no lane tombstones).
func TestPropertyCancellation(t *testing.T) {
	f := func(delays []uint8, cancelMask []bool) bool {
		s := NewScheduler(3)
		lanes := []*Lane{s.Lane(9 * time.Microsecond), s.Lane(0), s.Lane(200 * time.Microsecond)}
		fired := make([]bool, len(delays))
		timers := make([]Timer, len(delays))
		for i, d := range delays {
			i := i
			fn := func() { fired[i] = true }
			if d%2 == 0 {
				timers[i] = lanes[int(d/2)%len(lanes)].After("p", fn)
			} else {
				timers[i] = s.After(time.Duration(d)*time.Microsecond, "p", fn)
			}
		}
		cancelled := make([]bool, len(delays))
		live := len(delays)
		for i := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				timers[i].Stop()
				cancelled[i] = true
				live--
			}
		}
		if s.Pending() != live {
			return false
		}
		s.Run()
		for i := range fired {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Stopping a timer must free its queue slot immediately (no lazy-cancel
// tombstones lingering until the deadline).
func TestStopReapsImmediately(t *testing.T) {
	s := NewScheduler(1)
	tms := make([]Timer, 10)
	for i := range tms {
		tms[i] = s.After(time.Duration(i+1)*time.Millisecond, "x", func() {})
	}
	if s.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", s.Pending())
	}
	for i := 0; i < 5; i++ {
		tms[2*i].Stop()
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending after 5 Stops = %d, want 5 (cancelled events must be reaped in place)", s.Pending())
	}
	n := 0
	for s.Step() {
		n++
	}
	if n != 5 {
		t.Fatalf("ran %d events, want 5", n)
	}
}

// A Timer handle from a fired or stopped event must stay inert even after
// its slab slot is reused by a new event (generation stamps).
func TestStaleTimerCannotTouchReusedSlot(t *testing.T) {
	s := NewScheduler(1)
	old := s.After(time.Millisecond, "old", func() {})
	if !old.Stop() {
		t.Fatal("first Stop should succeed")
	}
	ran := false
	fresh := s.After(2*time.Millisecond, "fresh", func() { ran = true })
	if old.Stop() {
		t.Fatal("stale handle stopped the slot's new occupant")
	}
	if old.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if !fresh.Pending() {
		t.Fatal("fresh timer should be pending")
	}
	s.Run()
	if !ran {
		t.Fatal("fresh event did not run")
	}
}

// The zero Timer is valid: Stop and Pending are no-ops.
func TestZeroTimer(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer Stop should report false")
	}
	if tm.Pending() {
		t.Fatal("zero Timer should not be pending")
	}
}

// Steady-state scheduling must not allocate: slots recycle through the free
// list, lane rings keep their capacity, and Timer handles are values.
func TestSteadyStateAllocFree(t *testing.T) {
	s := NewScheduler(1)
	l := s.Lane(2 * time.Microsecond)
	fn := func() {}
	// Prime the slab and the ring.
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Microsecond, "prime", fn)
		l.After("prime", fn)
	}
	for s.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm := s.After(time.Microsecond, "steady", fn)
		_ = tm.Pending()
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %v times per op, want 0", allocs)
	}
	// Lane After, Stop (a tombstone behind a live head) and Step.
	allocs = testing.AllocsPerRun(1000, func() {
		a := l.After("steady", fn)
		b := l.After("steady", fn)
		_ = b.Pending()
		b.Stop()
		s.After(time.Microsecond, "steady", fn)
		s.Step()
		_ = a.Pending()
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state lane schedule+stop+fire allocates %v times per op, want 0", allocs)
	}
	if slots, free, pending := s.PoolStats(); pending != 0 || slots != free {
		t.Fatalf("PoolStats = %d,%d,%d after draining, want every entry free", slots, free, pending)
	}
}

// Property: interleaving heap schedules, lane schedules, cancellations and
// steps at random always pops the survivors in exact (at, seq) order, the
// reference model's, with Pending exact after every operation: the heap
// invariant under Remove and the lane-head merge under tombstones.
func TestPropertyHeapOrderUnderChurn(t *testing.T) {
	f := func(ops []uint16) bool {
		p := newSchedPair()
		for _, op := range ops {
			switch arg := int(op / 6); op % 6 {
			case 0, 1, 2:
				p.after(time.Duration(arg%1000) * time.Microsecond)
			case 3:
				p.laneAfter(arg)
			case 4:
				if p.stop(arg) != nil {
					return false
				}
			case 5:
				p.step()
			}
			if p.check() != nil {
				return false
			}
		}
		p.drain()
		return p.check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, "bench", func() {})
		s.Step()
	}
}

func BenchmarkSchedulerStopChurn(b *testing.B) {
	s := NewScheduler(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm := s.After(time.Microsecond, "bench", fn)
		tm.Stop()
	}
}

// BenchmarkSchedulerDeepChurn is one At plus one Step on a heap held at
// 512 pending events with spread deadlines, the regime of a large mesh run
// where every pop sifts through the heap's full depth.
func BenchmarkSchedulerDeepChurn(b *testing.B) {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(1+rng.Intn(10000)) * time.Microsecond
	}
	fn := func() {}
	for i := 0; i < 512; i++ {
		s.After(delays[i%len(delays)], "bench", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(delays[i%len(delays)], "bench", fn)
		s.Step()
	}
}
