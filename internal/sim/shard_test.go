package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

const testLook = 100 * time.Microsecond

// buildPingMesh wires nShards schedulers in a line (i — i+1) with a
// self-propagating workload: every local event may post boundary events to
// its neighbors, which in turn schedule more local events. Returns the
// engine and per-shard execution logs.
func buildPingMesh(nShards int, seed int64, fanout int) (*ShardEngine, []*Scheduler, [][]string) {
	scheds := make([]*Scheduler, nShards)
	for i := range scheds {
		scheds[i] = NewScheduler(seed + int64(i)*7919)
	}
	e := NewShardEngine(scheds, testLook)
	for i := 0; i+1 < nShards; i++ {
		e.Connect(i, i+1)
	}
	logs := make([][]string, nShards)

	var local func(shard, depth int, tag string) func()
	local = func(shard, depth int, tag string) func() {
		return func() {
			s := scheds[shard]
			logs[shard] = append(logs[shard], fmt.Sprintf("%s@%v", tag, s.Now()))
			if depth <= 0 {
				return
			}
			for f := 0; f < fanout; f++ {
				jitter := Time(s.Rand().Intn(50)) * time.Microsecond
				child := fmt.Sprintf("%s.%d", tag, f)
				if f%2 == 0 || shard == nShards-1 {
					s.After(testLook/2+jitter, child, local(shard, depth-1, child))
					continue
				}
				dst := shard + 1
				at := s.Now() + testLook + jitter
				e.Post(shard, dst, at, func() {
					logs[dst] = append(logs[dst], fmt.Sprintf("x%s@%v", child, scheds[dst].Now()))
					scheds[dst].After(jitter, child, local(dst, depth-1, child))
				})
			}
		}
	}
	for i := range scheds {
		for k := 0; k < 3; k++ {
			tag := fmt.Sprintf("s%d.%d", i, k)
			scheds[i].At(Time(k*30)*time.Microsecond, tag, local(i, 5, tag))
		}
	}
	return e, scheds, logs
}

func runPingMesh(nShards int, seed int64) ([][]string, []uint64) {
	e, scheds, logs := buildPingMesh(nShards, seed, 3)
	e.Run(50 * time.Millisecond)
	ran := make([]uint64, nShards)
	for i, s := range scheds {
		ran[i] = s.EventsRun()
		if s.Now() != 50*time.Millisecond {
			panic(fmt.Sprintf("shard %d clock %v, want deadline", i, s.Now()))
		}
	}
	return logs, ran
}

// TestShardEngineDeterministic proves the engine is schedule-independent:
// identical logs and event counts across repeats and GOMAXPROCS settings.
func TestShardEngineDeterministic(t *testing.T) {
	refLogs, refRan := runPingMesh(4, 42)
	total := 0
	for i, l := range refLogs {
		if len(l) == 0 {
			t.Fatalf("shard %d executed nothing", i)
		}
		total += len(l)
	}
	if total < 100 {
		t.Fatalf("workload too small to be meaningful: %d log entries", total)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			logs, ran := runPingMesh(4, 42)
			for i := range refLogs {
				if len(logs[i]) != len(refLogs[i]) {
					t.Fatalf("GOMAXPROCS=%d rep %d: shard %d ran %d events, want %d",
						procs, rep, i, len(logs[i]), len(refLogs[i]))
				}
				for j := range logs[i] {
					if logs[i][j] != refLogs[i][j] {
						t.Fatalf("GOMAXPROCS=%d rep %d: shard %d event %d = %q, want %q",
							procs, rep, i, j, logs[i][j], refLogs[i][j])
					}
				}
				if ran[i] != refRan[i] {
					t.Fatalf("GOMAXPROCS=%d rep %d: shard %d EventsRun %d, want %d",
						procs, rep, i, ran[i], refRan[i])
				}
			}
		}
	}
}

// TestShardEngineSingleShardMatchesSequential: with one shard the engine
// must reproduce Scheduler.RunUntil exactly, including EventsRun and Halt.
// With several unconnected shards each shard must still match its own
// RunUntil, which pins skip-ahead between windows and the inclusive
// deadline (every shard schedules an event exactly at it).
func TestShardEngineSingleShardMatchesSequential(t *testing.T) {
	const deadline = 10 * time.Millisecond
	build := func(s *Scheduler, log *[]string, haltAt int) {
		n := 0
		var tick func()
		tick = func() {
			n++
			*log = append(*log, fmt.Sprintf("t%d@%v", n, s.Now()))
			if n == haltAt {
				s.Halt()
				return
			}
			d := Time(s.Rand().Intn(200)+1) * time.Microsecond
			s.After(d, "tick", tick)
			s.After(d*2, "tock", func() { *log = append(*log, fmt.Sprintf("o@%v", s.Now())) })
		}
		s.At(0, "tick", tick)
		s.At(deadline, "last", func() { *log = append(*log, fmt.Sprintf("last@%v", s.Now())) })
	}
	for _, tc := range []struct{ shards, haltAt int }{
		{1, 0 /* never: runs to deadline */},
		{1, 25},
		{3, 0},
	} {
		seqS := make([]*Scheduler, tc.shards)
		parS := make([]*Scheduler, tc.shards)
		seqLog := make([][]string, tc.shards)
		parLog := make([][]string, tc.shards)
		for i := range seqS {
			seqS[i] = NewScheduler(7 + int64(i))
			build(seqS[i], &seqLog[i], tc.haltAt)
			seqS[i].RunUntil(deadline)

			parS[i] = NewScheduler(7 + int64(i))
			build(parS[i], &parLog[i], tc.haltAt)
		}
		e := NewShardEngine(parS, testLook)
		e.Run(deadline)

		for k := range seqS {
			name := fmt.Sprintf("shards=%d haltAt=%d shard %d", tc.shards, tc.haltAt, k)
			if len(seqLog[k]) != len(parLog[k]) {
				t.Fatalf("%s: engine log %d entries, sequential %d", name, len(parLog[k]), len(seqLog[k]))
			}
			for i := range seqLog[k] {
				if seqLog[k][i] != parLog[k][i] {
					t.Fatalf("%s: entry %d = %q, want %q", name, i, parLog[k][i], seqLog[k][i])
				}
			}
			if seqS[k].EventsRun() != parS[k].EventsRun() {
				t.Fatalf("%s: EventsRun %d, want %d", name, parS[k].EventsRun(), seqS[k].EventsRun())
			}
			if seqS[k].Now() != parS[k].Now() {
				t.Fatalf("%s: Now %v, want %v", name, parS[k].Now(), seqS[k].Now())
			}
		}
	}
}

// TestShardEnginePanicPropagates: a panic on one shard mid-run ends the
// run at the next barrier, Run re-panics with that same value, and no
// worker goroutine outlives it. Here shard 1's wall-clock watchdog fires,
// the path a runner timeout takes on a sharded run.
func TestShardEnginePanicPropagates(t *testing.T) {
	e, scheds, _ := buildPingMesh(3, 42, 3)
	for _, s := range scheds {
		var tick func()
		tick = func() { s.After(time.Microsecond, "tick", tick) }
		s.At(0, "tick", tick)
	}
	scheds[1].SetWallBudget(time.Nanosecond)

	before := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run(50 * time.Millisecond)
	}()
	wb, ok := got.(*WallBudgetError)
	if !ok {
		t.Fatalf("Run panicked with %#v, want *WallBudgetError", got)
	}
	// The watchdog samples every 4096 events, so the first check is the
	// one that fires; any other value would mean Run re-wrapped the panic.
	if wb.Budget != time.Nanosecond || wb.Events != 4096 {
		t.Fatalf("re-panicked with %+v, want the shard's own error (budget 1ns, 4096 events)", *wb)
	}
	if scheds[1].EventsRun() != 4096 {
		t.Fatalf("shard 1 ran %d events after its panic, want 4096", scheds[1].EventsRun())
	}
	for i, s := range scheds {
		if s.Now() >= wb.SimTime+testLook {
			t.Fatalf("shard %d reached %v; the run should stop at the barrier after %v", i, s.Now(), wb.SimTime)
		}
	}
	// A worker signals its exit to Run just before it returns, so give the
	// last ones a moment to finish.
	for wait := time.Millisecond; runtime.NumGoroutine() > before && wait < time.Second; wait *= 2 {
		time.Sleep(wait)
	}
	// Goroutines of earlier tests may still be exiting, so only a rise
	// counts as a leak.
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Run, %d before: a shard worker leaked", n, before)
	}
}

// TestShardEngineTieOrder: boundary events landing at the same instant
// execute in (source shard, source seq) order, before local events at that
// instant.
func TestShardEngineTieOrder(t *testing.T) {
	scheds := []*Scheduler{NewScheduler(1), NewScheduler(2), NewScheduler(3)}
	e := NewShardEngine(scheds, testLook)
	e.Connect(0, 1)
	e.Connect(2, 1)
	var log []string
	at := testLook
	scheds[1].At(at, "local", func() { log = append(log, "local") })
	scheds[0].At(0, "post", func() {
		e.Post(0, 1, at, func() { log = append(log, "from0a") })
		e.Post(0, 1, at, func() { log = append(log, "from0b") })
	})
	scheds[2].At(0, "post", func() {
		e.Post(2, 1, at, func() { log = append(log, "from2") })
	})
	e.Run(time.Millisecond)
	want := []string{"from0a", "from0b", "from2", "local"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

// TestShardEngineDeadline: events beyond the deadline stay unexecuted and
// every scheduler lands exactly on the deadline.
func TestShardEngineDeadline(t *testing.T) {
	scheds := []*Scheduler{NewScheduler(1), NewScheduler(2)}
	e := NewShardEngine(scheds, testLook)
	e.Connect(0, 1)
	ran := 0
	scheds[0].At(time.Millisecond, "in", func() { ran++ })
	scheds[0].At(3*time.Millisecond, "out", func() { t.Error("event beyond deadline executed") })
	scheds[1].At(2*time.Millisecond, "in", func() {
		ran++
		// Posts whose timestamp lands beyond the deadline must not wedge
		// termination.
		e.Post(1, 0, 2*time.Millisecond+2*testLook, func() { t.Error("late boundary executed") })
	})
	e.Run(2*time.Millisecond + testLook/2)
	if ran != 2 {
		t.Fatalf("ran %d events, want 2", ran)
	}
	for i, s := range scheds {
		if s.Now() != 2*time.Millisecond+testLook/2 {
			t.Fatalf("shard %d clock %v, want deadline", i, s.Now())
		}
		if s.Pending() != 1 && i == 0 {
			t.Fatalf("shard 0 should still hold its beyond-deadline event")
		}
	}
}

// TestShardEnginePostContract: lookahead violations and posts to
// unconnected shards panic.
func TestShardEnginePostContract(t *testing.T) {
	scheds := []*Scheduler{NewScheduler(1), NewScheduler(2), NewScheduler(3)}
	e := NewShardEngine(scheds, testLook)
	e.Connect(0, 1)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	scheds[0].At(0, "violations", func() {
		expectPanic("lookahead", func() { e.Post(0, 1, testLook/2, func() {}) })
		expectPanic("unconnected", func() { e.Post(0, 2, testLook, func() {}) })
	})
	e.Run(time.Millisecond)
}

func TestSchedulerPeekAdvance(t *testing.T) {
	s := NewScheduler(1)
	if _, ok := s.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue reported ok")
	}
	s.At(5*time.Microsecond, "a", func() {})
	if at, ok := s.PeekTime(); !ok || at != 5*time.Microsecond {
		t.Fatalf("PeekTime = %v,%v", at, ok)
	}
	s.AdvanceTo(3 * time.Microsecond)
	if s.Now() != 3*time.Microsecond {
		t.Fatalf("Now = %v after AdvanceTo", s.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo backwards did not panic")
		}
	}()
	s.AdvanceTo(time.Microsecond)
}
