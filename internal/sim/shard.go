// Sharded parallel execution: K independent Schedulers run in lock-step
// windows on K goroutines, synchronized by a barrier between windows.
//
// Model. Every cross-shard effect is posted at least a lookahead L after
// the event that causes it (Post enforces at >= now+L). A window covers the
// simulated interval [T, T+L), where T is the earliest pending event on any
// shard: every shard runs its events in that interval concurrently, and
// nothing posted during the window can land inside it. At the barrier that
// closes the window, the coordinator moves each shard's per-destination
// outbox into the destination's staging heap, ordered by (time, source
// shard, source sequence). The next window starts at the earliest pending
// event anywhere, so idle stretches of simulated time cost nothing.
//
// Each shard merges staged and local events in time order, staged first on
// ties. A staged event's position in its source's sequence is fixed and
// local sequence numbers depend only on local history, so every shard's
// event order — and therefore the whole run — is a pure function of the
// configuration, independent of goroutine scheduling, GOMAXPROCS or
// wall-clock timing. With one shard there is no neighbor to wait for, so
// the single window runs to the deadline: exactly Scheduler.RunUntil.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// boundaryEvent is one cross-shard effect: fn runs on the destination shard
// with the destination scheduler's clock advanced exactly to at.
type boundaryEvent struct {
	at  Time
	src int32  // source shard, first tie-break
	seq uint64 // per-(src,dst) FIFO sequence, second tie-break
	fn  func()
}

// engineShard is the per-goroutine state. Within a window only the shard's
// own goroutine touches it; between windows only the coordinator does.
type engineShard struct {
	id        int
	sched     *Scheduler
	connected []bool            // indexed by shard id: Post may target it
	out       [][]boundaryEvent // per destination shard, filled during a window
	seq       []uint64          // next boundary sequence per destination shard

	staging []boundaryEvent // min-heap ordered by (at, src, seq)

	start chan Time // window end (inclusive) for a worker shard

	// Diagnostic span recording (EnableDiag). spans is read by DiagSpans
	// after Run returns; idleSince is when the shard last finished a window.
	spans     []ShardSpan
	idleSince time.Duration

	panicked any
}

// ShardSpan is one wall-clock interval of a shard's life, recorded only
// when EnableDiag was called before Run: Kind "run" covers the events one
// shard executed in one window, "blocked" the time it then waited at the
// barrier for the next window it had work in. Start and End are
// wall-clock offsets from Run's start; SimAt is the shard's simulated
// clock when the span closed. Wall-clock spans vary run to run by
// construction — they feed the Chrome trace exporter only and never any
// deterministic output.
type ShardSpan struct {
	Shard  int
	Kind   string // "run" | "blocked"
	Start  time.Duration
	End    time.Duration
	SimAt  Time
	Events uint64 // events executed during a "run" span
}

// ShardEngine runs K Schedulers in barrier-synchronized windows of one
// lookahead. Build one with NewShardEngine, declare cross-shard
// reachability with Connect, then Run. Post may only be called from inside
// an event executing on the source shard.
type ShardEngine struct {
	shards  []*engineShard
	look    Time
	running bool

	diag      bool
	wallStart time.Time
}

// EnableDiag turns on per-shard wall-clock span recording for the Chrome
// trace exporter. Must be called before Run. Diagnostics never affect
// event order — they only read the wall clock around windows — but they
// do cost two timestamps per shard and window, so they are off by default.
func (e *ShardEngine) EnableDiag() {
	if e.running {
		panic("sim: EnableDiag after Run started")
	}
	e.diag = true
}

// DiagSpans returns the spans recorded during Run, grouped by shard in
// ascending order. Empty unless EnableDiag was called.
func (e *ShardEngine) DiagSpans() []ShardSpan {
	var out []ShardSpan
	for _, s := range e.shards {
		out = append(out, s.spans...)
	}
	return out
}

// NewShardEngine builds an engine over the given schedulers. lookahead is
// the minimum delay between a source event and any effect it may post to
// another shard; it must be positive.
func NewShardEngine(scheds []*Scheduler, lookahead Time) *ShardEngine {
	if len(scheds) == 0 {
		panic("sim: ShardEngine needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: ShardEngine lookahead must be positive")
	}
	e := &ShardEngine{shards: make([]*engineShard, len(scheds)), look: lookahead}
	for i, s := range scheds {
		if s == nil {
			panic("sim: ShardEngine scheduler is nil")
		}
		e.shards[i] = &engineShard{
			id:        i,
			sched:     s,
			connected: make([]bool, len(scheds)),
			out:       make([][]boundaryEvent, len(scheds)),
			seq:       make([]uint64, len(scheds)),
		}
	}
	return e
}

// Shards returns the number of shards.
func (e *ShardEngine) Shards() int { return len(e.shards) }

// Lookahead returns the engine's lookahead L, the width of one window.
func (e *ShardEngine) Lookahead() Time { return e.look }

// Connect declares that shards a and b can affect each other, so each may
// Post to the other. Connect the exact pairs that share a radio link
// across the partition boundary; unconnected pairs may not Post to each
// other.
func (e *ShardEngine) Connect(a, b int) {
	if e.running {
		panic("sim: Connect after Run started")
	}
	if a == b {
		panic("sim: Connect of a shard to itself")
	}
	e.shards[a].connected[b] = true
	e.shards[b].connected[a] = true
}

// Post schedules fn on shard dst at absolute time at. It must be called
// from an event executing on shard src, and at must respect the lookahead
// contract: at >= src's current time + L. fn runs with dst's scheduler
// advanced exactly to at.
func (e *ShardEngine) Post(src, dst int, at Time, fn func()) {
	s := e.shards[src]
	if min := s.sched.Now() + e.look; at < min {
		panic(fmt.Sprintf("sim: Post from shard %d at %v violates lookahead (now %v + L %v)",
			src, at, s.sched.Now(), e.look))
	}
	if !s.connected[dst] {
		panic(fmt.Sprintf("sim: Post from shard %d to unconnected shard %d", src, dst))
	}
	s.out[dst] = append(s.out[dst], boundaryEvent{at: at, src: int32(src), seq: s.seq[dst], fn: fn})
	s.seq[dst]++
}

// Run executes windows until no shard has work at or below deadline (or
// every shard has halted), then advances every scheduler's clock to the
// deadline, mirroring Scheduler.RunUntil. Shard 0 runs on the calling
// goroutine, every other shard on its own. A panic on any shard ends the
// run at the next barrier; Run re-panics with the lowest-numbered shard's
// value once every worker has exited. Run may be called once per engine.
func (e *ShardEngine) Run(deadline Time) {
	if e.running {
		panic("sim: ShardEngine.Run called twice")
	}
	e.running = true
	if e.diag {
		e.wallStart = time.Now()
	}
	for _, s := range e.shards {
		s.sched.halted = false
	}
	var wg sync.WaitGroup
	done := make(chan struct{}, len(e.shards))
	for _, s := range e.shards[1:] {
		s.start = make(chan Time)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for end := range s.start {
				e.runWindow(s, end)
				done <- struct{}{}
			}
		}()
	}
	e.loop(deadline, done)
	for _, s := range e.shards[1:] {
		close(s.start)
	}
	wg.Wait()
	for _, s := range e.shards {
		if s.panicked != nil {
			panic(s.panicked)
		}
	}
	for _, s := range e.shards {
		if s.sched.Now() < deadline {
			s.sched.AdvanceTo(deadline)
		}
	}
}

// loop is the coordinator: deliver the last window's boundary events, pick
// the next window, run it on every shard with work in it, and wait at the
// barrier.
func (e *ShardEngine) loop(deadline Time, done chan struct{}) {
	for {
		e.exchange()
		t, ok := e.nextAt()
		if !ok || t > deadline {
			return
		}
		end := deadline
		if len(e.shards) > 1 && deadline-t >= e.look {
			end = t + e.look - 1
		}
		busy := 0
		for _, s := range e.shards[1:] {
			if at, _, ok := s.peek(); ok && at <= end {
				s.start <- end
				busy++
			}
		}
		if at, _, ok := e.shards[0].peek(); ok && at <= end {
			e.runWindow(e.shards[0], end)
		}
		for ; busy > 0; busy-- {
			<-done
		}
		for _, s := range e.shards {
			if s.panicked != nil {
				return
			}
		}
	}
}

// exchange moves every outbox into its destination's staging heap. Events
// for a halted shard are dropped: it executes nothing more.
func (e *ShardEngine) exchange() {
	for _, s := range e.shards {
		for dst, box := range s.out {
			if len(box) == 0 {
				continue
			}
			if d := e.shards[dst]; !d.sched.Halted() {
				for _, ev := range box {
					d.stagePush(ev)
				}
			}
			clear(box) // release fn for GC
			s.out[dst] = box[:0]
		}
	}
}

// nextAt returns the earliest pending event time over all running shards.
func (e *ShardEngine) nextAt() (Time, bool) {
	var t Time
	found := false
	for _, s := range e.shards {
		if at, _, ok := s.peek(); ok && (!found || at < t) {
			t, found = at, true
		}
	}
	return t, found
}

// peek returns the shard's next event time and whether that event is
// staged, which wins time ties against local events. A halted shard has
// no next event.
func (s *engineShard) peek() (at Time, staged, ok bool) {
	if s.sched.Halted() {
		return 0, false, false
	}
	lt, lok := s.sched.PeekTime()
	if len(s.staging) > 0 && (!lok || s.staging[0].at <= lt) {
		return s.staging[0].at, true, true
	}
	return lt, false, lok
}

// runWindow executes the shard's events at or below end, staged before
// local on time ties, until it runs out or halts. A panic is recovered
// into s.panicked for the coordinator to re-raise.
func (e *ShardEngine) runWindow(s *engineShard, end Time) {
	defer func() {
		if r := recover(); r != nil {
			s.panicked = r
		}
	}()
	var t0 time.Duration
	if e.diag {
		t0 = time.Since(e.wallStart)
		if t0 > s.idleSince {
			s.spans = append(s.spans, ShardSpan{
				Shard: s.id, Kind: "blocked", Start: s.idleSince, End: t0, SimAt: s.sched.Now(),
			})
		}
	}
	sched := s.sched
	var n uint64
	for at, staged, ok := s.peek(); ok && at <= end; at, staged, ok = s.peek() {
		if staged {
			ev := s.stagePop()
			sched.AdvanceTo(ev.at)
			ev.fn()
		} else {
			sched.Step()
		}
		n++
	}
	if e.diag {
		s.idleSince = time.Since(e.wallStart)
		s.spans = append(s.spans, ShardSpan{
			Shard: s.id, Kind: "run", Start: t0, End: s.idleSince, SimAt: sched.Now(), Events: n,
		})
	}
}

func (s *engineShard) stagePush(ev boundaryEvent) {
	s.staging = append(s.staging, ev)
	i := len(s.staging) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !stageLess(s.staging[i], s.staging[p]) {
			break
		}
		s.staging[i], s.staging[p] = s.staging[p], s.staging[i]
		i = p
	}
}

func (s *engineShard) stagePop() boundaryEvent {
	h := s.staging
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = boundaryEvent{} // release fn for GC
	s.staging = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && stageLess(h[c+1], h[c]) {
			c++
		}
		if !stageLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// stageLess orders staged events by (time, source shard, source sequence):
// a total, schedule-independent order for same-instant arrivals.
func stageLess(a, b boundaryEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}
