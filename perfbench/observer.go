package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"aggmac/internal/experiments"
	"aggmac/internal/runner"
)

// cellRecord is one finished cell of a pass.
type cellRecord struct {
	key    string
	group  string // the experiment (paper) or pool the cell ran in
	spec   runner.Spec
	result runner.Result // set only for a successful cell
	ok     bool
	wall   time.Duration
	cpu    time.Duration // on the worker's thread, from lookup to report
	end    time.Duration // completion, as an offset from the pass start
}

// groupRecord is one experiment or pool run of a pass, as a span.
type groupRecord struct {
	name       string
	start, end time.Duration
}

// observer collects what a pass produced: every cell's result and timing
// through the runner's public Cache and OnResult hooks, the experiments'
// tables, and failures. Safe for concurrent use by pool workers.
type observer struct {
	start time.Time

	mu     sync.Mutex
	cells  map[string]*cellRecord
	tables map[string]experiments.Table
	fails  map[string]error
	groups []groupRecord
	group  string
	// cpuAt holds each running cell's thread CPU time at its start.
	cpuAt map[string]time.Duration
}

func newObserver() *observer {
	return &observer{
		start:  time.Now(),
		cells:  make(map[string]*cellRecord),
		tables: make(map[string]experiments.Table),
		fails:  make(map[string]error),
		cpuAt:  make(map[string]time.Duration),
	}
}

func (o *observer) record(key string) *cellRecord {
	c := o.cells[key]
	if c == nil {
		c = &cellRecord{key: key, group: o.group}
		o.cells[key] = c
	}
	return c
}

// begin opens a group span; the returned func closes it.
func (o *observer) begin(name string) func() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.group = name
	o.groups = append(o.groups, groupRecord{name: name, start: time.Since(o.start)})
	i := len(o.groups) - 1
	return func() {
		o.mu.Lock()
		defer o.mu.Unlock()
		o.groups[i].end = time.Since(o.start)
	}
}

func (o *observer) fail(key string, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.fails[key] = err
}

func (o *observer) table(key string, t experiments.Table) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.tables[key] = t
}

// cache returns a runner.Cache that never hits and records every stored
// (that is, successful) result under prefix+spec key. Used with Resume set,
// its lookup, made on the worker goroutine just before the cell runs,
// starts the cell's CPU clock (see progress).
func (o *observer) cache(prefix string) runner.Cache { return capture{o, prefix} }

type capture struct {
	o      *observer
	prefix string
}

// Lookup pins the worker goroutine to its OS thread, so that the thread's
// CPU clock is the cell's until progress reads it and lets go.
func (c capture) Lookup(s runner.Spec) (runner.Result, bool, error) {
	runtime.LockOSThread()
	t := threadCPU()
	c.o.mu.Lock()
	defer c.o.mu.Unlock()
	c.o.cpuAt[c.prefix+s.Key] = t
	return runner.Result{}, false, nil
}

func (c capture) Store(s runner.Spec, r runner.Result) error {
	c.o.mu.Lock()
	defer c.o.mu.Unlock()
	rec := c.o.record(c.prefix + s.Key)
	rec.spec, rec.result, rec.ok = s, r, true
	return nil
}

// progress returns a runner OnResult hook recording each cell's wall time,
// completion instant and CPU time. The pool calls it on the goroutine that
// ran the cell, which the cache's lookup pinned to its thread.
func (o *observer) progress(prefix string) func(runner.Progress) {
	return func(p runner.Progress) {
		t := threadCPU()
		end := time.Since(o.start)
		o.mu.Lock()
		defer o.mu.Unlock()
		key := prefix + p.Key
		rec := o.record(key)
		rec.wall, rec.end = p.Wall, end
		if t0, ok := o.cpuAt[key]; ok {
			rec.cpu = t - t0
			delete(o.cpuAt, key)
			runtime.UnlockOSThread()
		}
	}
}

// threadCPU returns the calling thread's CPU time, to the nanosecond
// (clock_gettime(CLOCK_THREAD_CPUTIME_ID); getrusage's per-thread figure
// lags by up to a few hundred microseconds). Unlike wall time it does not
// count time the thread waited for a CPU, in this machine or, where the
// kernel accounts steal, in the host under it.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// sortedCells returns the recorded cells in key order.
func (o *observer) sortedCells() []*cellRecord {
	cells := make([]*cellRecord, 0, len(o.cells))
	for _, c := range o.cells {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].key < cells[j].key })
	return cells
}

// events sums the simulated events every successful cell executed.
func (o *observer) events() uint64 {
	var n uint64
	for _, c := range o.cells {
		if !c.ok {
			continue
		}
		r := c.result
		switch {
		case r.TCP != nil:
			n += r.TCP.EventsRun
		case r.UDP != nil:
			n += r.UDP.EventsRun
		case r.Mesh != nil:
			n += r.Mesh.EventsRun
		case r.Scenario != nil:
			n += r.Scenario.EventsRun
		}
	}
	return n
}
