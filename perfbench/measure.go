package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// passStats is the host cost of one pass over a workload's cells.
type passStats struct {
	set       int64
	wall      time.Duration
	cpu       time.Duration // process user+sys
	alloc     uint64        // bytes allocated (TotalAlloc delta)
	peakLive  uint64        // 95th percentile of the sampled live heap
	gcCycles  uint64
	gcCPUFrac float64 // GC's share of the runtime's CPU accounting
	events    uint64
	obs       *observer
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

type runtimeReading struct {
	cycles        uint64
	gcCPU, allCPU float64
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return runtimeReading{
		cycles: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		allCPU: s[2].Value.Float64(),
	}
}

// heapSampler reads the live heap — as of the last GC — every few
// milliseconds until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var live []float64
		for {
			metrics.Read(sample)
			live = append(live, float64(sample[0].Value.Uint64()))
			select {
			case <-h.stop:
				h.done <- uint64(percentile(live, 0.95))
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the 95th percentile of its
// samples: the pass's peak live heap, less the few instants when an
// unlucky mix of cells was in flight at a GC (on paper the top 1% of
// samples moved 5-17 MB between passes of identical work, the top 5%
// 3.8-4.8 MB).
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.done
}

// measurePass runs one pass of w over the input set and measures it.
func measurePass(ctx context.Context, w workload, set int64, workers int) (passStats, error) {
	runtime.GC()
	obs := newObserver()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rt0 := readRuntime()
	sampler := startHeapSampler()
	cpu0 := cpuTime()
	obs.start = time.Now()
	err := w.pass(ctx, set, workers, obs)
	wall := time.Since(obs.start)
	cpu := cpuTime() - cpu0
	peak := sampler.finish()
	rt1 := readRuntime()
	runtime.ReadMemStats(&ms1)
	p := passStats{
		set:  set,
		wall: wall, cpu: cpu,
		alloc:    ms1.TotalAlloc - ms0.TotalAlloc,
		peakLive: peak,
		gcCycles: rt1.cycles - rt0.cycles,
		events:   obs.events(),
		obs:      obs,
	}
	if d := rt1.allCPU - rt0.allCPU; d > 0 {
		p.gcCPUFrac = (rt1.gcCPU - rt0.gcCPU) / d
	}
	return p, err
}

// passCount is how many passes a run of the given length makes: the
// length over the workload's passSeconds, at least one. The count,
// not the clock, ends a run, so the same flags always do the same work.
func passCount(w workload, seconds int) int {
	return max(1, int(math.Round(float64(seconds)/w.passSeconds)))
}

// nextSet is the input set after set, wrapping around.
func nextSet(set int64) int64 { return set%inputSets + 1 }

// median returns the median of vs (the mean of the middle two for an
// even count); 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile of vs by linear interpolation
// between closest ranks.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// perPass applies f to every pass and returns the median.
func perPass(passes []passStats, f func(passStats) float64) float64 {
	vs := make([]float64, len(passes))
	for i, p := range passes {
		vs[i] = f(p)
	}
	return median(vs)
}

// slotOf names the piece of work a group key stands for, the same in
// every pass: the key without its seed index (the "s0" of "s0/fig7"). A
// run repeats every slot once per pass, and on paper also once per seed
// within a pass.
func slotOf(key string) string {
	parts := strings.Split(key, "/")
	kept := parts[:0]
	for _, p := range parts {
		if len(p) < 2 || p[0] != 's' || strings.Trim(p[1:], "0123456789") != "" {
			kept = append(kept, p)
		}
	}
	return strings.Join(kept, "/")
}
