package traffic

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// everyModel returns one representative Model per kind, exercising the
// non-default knobs.
func everyModel() []Model {
	return []Model{
		{Kind: Bulk, Bytes: 50_000},
		{Kind: CBR, RateMbps: 0.4, PacketBytes: 800, DurationS: 5},
		{Kind: Poisson, RateMbps: 0.3, PacketBytes: 600, DurationS: 5},
		{Kind: OnOff, RateMbps: 0.5, PacketBytes: 1000, DurationS: 8, MeanOnS: 0.5, MeanOffS: 1.5},
		{Kind: Pareto, Bytes: 20_000, Shape: 1.4, MaxBytes: 400_000},
	}
}

func TestModelValidation(t *testing.T) {
	for _, m := range everyModel() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: unexpected validation error: %v", m.Kind, err)
		}
	}
	bad := []Model{
		{Kind: "warp"},
		{Kind: Bulk, Bytes: -1},
		{Kind: Pareto, Shape: 0.9},
		{Kind: Pareto, Bytes: 1000, MaxBytes: 10},
		{Kind: CBR, RateMbps: -2},
		{Kind: Poisson, DurationS: -1},
		{Kind: OnOff, MeanOnS: -0.5},
		// Interval truncates to 0 ns: an infinite zero-wait stream.
		{Kind: CBR, RateMbps: 9000, PacketBytes: 1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%+v: expected validation error", m)
		}
	}
}

// TestSeedDeterminism: same (model, seed) → identical streams; different
// seeds → different streams (for the randomized models).
func TestSeedDeterminism(t *testing.T) {
	for _, m := range everyModel() {
		t.Run(m.Kind, func(t *testing.T) {
			a := Events(m.New(42), 10_000)
			b := Events(m.New(42), 10_000)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed produced different streams (%d vs %d events)", len(a), len(b))
			}
			if len(a) == 0 {
				t.Fatalf("model produced no events")
			}
			if m.Kind == Poisson || m.Kind == OnOff || m.Kind == Pareto {
				c := Events(m.New(43), 10_000)
				if reflect.DeepEqual(a, c) {
					t.Errorf("different seeds produced identical streams")
				}
			}
		})
	}
}

// steppedEvents consumes src the way a polling engine with tick size step
// would: it advances a clock in fixed increments and only releases chunks
// whose due time has passed. The materialized schedule must equal the
// directly pulled one for every step size — the tick-size invariance the
// pull-based Source contract guarantees.
func steppedEvents(src Source, step time.Duration, max int) []Event {
	var out []Event
	var clock, due time.Duration
	wait, bytes, ok := src.Next()
	due = wait
	for ok && len(out) < max {
		for clock < due {
			clock += step
		}
		out = append(out, Event{At: due, Bytes: bytes})
		wait, bytes, ok = src.Next()
		due += wait
	}
	return out
}

func TestTickSizeInvariance(t *testing.T) {
	steps := []time.Duration{time.Microsecond, 3 * time.Millisecond, 250 * time.Millisecond, 2 * time.Second}
	for _, m := range everyModel() {
		t.Run(m.Kind, func(t *testing.T) {
			want := Events(m.New(7), 10_000)
			for _, step := range steps {
				got := steppedEvents(m.New(7), step, 10_000)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("step %v changed the schedule (%d vs %d events)", step, len(want), len(got))
				}
			}
		})
	}
}

// TestGOMAXPROCSInvariance pulls every model's stream concurrently from
// many goroutines at several GOMAXPROCS settings; each goroutine owns its
// own Source, so every stream must come out identical to the serial one.
func TestGOMAXPROCSInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, m := range everyModel() {
			want := Events(m.New(11), 5_000)
			var wg sync.WaitGroup
			got := make([][]Event, 8)
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = Events(m.New(11), 5_000)
				}(i)
			}
			wg.Wait()
			for i := range got {
				if !reflect.DeepEqual(want, got[i]) {
					t.Fatalf("GOMAXPROCS=%d %s: goroutine %d diverged from serial stream", procs, m.Kind, i)
				}
			}
		}
	}
}

func TestCBRPacing(t *testing.T) {
	m := Model{Kind: CBR, RateMbps: 0.8, PacketBytes: 1000, DurationS: 2}
	ev := Events(m.New(1), 1_000_000)
	// 0.8 Mbps at 1000 B/packet → 100 packets/s → 200 packets in 2 s, the
	// first at t=0.
	if len(ev) != 201 {
		t.Fatalf("expected 201 packets, got %d", len(ev))
	}
	if ev[0].At != 0 {
		t.Errorf("first CBR packet at %v, want 0", ev[0].At)
	}
	iv := ev[1].At - ev[0].At
	for i := 2; i < len(ev); i++ {
		if ev[i].At-ev[i-1].At != iv {
			t.Fatalf("CBR interval drifted at packet %d", i)
		}
	}
}

func TestPoissonMeanRate(t *testing.T) {
	m := Model{Kind: Poisson, RateMbps: 0.5, PacketBytes: 1000, DurationS: 200}
	ev := Events(m.New(3), 1_000_000)
	// Mean inter-arrival 16 ms → ≈12500 packets over 200 s; allow ±10%.
	if len(ev) < 11_000 || len(ev) > 14_000 {
		t.Errorf("poisson packet count %d far from expected 12500", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatalf("time went backwards at event %d", i)
		}
	}
}

// TestOnOffPathologicalBurstsTerminate: with a mean burst far shorter than
// one packet interval, bursts that carry a packet are ~e^-40 draws; the
// duration bound inside the off-period walk must still end the flow.
func TestOnOffPathologicalBurstsTerminate(t *testing.T) {
	m := Model{Kind: OnOff, RateMbps: 0.02, PacketBytes: 1000, DurationS: 5, MeanOnS: 0.01, MeanOffS: 1}
	done := make(chan []Event, 1)
	go func() { done <- Events(m.New(1), 1000) }()
	select {
	case ev := <-done:
		for _, e := range ev {
			if e.At > 5*time.Second {
				t.Errorf("event at %v past the 5s duration bound", e.At)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("onoff source with pathological burst lengths never terminated")
	}
}

func TestOnOffHasSilences(t *testing.T) {
	m := Model{Kind: OnOff, RateMbps: 1, PacketBytes: 1000, DurationS: 60, MeanOnS: 0.2, MeanOffS: 1}
	ev := Events(m.New(5), 1_000_000)
	if len(ev) < 10 {
		t.Fatalf("onoff produced only %d events", len(ev))
	}
	iv := m.withDefaults().interval()
	gaps := 0
	for i := 1; i < len(ev); i++ {
		if ev[i].At-ev[i-1].At > 5*iv {
			gaps++
		}
	}
	if gaps == 0 {
		t.Errorf("onoff stream shows no off-period gaps")
	}
	last := ev[len(ev)-1].At
	if last > 60*time.Second {
		t.Errorf("onoff exceeded its duration bound: %v", last)
	}
}

// TestDeterministicModelsSeedNoStream pins New's cost for the kinds that
// never draw: a bulk or CBR source is its one allocation, with no random
// source seeded behind it.
func TestDeterministicModelsSeedNoStream(t *testing.T) {
	for _, m := range []Model{{Kind: Bulk}, {Kind: CBR}} {
		if allocs := testing.AllocsPerRun(100, func() { m.New(7) }); allocs != 1 {
			t.Errorf("Model{Kind: %s}.New allocates %v objects, want 1", m.Kind, allocs)
		}
	}
}

func TestParetoSizes(t *testing.T) {
	m := Model{Kind: Pareto, Bytes: 30_000, Shape: 1.5, MaxBytes: 3_000_000}
	var sum, max float64
	n := 4000
	for i := 0; i < n; i++ {
		ev := Events(m.New(DeriveSeed(1, fmt.Sprintf("pareto/%d", i))), 2)
		if len(ev) != 1 {
			t.Fatalf("pareto flow %d produced %d chunks, want 1", i, len(ev))
		}
		if ev[0].Bytes < 1 || ev[0].Bytes > m.MaxBytes {
			t.Fatalf("pareto size %d outside [1, %d]", ev[0].Bytes, m.MaxBytes)
		}
		sum += float64(ev[0].Bytes)
		if float64(ev[0].Bytes) > max {
			max = float64(ev[0].Bytes)
		}
	}
	mean := sum / float64(n)
	// Heavy-tailed: the sample mean converges slowly, so bound loosely.
	if mean < 15_000 || mean > 60_000 {
		t.Errorf("pareto sample mean %.0f far from configured 30000", mean)
	}
	if max < 100_000 {
		t.Errorf("pareto max %.0f shows no heavy tail", max)
	}
}

func TestMixPickDistribution(t *testing.T) {
	mix, err := NewMix([]WeightedModel{
		{Model: Model{Kind: Bulk}, Weight: 3},
		{Model: Model{Kind: Pareto}, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	counts := [2]int{}
	for i := 0; i < 10_000; i++ {
		counts[mix.Pick(rng)]++
	}
	frac := float64(counts[0]) / 10_000
	if frac < 0.72 || frac > 0.78 {
		t.Errorf("weight-3 entry picked %.3f of the time, want ≈0.75", frac)
	}
	// Picks are deterministic per seed.
	a, b := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		if mix.Pick(a) != mix.Pick(b) {
			t.Fatalf("mix picks diverged at draw %d", i)
		}
	}
}

func TestMixValidation(t *testing.T) {
	if _, err := NewMix(nil); err == nil {
		t.Error("empty mix validated")
	}
	if _, err := NewMix([]WeightedModel{{Model: Model{Kind: Bulk}, Weight: 0}}); err == nil {
		t.Error("zero weight validated")
	}
	if _, err := NewMix([]WeightedModel{{Model: Model{Kind: "bad"}, Weight: 1}}); err == nil {
		t.Error("bad model validated")
	}
}

func TestOpenLoopArrivals(t *testing.T) {
	a := NewOpenLoop(2, 1) // 2 flows/s → mean gap 500 ms
	b := NewOpenLoop(2, 1)
	var sum time.Duration
	n := 20_000
	for i := 0; i < n; i++ {
		ga, gb := a.Next(), b.Next()
		if ga != gb {
			t.Fatalf("same-seed arrival streams diverged at %d", i)
		}
		sum += ga
	}
	mean := sum / time.Duration(n)
	if mean < 450*time.Millisecond || mean > 550*time.Millisecond {
		t.Errorf("mean arrival gap %v far from 500ms", mean)
	}
}

func TestThinkTimes(t *testing.T) {
	th := NewThink(2*time.Second, 3)
	var sum time.Duration
	n := 20_000
	for i := 0; i < n; i++ {
		sum += th.Next()
	}
	mean := sum / time.Duration(n)
	if mean < 1900*time.Millisecond || mean > 2100*time.Millisecond {
		t.Errorf("mean think time %v far from 2s", mean)
	}
}

func TestDeriveSeedMatchesRunnerDiscipline(t *testing.T) {
	if DeriveSeed(1, "a") == DeriveSeed(1, "b") {
		t.Error("distinct keys collided")
	}
	if DeriveSeed(1, "a") == DeriveSeed(2, "a") {
		t.Error("distinct bases collided")
	}
	if DeriveSeed(1, "a") != DeriveSeed(1, "a") {
		t.Error("DeriveSeed is not stable")
	}
}
