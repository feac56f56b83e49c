package phy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestRateTable(t *testing.T) {
	cases := []struct {
		r    Rate
		mbps float64
		mod  Modulation
		num  int
		den  int
	}{
		{Rate650k, 0.65, BPSK, 1, 2},
		{Rate1300k, 1.30, QPSK, 1, 2},
		{Rate1950k, 1.95, QPSK, 3, 4},
		{Rate2600k, 2.60, QAM16, 1, 2},
		{Rate3900k, 3.90, QAM16, 3, 4},
		{Rate5200k, 5.20, QAM64, 2, 3},
		{Rate5850k, 5.85, QAM64, 3, 4},
		{Rate6500k, 6.50, QAM64, 5, 6},
	}
	for _, c := range cases {
		if got := c.r.Mbps(); math.Abs(got-c.mbps) > 1e-9 {
			t.Errorf("%v Mbps = %v, want %v", c.r, got, c.mbps)
		}
		if got := c.r.Modulation(); got != c.mod {
			t.Errorf("%v modulation = %v, want %v", c.r, got, c.mod)
		}
		num, den := c.r.CodeRate()
		if num != c.num || den != c.den {
			t.Errorf("%v code rate = %d/%d, want %d/%d", c.r, num, den, c.num, c.den)
		}
	}
}

func TestRateFromMbps(t *testing.T) {
	for _, r := range AllRates() {
		got, err := RateFromMbps(r.Mbps())
		if err != nil || got != r {
			t.Errorf("RateFromMbps(%v) = %v, %v; want %v", r.Mbps(), got, err, r)
		}
	}
	if _, err := RateFromMbps(7.0); err == nil {
		t.Error("RateFromMbps(7.0) should fail")
	}
}

func TestExperimentRatesExclude64QAM(t *testing.T) {
	for _, r := range ExperimentRates() {
		if r.Modulation() == QAM64 {
			t.Errorf("experiment rate %v uses 64-QAM, which 25 dB SNR cannot support", r)
		}
	}
	if len(ExperimentRates()) != 4 {
		t.Fatalf("paper uses 4 rates, got %d", len(ExperimentRates()))
	}
}

func TestAirtime(t *testing.T) {
	// 1140 bytes at 0.65 Mbps = 9120 bits / 650000 bps = 14.0307... ms
	got := Airtime(1140, Rate650k)
	secs := float64(1140*8) / 650_000
	want := time.Duration(secs * float64(time.Second))
	if d := got - want; d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("Airtime(1140, 0.65) = %v, want ~%v", got, want)
	}
	// Doubling the rate halves the airtime.
	if a, b := Airtime(1000, Rate650k), Airtime(1000, Rate1300k); a != 2*b {
		t.Errorf("airtime at 0.65 (%v) should be exactly 2x airtime at 1.3 (%v)", a, b)
	}
}

func TestSamplesRoundTrip(t *testing.T) {
	p := DefaultParams()
	for _, d := range []time.Duration{0, time.Microsecond, 500 * time.Microsecond, 60 * time.Millisecond} {
		s := p.Samples(d)
		back := p.Duration(s)
		if back != d {
			t.Errorf("Duration(Samples(%v)) = %v", d, back)
		}
	}
	// 60 ms at 2 Msps = 120 Ksamples: the paper's coherence budget.
	if s := p.Samples(60 * time.Millisecond); s != 120_000 {
		t.Errorf("60ms = %d samples, want 120000", s)
	}
}

func TestCoherenceBudgetMatchesPaperThresholds(t *testing.T) {
	// §6.1: "For the 0.65 Mbps rate ... 120 Ksamples is 5 KB. For the
	// 1.3 Mbps rate ... 11 KB. For the 1.95 Mbps rate ... 15 KB."
	p := DefaultParams()
	cases := []struct {
		r       Rate
		paperKB float64
	}{
		{Rate650k, 5},
		{Rate1300k, 11},
		{Rate1950k, 15},
	}
	for _, c := range cases {
		gotKB := float64(p.MaxBytesWithinCoherence(c.r)) / 1000
		// Within 25% of the paper's rounded KB values.
		if gotKB < c.paperKB*0.75 || gotKB > c.paperKB*1.25 {
			t.Errorf("coherence budget at %v = %.1f KB, paper says ~%v KB", c.r, gotKB, c.paperKB)
		}
	}
}

func TestBERReliabilityAt25dB(t *testing.T) {
	p := DefaultParams()
	eff := p.EffectiveSNRdB(0)
	// The four experiment rates must be essentially error-free for a
	// max-size frame; 64-QAM rates must not be.
	frameBits := 1464.0 * 8
	for _, r := range ExperimentRates() {
		fer := 1 - math.Pow(1-BitErrorRate(r, eff), frameBits)
		if fer > 1e-3 {
			t.Errorf("%v FER = %g at 25 dB; experiments need reliable operation", r, fer)
		}
	}
	for _, r := range []Rate{Rate5200k, Rate5850k, Rate6500k} {
		fer := 1 - math.Pow(1-BitErrorRate(r, eff), frameBits)
		if fer < 0.5 {
			t.Errorf("%v FER = %g at 25 dB; paper says 64-QAM was unreliable", r, fer)
		}
	}
}

func TestBERMonotoneInSNR(t *testing.T) {
	for _, r := range AllRates() {
		prev := 1.0
		for snr := -5.0; snr <= 40; snr += 0.5 {
			b := BitErrorRate(r, snr)
			if b > prev+1e-15 {
				t.Fatalf("%v BER not monotone at %v dB: %g > %g", r, snr, b, prev)
			}
			if b < 0 || b > 0.5 {
				t.Fatalf("%v BER out of range at %v dB: %g", r, snr, b)
			}
			prev = b
		}
	}
}

func TestBEROrderingAcrossRates(t *testing.T) {
	// At any SNR, a faster rate is never more robust than a slower one.
	for snr := 0.0; snr <= 30; snr += 2 {
		rates := AllRates()
		for i := 1; i < len(rates); i++ {
			lo := BitErrorRate(rates[i-1], snr)
			hi := BitErrorRate(rates[i], snr)
			if hi+1e-18 < lo && lo > 1e-15 {
				// Allow ties at numerically-zero BER.
				t.Errorf("at %v dB, %v (BER %g) beats slower %v (BER %g)",
					snr, rates[i], hi, rates[i-1], lo)
			}
		}
	}
}

func TestAgingPenalty(t *testing.T) {
	p := DefaultParams()
	if got := p.agingPenaltyDB(p.CoherenceSamples); got != 0 {
		t.Errorf("penalty at budget = %v, want 0", got)
	}
	if got := p.agingPenaltyDB(p.CoherenceSamples - 1); got != 0 {
		t.Errorf("penalty below budget = %v, want 0", got)
	}
	if got := p.agingPenaltyDB(p.CoherenceSamples + 1000); math.Abs(got-p.AgingDBPerKSample) > 1e-9 {
		t.Errorf("penalty 1 Ksample past budget = %v, want %v", got, p.AgingDBPerKSample)
	}
	// Penalty makes long frames fail: a subframe ending far past the budget
	// must be nearly certain to be corrupt.
	pe := p.ChunkErrorProb(1464, Rate650k, p.CoherenceSamples+40_000)
	if pe < 0.99 {
		t.Errorf("deep-aged chunk error prob = %v, want ~1", pe)
	}
	// While one ending within the budget is nearly certain to survive.
	pe = p.ChunkErrorProb(1464, Rate650k, p.CoherenceSamples)
	if pe > 1e-6 {
		t.Errorf("in-budget chunk error prob = %v, want ~0", pe)
	}
}

func TestChunkErrorProbProperties(t *testing.T) {
	p := DefaultParams()
	f := func(nBytes uint16, endK uint8) bool {
		n := int(nBytes%4096) + 1
		end := int64(endK) * 2000
		pe := p.ChunkErrorProb(n, Rate1300k, end)
		if pe < 0 || pe > 1 {
			return false
		}
		// More bytes at the same offset can only increase error prob.
		pe2 := p.ChunkErrorProb(n*2, Rate1300k, end)
		return pe2+1e-15 >= pe
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastDescDuration(t *testing.T) {
	p := DefaultParams()
	if d := p.BroadcastDescDuration(false); d != 0 {
		t.Errorf("no-broadcast desc duration = %v, want 0", d)
	}
	want := Airtime(p.BroadcastDescBytes, p.ControlRate)
	if d := p.BroadcastDescDuration(true); d != want {
		t.Errorf("broadcast desc duration = %v, want %v", d, want)
	}
}

func TestMaxBytesWithinCoherenceMonotone(t *testing.T) {
	p := DefaultParams()
	prev := 0
	for _, r := range AllRates() {
		n := p.MaxBytesWithinCoherence(r)
		if n < prev {
			t.Errorf("coherence byte budget decreased at %v: %d < %d", r, n, prev)
		}
		prev = n
	}
}

func TestRateStringAndValid(t *testing.T) {
	if Rate650k.String() != "0.65Mbps" {
		t.Errorf("String = %q", Rate650k.String())
	}
	if Rate(99).Valid() {
		t.Error("Rate(99) should be invalid")
	}
	if Rate(-1).Valid() {
		t.Error("Rate(-1) should be invalid")
	}
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		if m.String() == "" {
			t.Error("empty modulation name")
		}
	}
}

// The memo cache must return bit-identical probabilities to the direct
// computation for every key shape the medium generates (zero and non-zero
// per-link SNR shifts included) — the byte-identical-output guarantee.
func TestErrorCacheMatchesDirect(t *testing.T) {
	p := DefaultParams()
	c := NewErrorCache(p)
	sizes := []int{8, 14, 160, 1464, 5120}
	ends := []int64{640, 10_000, 119_999, 120_001, 200_000}
	shifts := []float64{0, -21, -3, 2.5}
	for _, r := range AllRates() {
		for _, n := range sizes {
			for _, end := range ends {
				for _, shift := range shifts {
					shifted := p
					shifted.SNRdB += shift
					want := shifted.ChunkErrorProb(n, r, end)
					for pass := 0; pass < 2; pass++ { // miss then hit
						got := c.ChunkErrorProb(n, r, end, shift)
						if got != want {
							t.Fatalf("cache(%d,%v,%d,%g) pass %d = %g, direct %g",
								n, r, end, shift, pass, got, want)
						}
					}
				}
			}
		}
	}
	keys := len(sizes) * len(ends) * len(shifts) * int(numRates)
	if c.Len() != keys {
		t.Fatalf("cache holds %d keys, want %d", c.Len(), keys)
	}
}

func TestErrorCacheSteadyStateAllocFree(t *testing.T) {
	c := NewErrorCache(DefaultParams())
	c.ChunkErrorProb(1464, Rate2600k, 50_000, 0)
	allocs := testing.AllocsPerRun(500, func() {
		c.ChunkErrorProb(1464, Rate2600k, 50_000, 0)
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %v times per op, want 0", allocs)
	}
}

// FuzzErrorCache drives the memo with arbitrary key streams — sizes from
// zero up, every rate, offsets either side of the coherence budget, and
// SNR shifts that include both zeros — and checks every answer, on the miss
// that stores it, after the table has grown past it, and on a second pass,
// against the uncached computation bit for bit.
func FuzzErrorCache(f *testing.F) {
	f.Add([]byte{8, 200, 10, 0, 8, 200, 10, 1, 0, 0, 130, 2, 0, 0, 0, 0})
	long := make([]byte, 0, 4*300)
	for i := 0; i < 300; i++ { // more distinct keys than the initial table holds
		long = append(long, byte(i*7), byte(i*13), byte(i*3), byte(i))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := DefaultParams()
		c := NewErrorCache(p)
		type key struct {
			n     int
			r     Rate
			end   int64
			shift float64
		}
		var keys []key
		distinct := map[[4]uint64]bool{}
		for i := 0; i+4 <= len(data) && i < 4*2048; i += 4 {
			k := key{
				n:   int(data[i]>>3)<<8 | int(data[i+1]),
				r:   Rate(data[i] & 7),
				end: int64(data[i+2]) * 1000,
			}
			switch b := data[i+3]; b {
			case 0:
				k.shift = 0
			case 1:
				k.shift = math.Copysign(0, -1)
			default:
				k.shift = float64(int8(b)) / 8
			}
			keys = append(keys, k)
			if k.n != 0 || k.r != 0 || k.end != 0 { // the all-zero key is computed, never stored
				distinct[[4]uint64{uint64(k.n), uint64(k.r), uint64(k.end), math.Float64bits(k.shift)}] = true
			}
		}
		check := func(pass int) {
			for _, k := range keys {
				shifted := p
				shifted.SNRdB += k.shift
				want := shifted.ChunkErrorProb(k.n, k.r, k.end)
				if got := c.ChunkErrorProb(k.n, k.r, k.end, k.shift); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("pass %d: cache(%d,%v,%d,%g) = %v, direct %v", pass, k.n, k.r, k.end, k.shift, got, want)
				}
			}
		}
		check(0)
		check(1)
		if c.Len() != len(distinct) {
			t.Fatalf("cache holds %d keys, want %d", c.Len(), len(distinct))
		}
	})
}
