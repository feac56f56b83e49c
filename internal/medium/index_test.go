package medium

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// checkIndexAgainstMatrix asserts, for every source, that the incremental
// neighbor index equals what a fresh all-pairs Connected scan (the oracle)
// produces: exactly the connected non-self destinations, ascending.
func checkIndexAgainstMatrix(t *testing.T, m *Medium, step int) {
	t.Helper()
	n := len(m.radios)
	for src := 0; src < n; src++ {
		var want []NodeID
		for dst := 0; dst < n; dst++ {
			if m.Connected(NodeID(src), NodeID(dst)) {
				want = append(want, NodeID(dst))
			}
		}
		got := m.Neighbors(NodeID(src))
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(append([]NodeID(nil), got...), want) {
			t.Fatalf("step %d: Neighbors(%d) = %v, matrix oracle %v", step, src, got, want)
		}
		if m.Degree(NodeID(src)) != len(want) {
			t.Fatalf("step %d: Degree(%d) = %d, want %d", step, src, m.Degree(NodeID(src)), len(want))
		}
	}
}

// TestNeighborIndexMatchesMatrixOracle churns the connectivity setters —
// bidirectional cuts/restores, asymmetric directed edits, SNR overrides,
// self-link no-ops, redundant repeats — and checks the neighbor index
// against an all-pairs Connected scan after every few steps.
func TestNeighborIndexMatchesMatrixOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		start func(s *sim.Scheduler, n int) *Medium
	}{
		{"from-full", 17, func(s *sim.Scheduler, n int) *Medium {
			return New(s, phy.DefaultParams(), n)
		}},
		{"from-empty", 17, func(s *sim.Scheduler, n int) *Medium {
			return NewUnconnected(s, phy.DefaultParams(), n)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.NewScheduler(7)
			m := tc.start(s, tc.n)
			checkIndexAgainstMatrix(t, m, -1)
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 4000; i++ {
				a := NodeID(rng.Intn(tc.n))
				b := NodeID(rng.Intn(tc.n))
				on := rng.Intn(2) == 0
				switch rng.Intn(6) {
				case 0:
					m.SetConnected(a, b, on)
				case 1:
					m.SetConnectedDirected(a, b, on) // asymmetric link
				case 2:
					m.SetSNR(a, b, float64(rng.Intn(30)))
				case 3:
					m.SetConnected(a, a, on) // self-link: must be a no-op
				case 4:
					// Redundant repeat: setting the current state again.
					m.SetConnectedDirected(a, b, m.Connected(a, b))
				case 5:
					m.SetConnectedDirected(a, b, on)
					m.SetSNR(a, b, 3+float64(rng.Intn(25)))
				}
				if i%101 == 0 {
					checkIndexAgainstMatrix(t, m, i)
				}
			}
			checkIndexAgainstMatrix(t, m, 4000)
		})
	}
}

// mobilityTrace generates the churn pattern a mobility tick produces: n
// nodes random-walk inside a square area and, after every move, the trace
// reconciles the medium's connectivity with the distance rule exactly the
// way topology.UpdateLinks does — cuts for pairs that left range, raises
// plus an SNR refresh for pairs in range — using only the incremental
// SetConnected/SetSNR paths.
type mobilityTrace struct {
	rng      *rand.Rand
	x, y     []float64
	side     float64
	rangeLim float64
}

func newMobilityTrace(n int, side, rangeLim float64, seed int64) *mobilityTrace {
	tr := &mobilityTrace{
		rng:      rand.New(rand.NewSource(seed)),
		x:        make([]float64, n),
		y:        make([]float64, n),
		side:     side,
		rangeLim: rangeLim,
	}
	for i := 0; i < n; i++ {
		tr.x[i] = tr.rng.Float64() * side
		tr.y[i] = tr.rng.Float64() * side
	}
	return tr
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// step random-walks every node and pushes the resulting link deltas into
// the medium.
func (tr *mobilityTrace) step(m *Medium, stride float64) {
	for i := range tr.x {
		tr.x[i] = clamp(tr.x[i]+(tr.rng.Float64()*2-1)*stride, 0, tr.side)
		tr.y[i] = clamp(tr.y[i]+(tr.rng.Float64()*2-1)*stride, 0, tr.side)
	}
	n := len(tr.x)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			dx, dy := tr.x[a]-tr.x[b], tr.y[a]-tr.y[b]
			inRange := dx*dx+dy*dy <= tr.rangeLim*tr.rangeLim
			connected := m.Connected(NodeID(a), NodeID(b))
			switch {
			case inRange && !connected:
				m.SetConnected(NodeID(a), NodeID(b), true)
				m.SetSNR(NodeID(a), NodeID(b), 5+tr.rng.Float64()*20)
			case inRange && connected:
				m.SetSNR(NodeID(a), NodeID(b), 5+tr.rng.Float64()*20)
			case !inRange && connected:
				m.SetConnected(NodeID(a), NodeID(b), false)
			}
		}
	}
}

// inRangeOracle recomputes the expected adjacency from scratch.
func (tr *mobilityTrace) inRangeOracle(a, b int) bool {
	dx, dy := tr.x[a]-tr.x[b], tr.y[a]-tr.y[b]
	return a != b && dx*dx+dy*dy <= tr.rangeLim*tr.rangeLim
}

// TestNeighborIndexUnderMobilityTrace drives sustained mobility-style
// churn — every step moves all nodes and reconciles every crossed range
// boundary — and checks after each step that (a) the incremental neighbor
// index still equals a fresh all-pairs Connected scan and (b) the link
// table itself matches the positional ground truth the trace maintains.
func TestNeighborIndexUnderMobilityTrace(t *testing.T) {
	const n = 23
	s := sim.NewScheduler(3)
	m := NewUnconnected(s, phy.DefaultParams(), n)
	tr := newMobilityTrace(n, 6.0, 1.5, 77)
	tr.step(m, 0) // initial reconcile at the starting positions
	for step := 1; step <= 250; step++ {
		// Mix small drifts with occasional large jumps so both sparse and
		// massive per-step deltas are exercised.
		stride := 0.3
		if step%17 == 0 {
			stride = 3.0
		}
		tr.step(m, stride)
		checkIndexAgainstMatrix(t, m, step)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if want := tr.inRangeOracle(a, b); m.Connected(NodeID(a), NodeID(b)) != want {
					t.Fatalf("step %d: Connected(%d,%d) = %v, positional oracle %v",
						step, a, b, !want, want)
				}
			}
		}
	}
}

// runEquivalenceScenario drives a fixed randomized partial-mesh traffic
// pattern through the medium and returns everything observable: per-radio
// reception/carrier counts and the channel stats.
func runEquivalenceScenario(t *testing.T) ([]fakeRadio, Stats) {
	t.Helper()
	const n = 14
	s := sim.NewScheduler(5)
	m := New(s, phy.DefaultParams(), n)

	// Randomized sparse topology, including asymmetric cuts and per-link
	// SNR spread. Node 9 stays detached (nil radio): the collision loops
	// must skip it.
	rng := rand.New(rand.NewSource(99))
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			switch rng.Intn(4) {
			case 0:
				m.SetConnected(NodeID(a), NodeID(b), false)
			case 1:
				m.SetConnectedDirected(NodeID(a), NodeID(b), false)
			case 2:
				m.SetSNR(NodeID(a), NodeID(b), 6+float64(rng.Intn(22)))
			}
		}
	}
	radios := make([]fakeRadio, n)
	for i := 0; i < n; i++ {
		if i == 9 {
			continue
		}
		m.Attach(NodeID(i), &radios[i])
	}

	// Overlapping traffic: staggered controls and aggregates from many
	// sources, close enough in time to collide at shared receivers.
	at := time.Duration(0)
	for round := 0; round < 40; round++ {
		src := NodeID((round * 5) % n)
		if src == 9 {
			src = 10
		}
		src2 := NodeID((round*7 + 3) % n)
		if src2 == 9 {
			src2 = 8
		}
		c := frame.Control{Type: frame.TypeCTS, RA: frame.Broadcast}
		agg := dataAgg(1+round%3, 400, frame.NodeAddr(int((src+1)%n)))
		rsrc, rsrc2 := src, src2
		s.After(at, "tx-ctrl", func() { m.TransmitControl(rsrc, c) })
		s.After(at+40*time.Microsecond, "tx-agg", func() { m.TransmitAggregate(rsrc2, agg) })
		at += 3 * time.Millisecond
	}
	s.Run()
	return radios, m.Stats()
}

// TestEquivalenceScenarioPinned pins the medium's observable behavior on a
// randomized partial mesh with collisions, asymmetric links, SNR spread and
// a detached radio. The expected values are those the neighbor-indexed
// medium and the O(N) dense-scan oracle it replaced both produced, recorded
// before the oracle was removed.
func TestEquivalenceScenarioPinned(t *testing.T) {
	radios, stats := runEquivalenceScenario(t)
	wantStats := Stats{ControlTx: 40, AggregateTx: 40, Collisions: 659,
		HalfDuplex: 69, AirtimeTotal: 240566114}
	if stats != wantStats {
		t.Errorf("stats = %+v, want %+v", stats, wantStats)
	}
	// Per radio: carrier busy edges, idle edges, control receptions,
	// aggregate receptions. Radio 9 is detached.
	want := [][4]int{
		{2, 2, 0, 1}, {18, 18, 4, 5}, {2, 2, 0, 0}, {21, 21, 0, 0},
		{2, 2, 0, 0}, {18, 18, 4, 3}, {2, 2, 0, 1}, {2, 2, 0, 1},
		{2, 2, 0, 1}, {0, 0, 0, 0}, {17, 17, 0, 0}, {2, 2, 0, 0},
		{17, 17, 3, 3}, {2, 2, 0, 1},
	}
	// What each radio received — frames, sources and reported SNRs — as one
	// SHA-256 over their %v renderings.
	h := sha256.New()
	for i := range radios {
		r := &radios[i]
		if got := [4]int{r.busyEdges, r.idleEdges, len(r.ctrls), len(r.aggs)}; got != want[i] {
			t.Errorf("radio %d: busy/idle/ctrl/agg = %v, want %v", i, got, want[i])
		}
		fmt.Fprintf(h, "%v %v %v %v %v\n", r.ctrls, r.ctrlSrcs, r.snrs, r.aggs, r.aggSrcs)
	}
	const wantDigest = "e68941def4be0d4b1ee0e2966493ad18d937222c88394392300922f40eac6f77"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantDigest {
		t.Errorf("reception digest = %s, want %s", got, wantDigest)
	}
}

// TestUnconnectedMediumDefaults: a virgin NewUnconnected medium hears
// nothing, and connecting a link gives it the calibrated default SNR.
func TestUnconnectedMediumDefaults(t *testing.T) {
	s := sim.NewScheduler(1)
	p := phy.DefaultParams()
	m := NewUnconnected(s, p, 3)
	r := &fakeRadio{}
	m.Attach(1, r)
	m.Attach(0, &fakeRadio{})
	s.After(0, "tx", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.Run()
	if len(r.ctrls) != 0 || r.busyEdges != 0 {
		t.Fatal("unconnected medium delivered a frame")
	}
	if m.Degree(0) != 0 {
		t.Fatalf("unconnected Degree = %d", m.Degree(0))
	}
	m.SetConnected(0, 1, true)
	s.After(time.Millisecond, "tx", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.Run()
	if len(r.ctrls) != 1 {
		t.Fatalf("connected link delivered %d frames, want 1", len(r.ctrls))
	}
	if r.snrs[0] != p.SNRdB {
		t.Fatalf("default link SNR = %v, want %v", r.snrs[0], p.SNRdB)
	}
}
