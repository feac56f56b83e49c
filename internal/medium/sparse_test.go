package medium

import (
	"math/rand"
	"slices"
	"testing"

	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// shadowTable is a test-local reimplementation of the seed's dense N×N link
// matrix, with exactly its semantics: a zeroed diagonal, every off-diagonal
// SNR initialized to params.SNRdB, connectivity and SNR stored
// unconditionally (SNR persists across disconnects, self-pair SNR is
// writable even though self-links never connect). It is the independent
// oracle the sparse LinkTable is checked against — it shares no code with
// the production store.
type shadowTable struct {
	n         int
	connected [][]bool
	snr       [][]float64
}

func newShadowTable(params phy.Params, n int) *shadowTable {
	st := &shadowTable{
		n:         n,
		connected: make([][]bool, n),
		snr:       make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		st.connected[i] = make([]bool, n)
		st.snr[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i != j {
				st.snr[i][j] = params.SNRdB
			}
		}
	}
	return st
}

func (st *shadowTable) setConnectedDirected(from, to int, on bool) {
	if from == to {
		return
	}
	st.connected[from][to] = on
}

func (st *shadowTable) setSNR(a, b int, v float64) {
	st.snr[a][b] = v
	st.snr[b][a] = v
}

// check compares every observable of the medium's link state against the
// shadow matrix: directed connectivity, directed SNR, the neighbor lists,
// degrees, and the directed-link count.
func (st *shadowTable) check(t *testing.T, m *Medium, step int) {
	t.Helper()
	directed := 0
	for a := 0; a < st.n; a++ {
		var wantNbrs []NodeID
		for b := 0; b < st.n; b++ {
			wantConn := a != b && st.connected[a][b]
			if got := m.Connected(NodeID(a), NodeID(b)); got != wantConn {
				t.Fatalf("step %d: Connected(%d,%d) = %v, shadow oracle %v", step, a, b, got, wantConn)
			}
			if got := m.SNR(NodeID(a), NodeID(b)); got != st.snr[a][b] {
				t.Fatalf("step %d: SNR(%d,%d) = %v, shadow oracle %v", step, a, b, got, st.snr[a][b])
			}
			if wantConn {
				wantNbrs = append(wantNbrs, NodeID(b))
				directed++
			}
		}
		got := m.Neighbors(NodeID(a))
		if len(got) != len(wantNbrs) {
			t.Fatalf("step %d: Neighbors(%d) = %v, shadow oracle %v", step, a, got, wantNbrs)
		}
		for i := range got {
			if got[i] != wantNbrs[i] {
				t.Fatalf("step %d: Neighbors(%d) = %v, shadow oracle %v", step, a, got, wantNbrs)
			}
		}
		if m.Degree(NodeID(a)) != len(wantNbrs) {
			t.Fatalf("step %d: Degree(%d) = %d, want %d", step, a, m.Degree(NodeID(a)), len(wantNbrs))
		}
	}
	if got := m.Table().DirectedLinks(); got != directed {
		t.Fatalf("step %d: DirectedLinks() = %d, shadow oracle %d", step, got, directed)
	}
}

// checkTableInvariants asserts the sparse store's internal consistency:
// sorted strictly-ascending neighbor lists that agree with the index map,
// in-neighbor lists that are exactly their ascending transpose, slot/free-list
// accounting, and minimality (no slot holds a back-to-default link).
func checkTableInvariants(t *testing.T, tbl *LinkTable, step int) {
	t.Helper()
	directed := 0
	for a := 0; a < tbl.n; a++ {
		nbrs := tbl.nbrs[a]
		directed += len(nbrs)
		for i, b := range nbrs {
			if i > 0 && nbrs[i-1] >= b {
				t.Fatalf("step %d: nbrs[%d] not strictly ascending: %v", step, a, nbrs)
			}
			s, ok := tbl.idx[pairKey(NodeID(a), b)]
			if !ok || !tbl.slots[s].connected {
				t.Fatalf("step %d: nbrs[%d] lists %d but the index disagrees", step, a, b)
			}
		}
	}
	for b := 0; b < tbl.n; b++ {
		var want []NodeID
		for a := 0; a < tbl.n; a++ {
			if slices.Contains(tbl.nbrs[a], NodeID(b)) {
				want = append(want, NodeID(a))
			}
		}
		if !slices.Equal(tbl.in[b], want) {
			t.Fatalf("step %d: in[%d] = %v, transpose of nbrs %v", step, b, tbl.in[b], want)
		}
	}
	if tbl.directed != directed {
		t.Fatalf("step %d: directed counter %d, neighbor lists sum to %d", step, tbl.directed, directed)
	}
	if len(tbl.idx)+len(tbl.free) != len(tbl.slots) {
		t.Fatalf("step %d: slot accounting broken: %d indexed + %d free != %d slots",
			step, len(tbl.idx), len(tbl.free), len(tbl.slots))
	}
	used := make(map[int32]uint64, len(tbl.idx))
	for k, s := range tbl.idx {
		if s < 0 || int(s) >= len(tbl.slots) {
			t.Fatalf("step %d: slot index %d out of range", step, s)
		}
		if prev, dup := used[s]; dup {
			t.Fatalf("step %d: slot %d owned by both %x and %x", step, s, prev, k)
		}
		used[s] = k
		from, to := NodeID(k>>32), NodeID(uint32(k))
		l := tbl.slots[s]
		if !l.connected && l.snrdB == tbl.defaultSNR(from, to) {
			t.Fatalf("step %d: slot for %d→%d holds a default link (should have been released)", step, from, to)
		}
	}
	for _, s := range tbl.free {
		if _, clash := used[s]; clash {
			t.Fatalf("step %d: slot %d is both free and indexed", step, s)
		}
	}
}

// applyOp drives one churn operation into both the medium and the shadow
// oracle. op selects the kind; a, b, v parameterize it.
func applyOp(m *Medium, st *shadowTable, op int, a, b int, v float64) {
	na, nb := NodeID(a), NodeID(b)
	switch op % 7 {
	case 0: // bidirectional raise/cut
		on := int(v)%2 == 0
		m.SetConnected(na, nb, on)
		st.setConnectedDirected(a, b, on)
		st.setConnectedDirected(b, a, on)
	case 1: // asymmetric directed edit
		on := int(v)%2 == 0
		m.SetConnectedDirected(na, nb, on)
		st.setConnectedDirected(a, b, on)
	case 2: // SNR override (persists across disconnects)
		m.SetSNR(na, nb, v)
		st.setSNR(a, b, v)
	case 3: // self-link: must be a no-op for connectivity
		m.SetConnected(na, na, int(v)%2 == 0)
	case 4: // redundant repeat of the current state
		cur := st.connected[a][b] && a != b
		m.SetConnectedDirected(na, nb, cur)
		st.setConnectedDirected(a, b, cur)
	case 5: // detach: cut then restore a node's whole out-neighborhood
		for dst := 0; dst < st.n; dst++ {
			m.SetConnectedDirected(na, NodeID(dst), false)
			st.setConnectedDirected(a, dst, false)
		}
	case 6: // SNR back to the calibrated default (slot must be reclaimed
		// if the link is also down)
		m.SetSNR(na, nb, m.Params().SNRdB)
		st.setSNR(a, b, m.Params().SNRdB)
	}
}

// TestSparseTableMatchesShadowDenseOracle churns the sparse link table with
// randomized asymmetric cuts, SNR overrides, detach/reattach sweeps and
// redundant writes, comparing every observable against an independent dense
// shadow matrix after every few steps.
func TestSparseTableMatchesShadowDenseOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(s *sim.Scheduler, n int) *Medium
	}{
		{"from-full", func(s *sim.Scheduler, n int) *Medium { return New(s, phy.DefaultParams(), n) }},
		{"from-empty", func(s *sim.Scheduler, n int) *Medium { return NewUnconnected(s, phy.DefaultParams(), n) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 19
			s := sim.NewScheduler(11)
			m := tc.build(s, n)
			st := newShadowTable(phy.DefaultParams(), n)
			if tc.name == "from-full" {
				for a := 0; a < n; a++ {
					for b := 0; b < n; b++ {
						st.setConnectedDirected(a, b, true)
					}
				}
			}
			st.check(t, m, -1)
			rng := rand.New(rand.NewSource(1234))
			for i := 0; i < 3000; i++ {
				applyOp(m, st, rng.Intn(7), rng.Intn(n), rng.Intn(n), float64(rng.Intn(40)))
				if i%97 == 0 {
					st.check(t, m, i)
					checkTableInvariants(t, m.Table(), i)
				}
			}
			st.check(t, m, 3000)
			checkTableInvariants(t, m.Table(), 3000)
		})
	}
}

// FuzzLinkTable decodes arbitrary byte strings into op sequences over a
// small table and cross-checks the sparse store against the shadow dense
// oracle plus its internal invariants after every operation. Each op is 4
// bytes: kind, node a, node b, value.
func FuzzLinkTable(f *testing.F) {
	// Seed corpus: raise/cut cycles, asymmetric edits, SNR churn on a cut
	// link, self-links, a detach sweep, and default-SNR reclaim.
	f.Add([]byte{0, 1, 2, 0, 0, 1, 2, 1, 0, 1, 2, 0})
	f.Add([]byte{1, 0, 3, 0, 1, 3, 0, 0, 2, 0, 3, 17})
	f.Add([]byte{2, 4, 5, 9, 0, 4, 5, 1, 2, 4, 5, 9, 6, 4, 5, 0})
	f.Add([]byte{3, 2, 2, 0, 3, 2, 2, 1, 4, 2, 3, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 5, 0, 0, 0, 0, 0, 1, 0})
	f.Add([]byte{2, 1, 1, 7, 6, 1, 1, 0, 1, 6, 2, 0, 6, 6, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		s := sim.NewScheduler(1)
		m := NewUnconnected(s, phy.DefaultParams(), n)
		st := newShadowTable(phy.DefaultParams(), n)
		for i := 0; i+4 <= len(data) && i < 4*256; i += 4 {
			op, a, b := int(data[i]), int(data[i+1])%n, int(data[i+2])%n
			v := float64(data[i+3]) / 4
			applyOp(m, st, op, a, b, v)
			checkTableInvariants(t, m.Table(), i)
		}
		st.check(t, m, len(data))
	})
}
