package medium

import (
	"math/rand"
	"slices"
	"testing"

	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// shadowTable is a test-local dense N×N link matrix with the table's
// semantics: self-links never connect, a raised link starts at
// params.SNRdB, a cut forgets the direction's SNR (it reads 0), and an SNR
// write lands only on connected directions. It is the independent oracle
// the sparse LinkTable is checked against — it shares no code with the
// production store.
type shadowTable struct {
	n         int
	defSNR    float64
	connected [][]bool
	snr       [][]float64
}

func newShadowTable(params phy.Params, n int) *shadowTable {
	st := &shadowTable{
		n:         n,
		defSNR:    params.SNRdB,
		connected: make([][]bool, n),
		snr:       make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		st.connected[i] = make([]bool, n)
		st.snr[i] = make([]float64, n)
	}
	return st
}

func (st *shadowTable) setConnectedDirected(from, to int, on bool) {
	if from == to || st.connected[from][to] == on {
		return
	}
	st.connected[from][to] = on
	st.snr[from][to] = 0
	if on {
		st.snr[from][to] = st.defSNR
	}
}

func (st *shadowTable) setSNR(a, b int, v float64) {
	if st.connected[a][b] {
		st.snr[a][b] = v
	}
	if st.connected[b][a] {
		st.snr[b][a] = v
	}
}

// check compares every observable of the medium's link state against the
// shadow matrix: directed connectivity, directed SNR, the neighbor lists,
// degrees, and their sum, the directed-link count.
func (st *shadowTable) check(t *testing.T, m *Medium, step int) {
	t.Helper()
	directed, degrees := 0, 0
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
		degrees += m.Degree(NodeID(a))
		if m.Degree(NodeID(a)) != len(wantNbrs) {
			t.Fatalf("step %d: Degree(%d) = %d, want %d", step, a, m.Degree(NodeID(a)), len(wantNbrs))
		}
	}
	if degrees != directed {
		t.Fatalf("step %d: degrees sum to %d, shadow oracle has %d directed links", step, degrees, directed)
	}
}

// checkTableInvariants asserts the sparse store's internal consistency:
// sorted strictly-ascending neighbor lists without self-links, one SNR per
// listed link, and in-neighbor lists that are exactly their ascending
// transpose.
func checkTableInvariants(t *testing.T, tbl *LinkTable, step int) {
	t.Helper()
	for a := 0; a < tbl.n; a++ {
		nbrs := tbl.nbrs[a]
		if len(tbl.snrs[a]) != len(nbrs) {
			t.Fatalf("step %d: %d SNRs for the %d links of node %d", step, len(tbl.snrs[a]), len(nbrs), a)
		}
		for i, b := range nbrs {
			if i > 0 && nbrs[i-1] >= b {
				t.Fatalf("step %d: nbrs[%d] not strictly ascending: %v", step, a, nbrs)
			}
			if b == NodeID(a) {
				t.Fatalf("step %d: nbrs[%d] lists a self-link", step, a)
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
	case 2: // SNR write (skips cut directions)
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
	case 6: // SNR back to the calibrated default
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
	// link, self-links, a detach sweep, and SNR writes back to the default.
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
