package medium

import (
	"slices"
	"testing"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// scanOracle is the brute-force record of what the collision scan should
// have written into one in-flight transmission: the same marking rule,
// applied to every (active transmission, node) pair through the public
// Connected accessor instead of the neighbor lists.
type scanOracle struct {
	audience []NodeID
	collided []bool
}

// FuzzInterferenceScan interleaves link cuts, raises, directed edits and
// SNR overrides (which must not move a mark) with overlapping control-frame
// launches and clock advances.
// Before every launch it derives the expected marks by brute force over
// m.active and every node id, reading links as they stand at that instant;
// after every op it requires each in-flight transmission's audience and
// collided entries to match exactly, its marked list to hold exactly the
// node ids whose collided entry is set, each once (in any order: the list
// only drives the reset when the transmission is recycled), and every
// node's energy-detect refcount to equal the number of in-flight frames
// whose brute-force audience holds it. Once the scheduler drains, every refcount
// must be back to zero, no node may still have a frame on the air, and
// every radio's carrier busy/idle edges must
// balance, however the links changed under frames in flight. Each op is 4
// bytes: kind, node a, node b, value. The last node stays detached, so the
// scan must skip it.
func FuzzInterferenceScan(f *testing.F) {
	// Seed corpus: a shared receiver, a link cut and a link raised under an
	// in-flight frame, a directed-only link, SNR edits mid-flight, three
	// overlapping senders, and frames that end before the next launch.
	f.Add([]byte{0, 0, 2, 0, 0, 1, 2, 0, 3, 0, 0, 0, 3, 1, 0, 1})
	f.Add([]byte{0, 0, 2, 0, 0, 1, 2, 0, 3, 0, 0, 0, 1, 0, 2, 1, 3, 1, 0, 0})
	f.Add([]byte{0, 1, 2, 0, 3, 0, 0, 0, 1, 0, 2, 0, 3, 1, 0, 0})
	f.Add([]byte{1, 0, 2, 0, 1, 2, 0, 0, 0, 1, 2, 0, 3, 0, 0, 0, 3, 1, 0, 1})
	f.Add([]byte{0, 0, 3, 0, 0, 1, 3, 0, 3, 0, 0, 0, 2, 0, 3, 9, 2, 1, 3, 80, 3, 1, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 2, 0, 0, 2, 3, 0, 3, 0, 0, 0, 3, 1, 0, 1, 3, 2, 0, 0, 3, 3, 0, 1})
	f.Add([]byte{0, 0, 1, 0, 3, 0, 0, 0, 5, 0, 0, 40, 3, 1, 0, 0, 5, 0, 0, 255, 3, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 7
		s := sim.NewScheduler(1)
		m := NewUnconnected(s, phy.DefaultParams(), n)
		radios := make([]fakeRadio, n)
		for i := 0; i < n-1; i++ {
			m.Attach(NodeID(i), &radios[i])
		}
		want := make(map[*transmission]*scanOracle)

		launch := func(src NodeID, typ frame.Type) {
			o := &scanOracle{collided: make([]bool, n)}
			for nid := NodeID(0); nid < n; nid++ {
				if m.radios[nid] != nil && m.Connected(src, nid) {
					o.audience = append(o.audience, nid)
				}
			}
			for _, other := range m.active {
				if other.end <= s.Now() {
					continue
				}
				ow := want[other]
				ow.collided[src] = true
				for _, nid := range o.audience {
					if m.Connected(other.src, nid) {
						o.collided[nid] = true
						ow.collided[nid] = true
					}
				}
			}
			m.TransmitControl(src, frame.Control{Type: typ, RA: frame.NodeAddr(0)})
			want[m.active[len(m.active)-1]] = o
		}

		for i := 0; i+4 <= len(data) && i < 4*256; i += 4 {
			op, a, b, v := data[i]%6, NodeID(int(data[i+1])%n), NodeID(int(data[i+2])%n), data[i+3]
			switch op {
			case 0:
				m.SetConnected(a, b, v%2 == 0)
			case 1:
				m.SetConnectedDirected(a, b, v%2 == 0)
			case 2:
				m.SetSNR(a, b, float64(v)/4)
			case 3, 4: // launches outnumber advances, so frames overlap
				typ := frame.TypeCTS
				if v%2 == 1 {
					typ = frame.TypeRTS
				}
				launch(a%(n-1), typ)
			case 5:
				s.RunUntil(s.Now() + sim.Time(time.Duration(v)*10*time.Microsecond))
			}
			for _, tx := range m.active {
				o := want[tx]
				if !slices.Equal(tx.audience, o.audience) {
					t.Fatalf("op %d: frame from %d has audience %v, brute force %v", i/4, tx.src, tx.audience, o.audience)
				}
				if !slices.Equal(tx.collided, o.collided) {
					t.Fatalf("op %d: frame from %d collided %v, brute force %v", i/4, tx.src, tx.collided, o.collided)
				}
				var wantMarked []NodeID
				for nid, c := range o.collided {
					if c {
						wantMarked = append(wantMarked, NodeID(nid))
					}
				}
				if marked := slices.Sorted(slices.Values(tx.marked)); !slices.Equal(marked, wantMarked) {
					t.Fatalf("op %d: frame from %d marked %v, want each of %v once", i/4, tx.src, tx.marked, wantMarked)
				}
			}
			for nid := NodeID(0); nid < n; nid++ {
				hearing := 0
				for _, tx := range m.active {
					if slices.Contains(want[tx].audience, nid) {
						hearing++
					}
				}
				if m.busy[nid] != hearing {
					t.Fatalf("op %d: node %d energy-detect refcount %d, brute force %d", i/4, nid, m.busy[nid], hearing)
				}
			}
		}
		s.Run()
		for nid := range radios {
			if m.busy[nid] != 0 || m.onAir[nid] != nil {
				t.Fatalf("drained: node %d busy %d, on air %v, want 0 and none", nid, m.busy[nid], m.onAir[nid] != nil)
			}
			if r := &radios[nid]; r.busyEdges != r.idleEdges {
				t.Fatalf("drained: node %d carrier busy edges %d, idle edges %d", nid, r.busyEdges, r.idleEdges)
			}
		}
	})
}
