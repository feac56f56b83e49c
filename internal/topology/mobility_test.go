package topology

import (
	"math"
	"slices"
	"testing"
	"time"

	"aggmac/internal/mac"
	"aggmac/internal/medium"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/routing"
)

func testMeshCfg(seed int64) MeshConfig {
	return MeshConfig{Config: Config{
		Seed: seed,
		Phy:  phy.DefaultParams(),
		OptsFor: func(i, n int) mac.Options {
			return mac.DefaultOptions(mac.BA, phy.Rate1300k)
		},
	}}
}

func inArea(p Point, extent Point) bool {
	const eps = 1e-9
	return p.X >= -eps && p.X <= extent.X+eps && p.Y >= -eps && p.Y <= extent.Y+eps
}

// Same seed, same step sequence: trajectories must replay bit-identically
// for both models, and every position must stay inside the area.
func TestMobilityDeterministicAndBounded(t *testing.T) {
	for _, kind := range []string{MobilityWaypoint, MobilityDrift} {
		t.Run(kind, func(t *testing.T) {
			m1 := NewGrid(5, testMeshCfg(3))
			m2 := NewGrid(5, testMeshCfg(3))
			a, err := NewMobility(kind, m1, 2, time.Second, 11)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewMobility(kind, m2, 2, time.Second, 11)
			if err != nil {
				t.Fatal(err)
			}
			for step := 1; step <= 40; step++ {
				now := time.Duration(step) * 500 * time.Millisecond
				pa, pb := a.Step(now), b.Step(now)
				for i := range pa {
					if pa[i] != pb[i] {
						t.Fatalf("step %d node %d: %v vs %v (same seed diverged)", step, i, pa[i], pb[i])
					}
					if !inArea(pa[i], m1.Extent) {
						t.Fatalf("step %d node %d: %v escaped area %v", step, i, pa[i], m1.Extent)
					}
				}
			}
		})
	}
}

// A different seed must produce different trajectories.
func TestMobilitySeedMatters(t *testing.T) {
	m := NewGrid(5, testMeshCfg(3))
	a, _ := NewMobility(MobilityWaypoint, m, 2, 0, 1)
	b, _ := NewMobility(MobilityWaypoint, m, 2, 0, 2)
	pa := a.Step(10 * time.Second)
	pb := b.Step(10 * time.Second)
	for i := range pa {
		if pa[i] != pb[i] {
			return
		}
	}
	t.Fatal("seeds 1 and 2 produced identical waypoint trajectories")
}

// Waypoint legs are simulated exactly, so coarse and fine tick sequences
// visit the same trajectory (up to float rounding); drift is closed-form
// and therefore exactly tick-invariant.
func TestMobilityTickInvariance(t *testing.T) {
	mesh := NewGrid(5, testMeshCfg(3))
	coarseW := NewRandomWaypoint(mesh.Pos, mesh.Extent, 3, 500*time.Millisecond, 9)
	fineW := NewRandomWaypoint(mesh.Pos, mesh.Extent, 3, 500*time.Millisecond, 9)
	for step := 1; step <= 200; step++ {
		fineW.Step(time.Duration(step) * 100 * time.Millisecond)
	}
	coarse := coarseW.Step(20 * time.Second)
	fine := fineW.Step(20 * time.Second)
	for i := range coarse {
		if d := coarse[i].dist(fine[i]); d > 1e-6 {
			t.Errorf("waypoint node %d: coarse %v vs fine %v (dist %g)", i, coarse[i], fine[i], d)
		}
	}

	coarseD := NewLinearDrift(mesh.Pos, mesh.Extent, 3, 9)
	fineD := NewLinearDrift(mesh.Pos, mesh.Extent, 3, 9)
	for step := 1; step <= 200; step++ {
		fineD.Step(time.Duration(step) * 100 * time.Millisecond)
	}
	cd, fd := coarseD.Step(20*time.Second), fineD.Step(20*time.Second)
	for i := range cd {
		if cd[i] != fd[i] {
			t.Errorf("drift node %d: %v vs %v (closed form should be exact)", i, cd[i], fd[i])
		}
	}
}

func TestReflect1(t *testing.T) {
	for _, tc := range []struct{ x, w, want float64 }{
		{0.5, 4, 0.5},
		{4.5, 4, 3.5},  // bounce off the far wall
		{-0.5, 4, 0.5}, // bounce off the near wall
		{8.5, 4, 0.5},  // full period
		{3, 0, 0},      // collapsed dimension
	} {
		if got := reflect1(tc.x, tc.w); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("reflect1(%g, %g) = %g, want %g", tc.x, tc.w, got, tc.want)
		}
	}
}

func TestNewMobilityUnknown(t *testing.T) {
	m := NewGrid(3, testMeshCfg(1))
	if _, err := NewMobility("teleport", m, 1, 0, 1); err == nil {
		t.Fatal("unknown mobility model accepted")
	}
}

// UpdateLinks must leave the medium in exactly the state a from-scratch
// rebuild at the new positions would produce: connectivity == (distance <=
// range) for every pair, SNR matching the radio model on every in-range
// link, and LinkCount consistent.
func TestUpdateLinksMatchesRebuild(t *testing.T) {
	m := NewGrid(5, testMeshCfg(7))
	model, err := NewMobility(MobilityWaypoint, m, 3, 0, 21)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 30; step++ {
		delta := m.UpdateLinks(model.Step(time.Duration(step) * 300 * time.Millisecond))
		links := 0
		for a := 0; a < len(m.Nodes); a++ {
			for b := a + 1; b < len(m.Nodes); b++ {
				d := m.Pos[a].dist(m.Pos[b])
				want := d <= m.rm.Range
				got := m.Medium.Connected(medium.NodeID(a), medium.NodeID(b))
				if got != want {
					t.Fatalf("step %d: Connected(%d,%d)=%v, distance %g vs range %g", step, a, b, got, d, m.rm.Range)
				}
				if !want {
					continue
				}
				links++
				if back := m.Medium.Connected(medium.NodeID(b), medium.NodeID(a)); !back {
					t.Fatalf("step %d: link %d-%d asymmetric", step, a, b)
				}
				// The SNR must track the new distance, both directions —
				// a refresh that skips already-connected pairs would leave
				// stale values here.
				wantSNR := m.rm.SNRAt(d)
				for _, dir := range [][2]int{{a, b}, {b, a}} {
					if got := m.Medium.SNR(medium.NodeID(dir[0]), medium.NodeID(dir[1])); got != wantSNR {
						t.Fatalf("step %d: SNR(%d,%d) = %v, radio model %v at distance %g",
							step, dir[0], dir[1], got, wantSNR, d)
					}
				}
			}
		}
		if links != m.LinkCount() {
			t.Fatalf("step %d: LinkCount()=%d, rebuild counts %d (delta %+v)", step, m.LinkCount(), links, delta)
		}
	}
}

// An update at unchanged positions must be a no-op for connectivity.
func TestUpdateLinksIdempotent(t *testing.T) {
	m := NewGrid(4, testMeshCfg(5))
	pos := append([]Point(nil), m.Pos...)
	before := m.LinkCount()
	delta := m.UpdateLinks(pos)
	if delta.Up != 0 || delta.Down != 0 {
		t.Fatalf("static refresh changed links: %+v", delta)
	}
	if m.LinkCount() != before {
		t.Fatalf("LinkCount drifted: %d -> %d", before, m.LinkCount())
	}
	if delta.InRange != before {
		t.Fatalf("InRange=%d, want every existing link (%d) refreshed", delta.InRange, before)
	}
}

// Bridged beyond-range links obey the radio model from the first refresh:
// a mobility update cuts them unless the endpoints moved into range.
func TestUpdateLinksCutsBridges(t *testing.T) {
	// Two distant clusters force bridging in NewRandomDisk only
	// probabilistically; build the situation directly instead.
	m := NewGrid(3, testMeshCfg(1))
	far := len(m.Nodes) - 1
	m.Medium.SetConnected(0, medium.NodeID(far), true) // fake bridge 0 <-> corner
	pos := append([]Point(nil), m.Pos...)
	pos[far] = Point{X: 40, Y: 40} // way out of range of everyone
	delta := m.UpdateLinks(pos)
	if m.Medium.Connected(0, medium.NodeID(far)) {
		t.Fatal("out-of-range bridge survived a refresh")
	}
	if delta.Down == 0 {
		t.Fatal("no cuts counted")
	}
}

// swayingGrid returns a 15×15 grid (N=225) and the two layouts a tick
// alternates it between: home, and one with columns 4–7 pushed 0.6 along
// x, which cuts their links to column 3 and raises links from columns 6
// and 7 to columns 8 and 9.
func swayingGrid() (m *Mesh, home, moved []Point) {
	m = NewGrid(15, testMeshCfg(1))
	home = slices.Clone(m.Pos)
	moved = slices.Clone(m.Pos)
	for i := range moved {
		if x := moved[i].X; x >= 4 && x <= 7 {
			moved[i].X += 0.6
		}
	}
	return m, home, moved
}

// TestUpdateLinksAllocFree: once warm, a refresh that cuts and raises
// links allocates nothing — the cut list, the range bins and the medium's
// neighbour lists are all reused.
func TestUpdateLinksAllocFree(t *testing.T) {
	m, home, moved := swayingGrid()
	for range 3 {
		m.UpdateLinks(moved)
		m.UpdateLinks(home)
	}
	if d := m.UpdateLinks(moved); d.Up == 0 || d.Down == 0 {
		t.Fatalf("the move changed no links both ways: %+v", d)
	}
	m.UpdateLinks(home)
	allocs := testing.AllocsPerRun(20, func() {
		m.UpdateLinks(moved)
		m.UpdateLinks(home)
	})
	if allocs != 0 {
		t.Errorf("UpdateLinks allocates %v times per round trip", allocs)
	}
}

// TestRecomputeAllocFree: once warm, a route recompute over a fresh
// Adjacency snapshot allocates nothing, and the table it leaves matches a
// table built from scratch over the same links.
func TestRecomputeAllocFree(t *testing.T) {
	m, home, moved := swayingGrid()
	tick := func(pos []Point) int {
		m.UpdateLinks(pos)
		return routing.RecomputeShortestPaths(m.Nodes, m.Adjacency())
	}
	for range 3 {
		tick(moved)
		tick(home)
	}
	if flaps := tick(moved); flaps == 0 {
		t.Fatal("the move changed no route")
	}
	allocs := testing.AllocsPerRun(5, func() {
		tick(home)
		tick(moved)
	})
	if allocs != 0 {
		t.Errorf("a recompute tick allocates %v times per round trip", allocs)
	}
	fresh := network.NewRouteTable(len(m.Nodes), m.Adjacency())
	tab := m.Nodes[0].RouteTable()
	for d := range m.Nodes {
		for v := range m.Nodes {
			got, gotOK := tab.Next(network.NodeID(v), network.NodeID(d))
			want, wantOK := fresh.Next(network.NodeID(v), network.NodeID(d))
			if got != want || gotOK != wantOK {
				t.Fatalf("route %d->%d = %d (%v) after recomputes, fresh table %d (%v)", v, d, got, gotOK, want, wantOK)
			}
		}
	}
}
