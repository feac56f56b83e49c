package topology

import (
	"slices"
	"testing"

	"aggmac/internal/mac"
	"aggmac/internal/medium"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/routing"
)

func meshCfg(seed int64) MeshConfig {
	return MeshConfig{Config: cfg(seed)}
}

func TestGridBuild(t *testing.T) {
	m := NewGrid(4, meshCfg(1))
	if len(m.Nodes) != 16 {
		t.Fatalf("4x4 grid has %d nodes", len(m.Nodes))
	}
	// Default radio model (range 1.5): corner degree 3, interior degree 8.
	if d := m.Medium.Degree(0); d != 3 {
		t.Errorf("corner degree = %d, want 3", d)
	}
	if d := m.Medium.Degree(5); d != 8 {
		t.Errorf("interior degree = %d, want 8", d)
	}
	// Nodes two cells apart are out of range.
	if m.Medium.Connected(0, 2) {
		t.Error("grid connected nodes 2 cells apart (range 1.5)")
	}
	// Diagonal links are weaker than orthogonal ones but present.
	if !m.Medium.Connected(0, 5) {
		t.Error("diagonal neighbor not connected")
	}
	// Shortest-path routes: opposite corners are 3 diagonal hops apart.
	if d := m.HopDistance(0, 15); d != 3 {
		t.Errorf("corner-to-corner route = %d hops, want 3", d)
	}
	if m.Bridged != 0 {
		t.Errorf("grid needed %d bridges", m.Bridged)
	}
}

func TestGridForwardsEndToEnd(t *testing.T) {
	m := NewGrid(4, meshCfg(2))
	got := 0
	m.Nodes[15].Handle(network.ProtoUDP, func(p network.Packet) { got++ })
	m.Sched.After(0, "send", func() {
		_ = m.Nodes[0].Send(network.Packet{Proto: network.ProtoUDP, Src: 0, Dst: 15, Payload: []byte("x")})
	})
	m.Sched.Run()
	if got != 1 {
		t.Fatalf("corner-to-corner delivery failed (got %d)", got)
	}
}

func TestRandomDiskConnectedAndDeterministic(t *testing.T) {
	a := NewRandomDisk(40, meshCfg(7))
	if len(a.Nodes) != 40 {
		t.Fatalf("disk has %d nodes", len(a.Nodes))
	}
	// Bridging must leave a single component (graph-level check), and the
	// installed routes must agree with the graph distances (route walk).
	dist := routing.Distances(len(a.Nodes), a.Adjacency(), 0)
	for j := 1; j < len(a.Nodes); j++ {
		if dist[j] < 0 {
			t.Fatalf("node %d unreachable after bridging", j)
		}
		if got := a.HopDistance(0, j); got != dist[j] {
			t.Fatalf("route walk 0->%d = %d hops, BFS distance %d", j, got, dist[j])
		}
	}
	b := NewRandomDisk(40, meshCfg(7))
	if a.LinkCount() != b.LinkCount() || a.Bridged != b.Bridged {
		t.Errorf("same seed produced different meshes: %d/%d links, %d/%d bridges",
			a.LinkCount(), b.LinkCount(), a.Bridged, b.Bridged)
	}
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("same seed placed node %d at %v and %v", i, a.Pos[i], b.Pos[i])
		}
	}
	c := NewRandomDisk(40, meshCfg(8))
	same := 0
	for i := range a.Pos {
		if a.Pos[i] == c.Pos[i] {
			same++
		}
	}
	if same == len(a.Pos) {
		t.Error("different seeds produced identical placements")
	}
}

func TestParallelChains(t *testing.T) {
	// Adjacent chains at spacing 1 share spectrum and can route across.
	m := NewParallelChains(3, 4, 1, meshCfg(3))
	if len(m.Nodes) != 15 {
		t.Fatalf("3 chains x 4 hops = %d nodes, want 15", len(m.Nodes))
	}
	if d := m.HopDistance(ChainNode(0, 0, 4), ChainNode(0, 4, 4)); d != 4 {
		t.Errorf("along-chain distance = %d, want 4", d)
	}
	if d := m.HopDistance(ChainNode(0, 2, 4), ChainNode(2, 2, 4)); d != 2 {
		t.Errorf("cross-chain distance = %d, want 2", d)
	}
	// Spacing past the radio range isolates the chains.
	far := NewParallelChains(2, 3, 5, meshCfg(3))
	if d := far.HopDistance(ChainNode(0, 0, 3), ChainNode(1, 0, 3)); d != -1 {
		t.Errorf("isolated chains still routed (%d hops)", d)
	}
	if far.HopDistance(ChainNode(1, 0, 3), ChainNode(1, 3, 3)) != 3 {
		t.Error("second isolated chain lost its own route")
	}
}

func TestMeshPerNodeOptions(t *testing.T) {
	c := MeshConfig{Config: Config{
		Seed: 5,
		Phy:  phy.DefaultParams(),
		OptsFor: func(i, n int) mac.Options {
			o := mac.DefaultOptions(mac.UA, phy.Rate1300k)
			o.MaxAggBytes = 4096 + i
			return o
		},
	}}
	m := NewGrid(3, c)
	for i, node := range m.Nodes {
		if got := node.MAC().Opts().MaxAggBytes; got != 4096+i {
			t.Fatalf("node %d got MaxAggBytes %d", i, got)
		}
	}
}

// namedMesh is one case of the route-table tests.
type namedMesh struct {
	name string
	m    *Mesh
}

// lazyMeshes builds one small mesh of each generator, every one with its
// shared route table attached and no column computed yet.
func lazyMeshes() []namedMesh {
	return []namedMesh{
		{"grid", NewGrid(5, meshCfg(3))},
		{"disk", NewRandomDisk(30, meshCfg(5))},
		{"chains", NewParallelChains(3, 4, 0, meshCfg(2))},
	}
}

// TestLazyRoutesMatchEagerInstall: every (node, destination) lookup on the
// generator's lazily filled table returns what an eager all-pairs install
// over the same adjacency holds.
func TestLazyRoutesMatchEagerInstall(t *testing.T) {
	for _, c := range lazyMeshes() {
		name, m := c.name, c.m
		eager := make([]*network.Node, len(m.Nodes))
		for i := range eager {
			eager[i] = network.NewNode(network.NodeID(i))
		}
		routing.InstallShortestPaths(eager, m.Adjacency())
		for v := range m.Nodes {
			for d := range m.Nodes {
				got, ok := m.Nodes[v].Route(network.NodeID(d))
				want, wantOK := eager[v].Route(network.NodeID(d))
				if got != want || ok != wantOK {
					t.Fatalf("%s: route %d->%d = %d (ok=%v), eager install %d (ok=%v)", name, v, d, got, ok, want, wantOK)
				}
			}
		}
	}
}

// TestLazyRouteLookupFillsOneColumn: a generator attaches the table empty,
// and one lookup computes its destination's column and no other.
func TestLazyRouteLookupFillsOneColumn(t *testing.T) {
	for _, c := range lazyMeshes() {
		name, m := c.name, c.m
		tab := m.Nodes[0].RouteTable()
		for _, n := range m.Nodes {
			if n.RouteTable() != tab {
				t.Fatalf("%s: node %d does not share node 0's route table", name, n.ID())
			}
		}
		dst := network.NodeID(len(m.Nodes) - 1)
		for d := range m.Nodes {
			if tab.Filled(network.NodeID(d)) {
				t.Fatalf("%s: column %d computed before any lookup", name, d)
			}
		}
		if _, ok := m.Nodes[0].Route(dst); !ok {
			t.Fatalf("%s: no route 0->%d", name, dst)
		}
		for d := range m.Nodes {
			if filled := tab.Filled(network.NodeID(d)); filled != (network.NodeID(d) == dst) {
				t.Errorf("%s: after a lookup toward %d, column %d filled=%v", name, dst, d, filled)
			}
		}
	}
}

// TestRouteLookupAllocatesNothing pins Node.Route on a computed column at
// zero allocations: it is on every forwarded packet's path.
func TestRouteLookupAllocatesNothing(t *testing.T) {
	names := []string{"linear", "star"}
	nets := []*Network{NewLinear(4, cfg(1)), NewStar(cfg(1))}
	for _, c := range lazyMeshes() {
		names = append(names, c.name)
		nets = append(nets, c.m.Network)
	}
	for i, m := range nets {
		name := names[i]
		src, dst := m.Nodes[0], network.NodeID(len(m.Nodes)-1)
		src.Route(dst)
		if allocs := testing.AllocsPerRun(100, func() { src.Route(dst) }); allocs != 0 {
			t.Errorf("%s: Route on a computed column allocates %v times", name, allocs)
		}
	}
}

// TestDeferRoutesAttachesNoTable: with DeferRoutes the nodes start with no
// routes at all.
func TestDeferRoutesAttachesNoTable(t *testing.T) {
	c := meshCfg(1)
	c.DeferRoutes = true
	m := NewGrid(3, c)
	if m.Nodes[0].RouteTable() != nil {
		t.Fatal("DeferRoutes attached a route table")
	}
	if d := m.HopDistance(0, 8); d != -1 {
		t.Errorf("HopDistance with no routes = %d, want -1", d)
	}
}

// TestAdjacencySnapshotStable: the snapshot matches the medium's neighbor
// index when taken, keeps its rows after later link edits, and an append to
// one row cannot overwrite the next.
func TestAdjacencySnapshotStable(t *testing.T) {
	m := NewGrid(4, meshCfg(1))
	adj := m.Adjacency()
	want := make([][]int, len(m.Nodes))
	for i := range want {
		for _, id := range m.Medium.Neighbors(medium.NodeID(i)) {
			want[i] = append(want[i], int(id))
		}
		if !slices.Equal(adj(i), want[i]) {
			t.Fatalf("row %d = %v, want %v", i, adj(i), want[i])
		}
	}
	m.Medium.SetConnected(0, 1, false)
	m.Medium.SetConnected(0, 10, true)
	_ = append(adj(0), 99)
	for i := range want {
		if !slices.Equal(adj(i), want[i]) {
			t.Fatalf("row %d changed to %v after link edits, want %v", i, adj(i), want[i])
		}
	}
	if m.Medium.Connected(0, 1) || !m.Medium.Connected(0, 10) {
		t.Fatal("link edits did not take")
	}
}
