package routing

import (
	"reflect"
	"slices"
	"testing"

	"aggmac/internal/network"
)

// path graph 0-1-2-3 plus a shortcut 0-3: shortest paths must prefer it.
func diamondAdj() func(i int) []int {
	adj := [][]int{
		0: {1, 3},
		1: {0, 2},
		2: {1, 3},
		3: {0, 2},
	}
	return func(i int) []int { return adj[i] }
}

func TestInstallShortestPaths(t *testing.T) {
	nodes := make([]*network.Node, 4)
	for i := range nodes {
		nodes[i] = network.NewNode(network.NodeID(i))
	}
	installed := InstallShortestPaths(nodes, diamondAdj())
	if installed != 12 { // every ordered pair of the connected 4-node graph
		t.Errorf("installed %d routes, want 12", installed)
	}
	// 1 reaches 3 in two hops either way; the tie goes to the neighbour
	// the BFS from 3 dequeues first (0, discovered before 2).
	if next, ok := nodes[1].Route(3); !ok || next != 0 {
		t.Errorf("route 1->3 via %v (ok=%v), want via 0", next, ok)
	}
	// 2's route to 0 ties between 1 and 3; the BFS from 0 dequeues 1
	// first.
	if next, ok := nodes[2].Route(0); !ok || next != 1 {
		t.Errorf("route 2->0 via %v (ok=%v), want via 1", next, ok)
	}
	// Direct neighbors route directly.
	if next, _ := nodes[0].Route(3); next != 3 {
		t.Errorf("route 0->3 via %v, want direct", next)
	}
}

// TestTieBreakFollowsBFSOrder pins the tie-break on a graph where it is
// not the lowest-id rule: node 10 reaches 0 in three hops through 9 (10–9–
// 3–0) or through 7 (10–7–5–0). The BFS from 0 dequeues 3 before 5, so 3
// discovers 9 before 5 discovers 7, and 9 dequeues before 7: 9 discovers 10
// first and 10 routes via 9, not via the lower-id 7.
func TestTieBreakFollowsBFSOrder(t *testing.T) {
	adj := make([][]int, 11)
	for _, l := range [][2]int{{0, 3}, {0, 5}, {3, 9}, {5, 7}, {7, 10}, {9, 10}} {
		adj[l[0]] = append(adj[l[0]], l[1])
		adj[l[1]] = append(adj[l[1]], l[0])
	}
	for _, nbrs := range adj {
		slices.Sort(nbrs)
	}
	neighbors := func(i int) []int { return adj[i] }
	nodes := make([]*network.Node, len(adj))
	for i := range nodes {
		nodes[i] = network.NewNode(network.NodeID(i))
	}
	InstallShortestPaths(nodes, neighbors)
	if next, ok := nodes[10].Route(0); !ok || next != 9 {
		t.Errorf("eager route 10->0 via %v (ok=%v), want via 9", next, ok)
	}
	lazy := network.NewRouteTable(len(adj), neighbors)
	if next, ok := lazy.Next(10, 0); !ok || next != 9 {
		t.Errorf("lazy route 10->0 via %v (ok=%v), want via 9", next, ok)
	}
}

func TestInstallShortestPathsDisconnected(t *testing.T) {
	adj := [][]int{0: {1}, 1: {0}, 2: {}}
	nodes := make([]*network.Node, 3)
	for i := range nodes {
		nodes[i] = network.NewNode(network.NodeID(i))
	}
	if installed := InstallShortestPaths(nodes, func(i int) []int { return adj[i] }); installed != 2 {
		t.Errorf("installed %d routes, want 2", installed)
	}
	if _, ok := nodes[0].Route(2); ok {
		t.Error("route to unreachable node installed")
	}
}

func TestRecomputeShortestPaths(t *testing.T) {
	nodes := make([]*network.Node, 4)
	for i := range nodes {
		nodes[i] = network.NewNode(network.NodeID(i))
	}
	InstallShortestPaths(nodes, diamondAdj())

	// Same graph: nothing may change.
	if changed := RecomputeShortestPaths(nodes, diamondAdj()); changed != 0 {
		t.Fatalf("recompute over unchanged graph changed %d routes", changed)
	}

	// Cut the 0-3 shortcut: 0<->3 reroutes through the chain (2 entries),
	// and the 1->3 / 2->0 ties that previously broke toward the shortcut's
	// endpoints re-resolve.
	chain := [][]int{0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
	chainAdj := func(i int) []int { return chain[i] }
	changed := RecomputeShortestPaths(nodes, chainAdj)
	if changed == 0 {
		t.Fatal("cutting a link changed no routes")
	}
	if next, ok := nodes[0].Route(3); !ok || next != 1 {
		t.Errorf("route 0->3 via %v (ok=%v), want via 1 after the cut", next, ok)
	}
	if next, ok := nodes[3].Route(0); !ok || next != 2 {
		t.Errorf("route 3->0 via %v (ok=%v), want via 2 after the cut", next, ok)
	}
	// Equilibrium: a second recompute over the same graph is silent.
	if again := RecomputeShortestPaths(nodes, chainAdj); again != 0 {
		t.Fatalf("second recompute changed %d more routes", again)
	}
}

func TestRecomputeRemovesUnreachableRoutes(t *testing.T) {
	nodes := make([]*network.Node, 3)
	for i := range nodes {
		nodes[i] = network.NewNode(network.NodeID(i))
	}
	line := [][]int{0: {1}, 1: {0, 2}, 2: {1}}
	InstallShortestPaths(nodes, func(i int) []int { return line[i] })
	if _, ok := nodes[0].Route(2); !ok {
		t.Fatal("setup: no initial route 0->2")
	}
	// Isolate node 2: every route to and from it must be withdrawn.
	split := [][]int{0: {1}, 1: {0}, 2: {}}
	changed := RecomputeShortestPaths(nodes, func(i int) []int { return split[i] })
	if changed != 4 { // 0->2, 1->2, 2->0, 2->1
		t.Errorf("changed = %d, want 4 withdrawn entries", changed)
	}
	for _, v := range []int{0, 1} {
		if _, ok := nodes[v].Route(2); ok {
			t.Errorf("node %d kept a route to the unreachable node", v)
		}
	}
	if _, ok := nodes[0].Route(1); !ok {
		t.Error("surviving component lost its own route")
	}
}

func TestDistances(t *testing.T) {
	got := Distances(4, diamondAdj(), 1)
	if want := []int{1, 0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("Distances = %v, want %v", got, want)
	}
	adj := [][]int{0: {}, 1: {}}
	if got := Distances(2, func(i int) []int { return adj[i] }, 0); got[1] != -1 {
		t.Errorf("unreachable distance = %d, want -1", got[1])
	}
}

// gridAdj returns the orthogonal adjacency of a k×k grid with the edges
// crossing the vertical line between columns cutAt-1 and cutAt removed
// (cutAt <= 0 cuts nothing). Neighbor lists are ascending.
func gridAdj(k, cutAt int) func(i int) []int {
	adj := make([][]int, k*k)
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			i := r*k + c
			if r > 0 {
				adj[i] = append(adj[i], i-k)
			}
			if c > 0 && c != cutAt {
				adj[i] = append(adj[i], i-1)
			}
			if c < k-1 && c+1 != cutAt {
				adj[i] = append(adj[i], i+1)
			}
			if r < k-1 {
				adj[i] = append(adj[i], i+k)
			}
		}
	}
	return func(i int) []int { return adj[i] }
}

// routeTable snapshots every installed (src, dst) -> next entry.
func routeTable(nodes []*network.Node) map[[2]int]int {
	tab := make(map[[2]int]int)
	for v := range nodes {
		for d := range nodes {
			if d == v {
				continue
			}
			if next, ok := nodes[v].Route(network.NodeID(d)); ok {
				tab[[2]int{v, d}] = int(next)
			}
		}
	}
	return tab
}

// tableDiff counts entries added, removed or rerouted between snapshots.
func tableDiff(old, new map[[2]int]int) int {
	diff := 0
	for k, v := range new {
		if ov, ok := old[k]; !ok || ov != v {
			diff++
		}
	}
	for k := range old {
		if _, ok := new[k]; !ok {
			diff++
		}
	}
	return diff
}

// TestRecomputePartitionAndHeal drives a 4×4 grid through a partition and
// its heal. The recompute must leave exactly the table a
// from-scratch install over the same adjacency produces (the dense-BFS
// oracle), report a flap count equal to the snapshot diff, and withdraw —
// not stale-route — every cross-partition destination.
func TestRecomputePartitionAndHeal(t *testing.T) {
	const k = 4
	nodes := make([]*network.Node, k*k)
	for i := range nodes {
		nodes[i] = network.NewNode(network.NodeID(i))
	}
	full := gridAdj(k, 0)
	InstallShortestPaths(nodes, full)
	before := routeTable(nodes)

	// Oracle for any adjacency: install from scratch into fresh nodes.
	oracle := func(adj func(i int) []int) map[[2]int]int {
		fresh := make([]*network.Node, k*k)
		for i := range fresh {
			fresh[i] = network.NewNode(network.NodeID(i))
		}
		InstallShortestPaths(fresh, adj)
		return routeTable(fresh)
	}

	// Partition between columns 1 and 2: two 8-node halves.
	cut := gridAdj(k, 2)
	changed := RecomputeShortestPaths(nodes, cut)
	after := routeTable(nodes)
	want := oracle(cut)
	if !reflect.DeepEqual(after, want) {
		t.Fatal("partitioned table differs from the from-scratch oracle")
	}
	if diff := tableDiff(before, after); changed != diff {
		t.Errorf("recompute reported %d flaps, snapshot diff is %d", changed, diff)
	}
	// No stale routes: every cross-partition pair must be withdrawn. Node
	// ids in the left half have column < 2.
	for v := range nodes {
		for d := range nodes {
			if v == d || (v%k < 2) == (d%k < 2) {
				continue
			}
			if next, ok := nodes[v].Route(network.NodeID(d)); ok {
				t.Fatalf("stale route across the partition: %d->%d via %d", v, d, next)
			}
		}
	}
	// Both halves keep full internal reachability: 8 nodes × 7 peers each.
	if got := len(after); got != 2*8*7 {
		t.Errorf("partitioned table has %d entries, want %d", got, 2*8*7)
	}

	// Heal: the table must return exactly to the pre-partition state (the
	// tie-break is deterministic), with the flap count again matching.
	healed := RecomputeShortestPaths(nodes, full)
	now := routeTable(nodes)
	if !reflect.DeepEqual(now, before) {
		t.Fatal("healed table differs from the original install")
	}
	if diff := tableDiff(after, now); healed != diff {
		t.Errorf("heal reported %d flaps, snapshot diff is %d", healed, diff)
	}
	// Equilibrium after heal.
	if again := RecomputeShortestPaths(nodes, full); again != 0 {
		t.Fatalf("post-heal recompute changed %d routes", again)
	}
}
