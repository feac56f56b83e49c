package routing

import (
	"reflect"
	"testing"

	"aggmac/internal/network"
)

// fuzzGraph is an adjacency matrix the fuzz target edits; snapshot freezes
// it into the ascending neighbour lists the route table expects.
type fuzzGraph [][]bool

func (g fuzzGraph) snapshot() func(i int) []int {
	adj := make([][]int, len(g))
	for u, row := range g {
		for v, on := range row {
			if on {
				adj[u] = append(adj[u], v)
			}
		}
	}
	return func(i int) []int { return adj[i] }
}

// FuzzRecomputeShortestPaths drives a shared route table through random
// link toggles, lazy lookups and table restarts, and checks every
// recompute against a from-scratch InstallShortestPaths (the oracle): the
// table must equal the oracle's over the new adjacency, and the flap count
// must equal tableDiff of the oracle tables before and after. Lazily
// computed columns must match the oracle over the table's own snapshot.
//
// data[0] picks the node count (2..8); data[1] bit 0 makes toggles
// directed-only, bit 1 starts from an eager table instead of a lazy one;
// then one byte per node gives its initial out-links (bit j: a link to j).
// The rest is 3-byte ops (kind, a, b), by kind%4: 0 toggles link a–b (a
// recompute follows every fourth pending toggle), 1 ends the step —
// recompute if any toggle is pending, 2 looks up a's route toward b, 3
// restarts the table over its snapshot, eagerly if b is odd.
func FuzzRecomputeShortestPaths(f *testing.F) {
	// Seed corpus: a symmetric ring whose link cuts force reroutes, the
	// same as directed-only links, an eager start, lookups before a
	// recompute, and a restart between steps.
	ring := []byte{2, 0, 0b1010, 0b0101, 0b1010, 0b0101}
	f.Add(append(ring, 0, 0, 1, 1, 0, 0))
	f.Add(append([]byte{2, 1, 0b0010, 0b0100, 0b1000, 0b0001}, 0, 0, 2, 2, 3, 0, 1, 0, 0))
	f.Add(append([]byte{3, 2, 0b00110, 0b01001, 0b10001, 0b00010, 0b00100}, 0, 1, 4, 0, 0, 2, 1, 0, 0))
	f.Add(append(ring, 2, 1, 3, 2, 2, 0, 0, 1, 2, 1, 0, 0, 2, 3, 0))
	f.Add(append(ring, 3, 0, 1, 0, 0, 3, 0, 1, 2, 0, 2, 3, 1, 0, 0, 3, 0, 0, 0, 1, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%7
		directed, eager := data[1]&1 != 0, data[1]&2 != 0
		data = data[2:]
		g := make(fuzzGraph, n)
		for u := range g {
			g[u] = make([]bool, n)
		}
		for u := range g {
			var row byte
			if u < len(data) {
				row = data[u]
			}
			for v := 0; v < n; v++ {
				if v != u && row&(1<<v) != 0 {
					g[u][v] = true
					if !directed {
						g[v][u] = true
					}
				}
			}
		}
		data = data[min(n, len(data)):]

		oracle := func(adj func(i int) []int) map[[2]int]int {
			fresh := make([]*network.Node, n)
			for i := range fresh {
				fresh[i] = network.NewNode(network.NodeID(i))
			}
			InstallShortestPaths(fresh, adj)
			return routeTable(fresh)
		}
		nodes := make([]*network.Node, n)
		for i := range nodes {
			nodes[i] = network.NewNode(network.NodeID(i))
		}
		// tableAdj is the snapshot the nodes' table was last computed over.
		tableAdj := g.snapshot()
		restart := func(eager bool) {
			if eager {
				InstallShortestPaths(nodes, tableAdj)
				return
			}
			tab := network.NewRouteTable(n, tableAdj)
			for _, nd := range nodes {
				nd.SetRouteTable(tab)
			}
		}
		restart(eager)

		pending := 0
		recompute := func() {
			before := oracle(tableAdj)
			tableAdj = g.snapshot()
			flaps := RecomputeShortestPaths(nodes, tableAdj)
			after := routeTable(nodes)
			if want := oracle(tableAdj); !reflect.DeepEqual(after, want) {
				t.Fatalf("recomputed table %v, fresh install %v", after, want)
			}
			if diff := tableDiff(before, after); flaps != diff {
				t.Fatalf("recompute reported %d flaps, snapshot diff is %d", flaps, diff)
			}
			pending = 0
		}
		for ; len(data) >= 3; data = data[3:] {
			kind, a, b := data[0]%4, int(data[1])%n, int(data[2])%n
			switch kind {
			case 0:
				if a == b {
					continue
				}
				g[a][b] = !g[a][b]
				if !directed {
					g[b][a] = g[a][b]
				}
				if pending++; pending == 4 {
					recompute()
				}
			case 1:
				if pending > 0 {
					recompute()
				}
			case 2:
				next, ok := nodes[a].Route(network.NodeID(b))
				want, wantOK := oracle(tableAdj)[[2]int{a, b}]
				if ok != wantOK || (ok && int(next) != want) {
					t.Fatalf("lookup %d->%d = %v (ok=%v), want %v (ok=%v)", a, b, next, ok, want, wantOK)
				}
			case 3:
				restart(b%2 == 1)
			}
		}
		if pending > 0 {
			recompute()
		}
	})
}
