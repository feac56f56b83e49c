package network

import "slices"

// RouteTable is the hop-count shortest-path route table one generated mesh
// shares among all its nodes: one next-hop column per destination, stored
// destination-major as int32 node ids (-1 where the destination is
// unreachable, and at the destination itself), plus its own copy of the
// adjacency the columns are computed over. A column is computed by one BFS
// from its destination the first time any node looks up a route toward
// it, so a run pays only for the destinations its packets address.
//
// Ties between equal-length paths go to the neighbour that the BFS from
// the destination dequeues first — with ascending neighbour lists, the
// first-discovered one — so the table, and every run on top of it, is a
// deterministic function of the adjacency.
//
// Lookups fill columns and are not safe for concurrent use. Once every
// column is filled (Fill) the table is read-only, and any number of
// goroutines may look routes up.
type RouteTable struct {
	adj     adjacency // the snapshot columns are computed over
	spare   adjacency // Recompute loads the next snapshot here, then swaps
	cols    [][]int32 // cols[d][v]: v's next hop toward d; nil until computed
	scratch []int32   // Recompute's column buffer
	queue   []int32   // BFS scratch
}

// adjacency is a route table's copy of a snapshot, in compressed rows:
// node u's neighbours are nbr[off[u]:off[u+1]].
type adjacency struct {
	off []int32
	nbr []int32
}

// load copies the rows of n nodes from neighbors, reusing the buffers.
func (a *adjacency) load(n int, neighbors func(i int) []int) {
	total := 0
	for i := range n {
		total += len(neighbors(i))
	}
	a.off = append(slices.Grow(a.off[:0], n+1), 0)
	a.nbr = slices.Grow(a.nbr[:0], total)
	for i := range n {
		for _, v := range neighbors(i) {
			a.nbr = append(a.nbr, int32(v))
		}
		a.off = append(a.off, int32(len(a.nbr)))
	}
}

// NewRouteTable returns a table over n nodes with no column computed yet.
// neighbors(i) must list the nodes adjacent to i in ascending order. The
// table copies the rows before it returns, so the caller may reuse or
// change them afterwards: the copy is the snapshot every column is
// computed over until Recompute replaces it.
func NewRouteTable(n int, neighbors func(i int) []int) *RouteTable {
	t := &RouteTable{cols: make([][]int32, n), queue: make([]int32, n)}
	t.adj.load(n, neighbors)
	return t
}

// Next returns v's next hop toward d, computing d's column on first use.
// ok is false when d is unreachable from v, when d == v, and when d is not
// a node of the table.
func (t *RouteTable) Next(v, d NodeID) (next NodeID, ok bool) {
	if uint(d) >= uint(len(t.cols)) {
		return 0, false
	}
	col := t.cols[d]
	if col == nil {
		col = t.column(int(d))
	}
	if nh := col[v]; nh >= 0 {
		return NodeID(nh), true
	}
	return 0, false
}

// Filled reports whether d's column has been computed.
func (t *RouteTable) Filled(d NodeID) bool {
	return uint(d) < uint(len(t.cols)) && t.cols[d] != nil
}

// Fill computes every column not yet computed and returns the number of
// (node, destination) pairs with a route. The table is read-only after it.
func (t *RouteTable) Fill() int {
	routes := 0
	for d := range t.cols {
		for _, nh := range t.column(d) {
			if nh >= 0 {
				routes++
			}
		}
	}
	return routes
}

// Recompute copies a new adjacency snapshot, which replaces the old one,
// recomputes every column over it and returns the number of (node,
// destination) entries that changed: routes gained, lost or rerouted — the
// route-flap count. A column never looked up is first computed over the
// old snapshot, so the count is the same as if the table had been filled
// eagerly. Ties break as in the lookup, so recomputing over an unchanged
// adjacency returns 0. The two snapshots and the column buffer are reused,
// so once every column exists a recompute allocates nothing.
func (t *RouteTable) Recompute(neighbors func(i int) []int) int {
	n := len(t.cols)
	t.spare.load(n, neighbors)
	if len(t.scratch) != n {
		t.scratch = make([]int32, n)
	}
	changed := 0
	for d := range t.cols {
		old := t.column(d)
		bfsNextHops(d, &t.spare, t.scratch, t.queue)
		for v, nh := range t.scratch {
			if nh != old[v] {
				changed++
			}
		}
		t.cols[d], t.scratch = t.scratch, old
	}
	t.adj, t.spare = t.spare, t.adj
	return changed
}

// column returns d's column, computing it over the current snapshot first
// if needed.
func (t *RouteTable) column(d int) []int32 {
	if t.cols[d] == nil {
		col := make([]int32, len(t.cols))
		bfsNextHops(d, &t.adj, col, t.queue)
		t.cols[d] = col
	}
	return t.cols[d]
}

// bfsNextHops fills next[v] with v's next hop toward destination d (-1
// where unreachable and at d itself) by one BFS from d over the adjacency.
// next and queue are caller-provided scratch of length n.
func bfsNextHops(d int, adj *adjacency, next, queue []int32) {
	for i := range next {
		next[i] = -1
	}
	next[d] = int32(d)
	queue[0] = int32(d)
	head, tail := 0, 1
	for head < tail {
		u := queue[head]
		head++
		for _, v := range adj.nbr[adj.off[u]:adj.off[u+1]] {
			if next[v] != -1 {
				continue
			}
			// v reaches d through u: u is one hop closer.
			next[v] = u
			queue[tail] = v
			tail++
		}
	}
	next[d] = -1
}
