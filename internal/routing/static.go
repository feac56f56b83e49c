// Package routing computes static hop-count shortest-path routes. The
// paper's testbed forces multi-hop paths with static routes (§5); every
// topology here does the same: the nodes of a network read their next hops
// from one shared network.RouteTable, so transports start with full
// reachability. Mobile and faulted meshes re-run the computation with
// RecomputeShortestPaths, which also counts how many table entries each
// round changed (the route-flap metric).
package routing

import "aggmac/internal/network"

// InstallShortestPaths computes hop-count shortest-path next hops by a BFS
// per destination over the given adjacency into a new route table, fills
// every column, and attaches the table to every node, replacing any table
// they had. nodes[i] must have id i. neighbors(i) must list the nodes
// adjacent to i in ascending order and must be symmetric (mesh generators
// derive it from bidirectional links); a tie between equal-length paths
// goes to the neighbour the BFS from the destination dequeues first (see
// network.RouteTable), so the tables — and every simulation run on top of
// them — are deterministic. Unreachable pairs get no route. Cost is
// O(N·(N+E)); it returns the number of routes installed. The filled table
// is read-only, so nodes running on different goroutines may share it.
func InstallShortestPaths(nodes []*network.Node, neighbors func(i int) []int) int {
	t := network.NewRouteTable(len(nodes), neighbors)
	installed := t.Fill()
	for _, n := range nodes {
		n.SetRouteTable(t)
	}
	return installed
}

// RecomputeShortestPaths recomputes hop-count shortest-path next hops over
// the (possibly changed) adjacency into the nodes' shared route table:
// newly reachable destinations gain routes, unreachable ones lose theirs,
// and changed next hops are rewritten in place. It returns the number of
// route-table entries that changed (added + removed + rerouted) — the
// route-flap count the mobility experiments report. The nodes must share
// a route table, attached by a mesh generator or InstallShortestPaths.
// Columns no node had looked up yet count as if they had been installed
// eagerly. Ties break exactly like InstallShortestPaths, so recomputing
// over an unchanged graph changes nothing and returns 0.
func RecomputeShortestPaths(nodes []*network.Node, neighbors func(i int) []int) int {
	if len(nodes) == 0 {
		return 0
	}
	return nodes[0].RouteTable().Recompute(neighbors)
}

// Distances returns the hop distance from src to every node over the given
// adjacency (-1 where unreachable), for callers that need reachability or
// path lengths without a route table (the topology tests validate
// generated-mesh connectivity with it).
func Distances(n int, neighbors func(i int) []int, src int) []int {
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 1, n)
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range neighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
