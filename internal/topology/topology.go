// Package topology assembles complete simulated networks: scheduler,
// medium, MACs and network nodes, wired into the paper's experimental
// layouts — N-hop linear chains (Figure 5) and the two-session star
// (Figure 6) — and into generated meshes (mesh.go). The paper layouts put
// all nodes in one collision domain, exactly like the testbed (§5: every
// node is in transmission range; static routes force the multi-hop
// paths): the medium is fully connected, while the nodes' shared route
// table is computed over the chain or star adjacency alone.
package topology

import (
	"aggmac/internal/mac"
	"aggmac/internal/medium"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// Config parameterizes a build.
type Config struct {
	Seed int64
	Phy  phy.Params
	// OptsFor returns the MAC options for node i of n. Use it to apply
	// per-role settings (e.g. DBA's delay on relays only).
	OptsFor func(i, n int) mac.Options
}

// Network is a fully-wired simulated network.
type Network struct {
	Sched  *sim.Scheduler
	Medium *medium.Medium
	Nodes  []*network.Node
}

// build creates n nodes on a fresh scheduler and a fully connected medium
// (the paper's single collision domain).
func build(n int, cfg Config) *Network {
	return buildOn(medium.New, n, cfg)
}

// buildOn creates n nodes on a fresh scheduler and a medium from newMedium
// (medium.New for the paper's single collision domain, medium.NewUnconnected
// for generated meshes that wire their own sparse links).
func buildOn(newMedium func(*sim.Scheduler, phy.Params, int) *medium.Medium, n int, cfg Config) *Network {
	net := &Network{Sched: sim.NewScheduler(cfg.Seed)}
	net.Medium = newMedium(net.Sched, cfg.Phy, n)
	for i := 0; i < n; i++ {
		node := network.NewNode(network.NodeID(i))
		m := mac.New(net.Sched, net.Medium, medium.NodeID(i), cfg.OptsFor(i, n), node.Bind())
		node.AttachMAC(m)
		net.Nodes = append(net.Nodes, node)
	}
	return net
}

// shareRoutes gives every node one shared shortest-path route table over
// the routing adjacency neighbors (ascending ids per node; see
// network.NewRouteTable), with no column computed yet.
func (net *Network) shareRoutes(neighbors func(i int) []int) {
	t := network.NewRouteTable(len(net.Nodes), neighbors)
	for _, n := range net.Nodes {
		n.SetRouteTable(t)
	}
}

// NewLinear builds a linear chain with the given hop count (hops+1 nodes):
// node 0 — node 1 — … — node hops. Routes force the chain.
func NewLinear(hops int, cfg Config) *Network {
	n := hops + 1
	net := build(n, cfg)
	adj := make([][]int, n)
	for i := 1; i < n; i++ {
		adj[i-1] = append(adj[i-1], i)
		adj[i] = append(adj[i], i-1)
	}
	net.shareRoutes(func(i int) []int { return adj[i] })
	return net
}

// Star node roles (Figure 6, renumbered zero-based: paper node k is ours
// k-1). The two servers are nodes 2 and 3 (see StarServers).
const (
	StarClient = 0 // paper node 1: both TCP streams terminate here
	StarCenter = 1 // paper node 2: the relay/bottleneck
)

// NewStar builds the 4-node star: two servers (nodes 2, 3) each send a TCP
// stream through the centre (node 1) to the client (node 0); each session
// is 2 hops.
func NewStar(cfg Config) *Network {
	net := build(4, cfg)
	adj := make([][]int, 4)
	for _, leaf := range []int{StarClient, 2, 3} {
		adj[leaf] = []int{StarCenter}
		adj[StarCenter] = append(adj[StarCenter], leaf)
	}
	net.shareRoutes(func(i int) []int { return adj[i] })
	return net
}

// StarServers lists the two server node IDs.
func StarServers() []network.NodeID { return []network.NodeID{2, 3} }

// LinearRole names node i's role in an (hops+1)-node chain.
func LinearRole(i, n int) string {
	switch i {
	case 0:
		return "server"
	case n - 1:
		return "client"
	default:
		return "relay"
	}
}

// StarRole names node i's role in the star.
func StarRole(i int) string {
	switch i {
	case StarClient:
		return "client"
	case StarCenter:
		return "center"
	default:
		return "server"
	}
}

// IsRelay reports whether node i forwards traffic in an n-node chain.
func IsRelay(i, n int) bool { return i > 0 && i < n-1 }
