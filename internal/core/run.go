// The run skeleton every entry point shares. Each Run function builds its
// network, attaches the tracer (attachTrace), creates its transport
// (newStacks), schedules its own traffic and dynamics, starts telemetry
// (startMetrics, in metrics.go), arms the wall-clock watchdog and runs;
// nodeReports snapshots the nodes afterwards. The order matters: it fixes
// where each scheduled event lands in the scheduler's FIFO tie-break, and
// so keeps the golden event sequences.
package core

import (
	"io"

	"aggmac/internal/network"
	"aggmac/internal/tcp"
	"aggmac/internal/topology"
)

// attachTrace streams net's channel timeline to w (see traceObserver); a
// nil writer attaches nothing.
func attachTrace(net *topology.Network, w io.Writer, nodes []int, format string) {
	if obs := traceObserver(w, nodes, format); obs != nil {
		net.Medium.SetObserver(obs)
	}
}

// newStacks creates one TCP stack per node of net, on net's scheduler. A
// zero config (MSS 0) selects tcp.DefaultConfig. NewStack schedules
// nothing and draws no randomness, so stack creation never moves an event.
func newStacks(net *topology.Network, cfg tcp.Config) []*tcp.Stack {
	if cfg.MSS == 0 {
		cfg = tcp.DefaultConfig()
	}
	stacks := make([]*tcp.Stack, len(net.Nodes))
	for i, node := range net.Nodes {
		stacks[i] = tcp.NewStack(net.Sched, node, cfg)
	}
	return stacks
}

// nodeReports snapshots every node's counters after a run; role(i, n)
// names node i of n.
func nodeReports(nodes []*network.Node, role func(i, n int) string) []NodeReport {
	reps := make([]NodeReport, len(nodes))
	for i, node := range nodes {
		reps[i] = NodeReport{
			ID:            i,
			Role:          role(i, len(nodes)),
			MAC:           node.MAC().Counters(),
			Net:           node.Stats(),
			PreambleBytes: node.MAC().PreambleBytesPerTx(),
		}
	}
	return reps
}

// trafficRoles names mesh nodes by their part in the traffic: "server" or
// "client" for flow endpoints (server wins for a node that is both),
// "relay" for a node that forwarded packets, else "idle".
func trafficRoles[F interface {
	endpoints() (srv, cli network.NodeID)
}](nodes []*network.Node, flows []F) func(i, n int) string {
	role := make([]string, len(nodes))
	for i, node := range nodes {
		role[i] = "idle"
		if node.Stats().Forwarded > 0 {
			role[i] = "relay"
		}
	}
	for _, f := range flows {
		_, cli := f.endpoints()
		role[cli] = "client"
	}
	for _, f := range flows {
		srv, _ := f.endpoints()
		role[srv] = "server"
	}
	return func(i, _ int) string { return role[i] }
}
