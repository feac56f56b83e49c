// The run skeleton every entry point shares. Each Run function builds its
// network, attaches the tracer (attachTrace), creates its transport
// (newStacks), schedules its own traffic and dynamics, starts telemetry
// (startMetrics, in metrics.go) and runs; nodeReports snapshots the nodes
// afterwards. The order matters: it fixes where each scheduled event lands
// in the scheduler's FIFO tie-break, and so keeps the golden event
// sequences.
//
// RunUDP follows the same order with UDP endpoints in place of TCP stacks,
// but keeps its own body instead of riding the flow record below. Its one
// paced sender runs for a fixed window and is measured at the sink after a
// warmup, so none of a flow's connect, pump, completion or kill applies,
// and a flow generic over its transport would be longer than RunUDP.
package core

import (
	"io"
	"time"

	"aggmac/internal/network"
	"aggmac/internal/sim"
	"aggmac/internal/tcp"
	"aggmac/internal/topology"
	"aggmac/internal/traffic"
)

// flow is one TCP transfer: a mesh flow, a chain's session, one of the
// star's two, or a scenario arrival. Its two halves are separate because a
// sharded run listens on the client's shard before the run starts and
// connects later from the server's.
type flow struct {
	server, client network.NodeID
	hops           int
	port           uint16
	// size is the transfer's length. A flow with a size completes at the
	// byte that reaches it; a scenario flow (size 0) completes when its
	// sender closes.
	size int
	// model is a scenario flow's mix index; onComplete, when set, runs as
	// the flow settles (a closed-loop user resumes its think cycle).
	model      int
	onComplete func()

	start        sim.Time // the connect event
	got          int64    // payload bytes received
	lastProgress sim.Time
	maxStall     time.Duration
	done, killed bool
	finish       sim.Time
	// snd and rcv are the transfer's two connections, nil until connect
	// and the listener's accept create them.
	snd, rcv *tcp.Conn
}

// listen installs f's receive side on the client's stack and scheduler:
// received bytes, last progress, the longest stall between progress
// events, and completion, which calls settle once.
func (f *flow) listen(stack *tcp.Stack, sched *sim.Scheduler, settle func(*flow)) {
	stack.Listen(f.port).Setup = func(conn *tcp.Conn) {
		f.rcv = conn
		conn.OnData = func(b []byte) {
			f.got += int64(len(b))
			now := sched.Now()
			if gap := now - f.lastProgress; gap > f.maxStall {
				f.maxStall = gap
			}
			f.lastProgress = now
			if f.size > 0 && f.got >= int64(f.size) {
				f.complete(now, settle)
			}
		}
		// TCP delivers in order, so the peer's FIN arrives after every
		// payload byte. A flow without a size finishes at its last payload
		// byte, or at the close if it delivered none.
		conn.OnPeerClose = func() {
			conn.Close()
			if f.size == 0 {
				end := sched.Now()
				if f.got > 0 {
					end = f.lastProgress
				}
				f.complete(end, settle)
			}
		}
	}
}

// complete marks f done at the given time. A killed flow settled at the
// kill, so a late close from the surviving endpoint must not complete it.
func (f *flow) complete(at sim.Time, settle func(*flow)) {
	if f.done || f.killed {
		return
	}
	f.done = true
	f.finish = at
	settle(f)
}

// connect opens f's connection from the server's stack at the server
// scheduler's current time and pumps src onto it once established.
// payload is the run's zero send buffer, shared by every flow (see pump).
func (f *flow) connect(stack *tcp.Stack, sched *sim.Scheduler, src traffic.Source, payload *[]byte) {
	f.start = sched.Now()
	f.lastProgress = f.start
	conn := stack.Connect(f.client, f.port)
	f.snd = conn
	conn.OnEstablished = func() { pump(sched, conn, src, payload) }
}

// pump drives a source's chunk schedule onto the connection: pull the next
// (wait, bytes), send after wait, repeat; close when the source drains.
// Chunk times are anchored to pull time, and pulls happen at send events,
// so the on-wire offsets are exactly the source's cumulative schedule.
//
// tcp.Conn.Send keeps the slice it is given until the peer acknowledges
// it, so the payload is never written: it grows by replacement, which
// leaves the slices already sent intact.
func pump(sched *sim.Scheduler, conn *tcp.Conn, src traffic.Source, payload *[]byte) {
	wait, n, ok := src.Next()
	if !ok {
		conn.Close()
		return
	}
	send := func() {
		if n > len(*payload) {
			*payload = make([]byte, n)
		}
		_ = conn.Send((*payload)[:n])
		pump(sched, conn, src, payload)
	}
	if wait == 0 {
		send()
		return
	}
	sched.After(wait, "scn:send", send)
}

// killAt marks every live flow terminating at node as fault-killed and
// settles it (the crash hook calls it).
func killAt(flows []*flow, node network.NodeID, settle func(*flow)) {
	for _, f := range flows {
		if f.done || f.killed || (f.server != node && f.client != node) {
			continue
		}
		f.killed = true
		settle(f)
	}
}

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
func trafficRoles(nodes []*network.Node, flows []*flow) func(i, n int) string {
	role := make([]string, len(nodes))
	for i, node := range nodes {
		role[i] = "idle"
		if node.Stats().Forwarded > 0 {
			role[i] = "relay"
		}
	}
	for _, f := range flows {
		role[f.client] = "client"
	}
	for _, f := range flows {
		role[f.server] = "server"
	}
	return func(i, _ int) string { return role[i] }
}
