package tcp

import (
	"fmt"
	"sort"

	"aggmac/internal/network"
	"aggmac/internal/sim"
)

// connKey demultiplexes segments to connections.
type connKey struct {
	peer       network.NodeID
	localPort  uint16
	remotePort uint16
}

// Listener accepts inbound connections on a port.
type Listener struct {
	port uint16
	// OnConn fires when a connection completes the handshake.
	OnConn func(*Conn)
	// Setup customizes a half-open connection (callbacks, config) before
	// the SYN-ACK is sent.
	Setup func(*Conn)
}

// Stack is one node's TCP entity: it owns the connections and plugs the
// pure-ACK classifier into the network layer.
type Stack struct {
	sched     *sim.Scheduler
	node      *network.Node
	cfg       Config
	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16

	// retired accumulates the counters of connections removed from the
	// stack (closed or aborted), so Totals never loses history.
	retired Stats

	// scratch holds the segment being sent; network.Node.Send copies it.
	scratch []byte

	// sendOverride takes the segment by value, so that handing it over
	// does not move every emitted segment to the heap.
	sendOverride func(network.NodeID, Segment) error // tests only
}

// NewStack attaches a TCP entity to the node. It registers the protocol
// handler and the cross-layer classifier (the MAC only uses it when the
// scheme says so).
func NewStack(sched *sim.Scheduler, node *network.Node, cfg Config) *Stack {
	st := &Stack{
		sched:     sched,
		node:      node,
		cfg:       cfg,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  10000,
	}
	node.Handle(network.ProtoTCP, st.onPacket)
	node.SetAckClassifier(IsPureAck)
	return st
}

// Config returns the stack's default connection config.
func (st *Stack) Config() Config { return st.cfg }

// Listen accepts connections on port.
func (st *Stack) Listen(port uint16) *Listener {
	l := &Listener{port: port}
	st.listeners[port] = l
	return l
}

// Connect opens a connection to dst:port and sends the SYN.
func (st *Stack) Connect(dst network.NodeID, port uint16) *Conn {
	st.nextPort++
	c := st.newConn(dst, st.nextPort, port)
	c.state = StateSynSent
	c.iss = uint32(st.sched.Rand().Int63())
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.bufBase = c.iss + 1
	_ = c.emit(FlagSYN, c.iss, nil)
	c.armRTO()
	return c
}

func (st *Stack) newConn(peer network.NodeID, localPort, remotePort uint16) *Conn {
	c := &Conn{
		stack:      st,
		cfg:        st.cfg,
		peer:       peer,
		localPort:  localPort,
		remotePort: remotePort,
		reasm:      make(map[uint32][]byte),
		rto:        st.cfg.InitialRTO,
		peerWnd:    65535,
	}
	c.cwnd = float64(st.cfg.InitialCwndSegs * st.cfg.MSS)
	c.ssthresh = float64(int(st.cfg.Window))
	c.rtoFn = c.onRTO
	c.delAckFn = c.flushDelAck
	st.conns[connKey{peer, localPort, remotePort}] = c
	return c
}

func (st *Stack) drop(c *Conn) {
	st.retired.accumulate(c.stats)
	delete(st.conns, connKey{c.peer, c.localPort, c.remotePort})
}

// Totals returns the stack's cumulative counters: every retired
// connection plus every live one. The live sum iterates the connection
// map, but all fields are integers, so the result cannot depend on map
// iteration order — safe for deterministic telemetry sampling.
func (st *Stack) Totals() Stats {
	t := st.retired
	for _, c := range st.conns {
		t.accumulate(c.stats)
	}
	return t
}

// OpenConns reports the number of live connections and the sum of their
// congestion windows in bytes (an integer sum, order-independent).
func (st *Stack) OpenConns() (n, cwndBytes int) {
	for _, c := range st.conns {
		n++
		cwndBytes += int(c.cwnd)
	}
	return n, cwndBytes
}

// accumulate adds o's counters into s.
func (s *Stats) accumulate(o Stats) {
	s.SegsSent += o.SegsSent
	s.SegsRcvd += o.SegsRcvd
	s.BytesSent += o.BytesSent
	s.BytesAcked += o.BytesAcked
	s.BytesDelivered += o.BytesDelivered
	s.AcksSent += o.AcksSent
	s.PureAcksSent += o.PureAcksSent
	s.Retransmits += o.Retransmits
	s.FastRetransmits += o.FastRetransmits
	s.Timeouts += o.Timeouts
	s.DupAcksRcvd += o.DupAcksRcvd
	s.OutOfOrder += o.OutOfOrder
	s.SendBlocked += o.SendBlocked
}

// Abort kills every connection in place, as a node crash would: timers
// stopped, state forced closed, no FIN or RST on the wire and no OnClose
// callbacks — the peer finds out the hard way, through retransmission
// timeouts. Listeners survive (a recovered node accepts new connections).
// Connections are aborted in sorted key order so the (callback-free) walk
// stays deterministic regardless of map iteration order. It returns the
// number of connections aborted.
func (st *Stack) Abort() int {
	if len(st.conns) == 0 {
		return 0
	}
	keys := make([]connKey, 0, len(st.conns))
	for k := range st.conns {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.peer != b.peer {
			return a.peer < b.peer
		}
		if a.localPort != b.localPort {
			return a.localPort < b.localPort
		}
		return a.remotePort < b.remotePort
	})
	for _, k := range keys {
		c := st.conns[k]
		c.rtxTimer.Stop()
		c.delAckT.Stop()
		c.delAckN = 0
		// StateClosed makes every still-scheduled event on this connection
		// a guarded no-op (onRTO, the time-wait expiry, flushDelAck).
		c.state = StateClosed
		st.retired.accumulate(c.stats)
		delete(st.conns, k)
	}
	return len(keys)
}

// send marshals a segment into a network packet. Tests may intercept it.
func (st *Stack) send(peer network.NodeID, seg *Segment) error {
	if st.sendOverride != nil {
		return st.sendOverride(peer, *seg)
	}
	st.scratch = seg.AppendMarshal(st.scratch[:0])
	return st.node.Send(network.Packet{
		Proto:   network.ProtoTCP,
		Src:     st.node.ID(),
		Dst:     peer,
		Payload: st.scratch,
	})
}

// onPacket demultiplexes an inbound TCP packet.
func (st *Stack) onPacket(pkt network.Packet) {
	seg, err := parseSegment(pkt.Payload)
	if err != nil {
		return
	}
	key := connKey{pkt.Src, seg.DstPort, seg.SrcPort}
	if c, ok := st.conns[key]; ok {
		c.onSegment(&seg)
		return
	}
	// New connection? Only a SYN to a listening port qualifies.
	if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
		l, ok := st.listeners[seg.DstPort]
		if !ok {
			return
		}
		c := st.newConn(pkt.Src, seg.DstPort, seg.SrcPort)
		c.state = StateSynReceived
		c.iss = uint32(st.sched.Rand().Int63())
		c.sndUna = c.iss
		c.sndNxt = c.iss + 1
		c.bufBase = c.iss + 1
		c.rcvNxt = seg.Seq + 1
		c.peerWnd = seg.Window
		if l.Setup != nil {
			l.Setup(c)
		}
		established := c.OnEstablished
		c.OnEstablished = func() {
			if l.OnConn != nil {
				l.OnConn(c)
			}
			if established != nil {
				established()
			}
		}
		_ = c.emit(FlagSYN|FlagACK, c.iss, nil)
		c.armRTO()
	}
}

// String identifies the stack in traces.
func (st *Stack) String() string { return fmt.Sprintf("tcp(stack %d)", st.node.ID()) }
