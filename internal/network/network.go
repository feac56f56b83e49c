// Package network provides the network layer of a simulated Hydra node:
// an IP-like packet format carried inside the Hydra/Click encapsulation,
// static routing (the paper forces multi-hop topologies with static routes
// because all nodes are in radio range; every node of a network reads its
// unicast next hops from one shared RouteTable), hop-by-hop forwarding,
// and the cross-layer classifier hook that sorts pure TCP ACKs into the
// MAC's broadcast queue.
package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"aggmac/internal/frame"
	"aggmac/internal/mac"
)

// NodeID identifies a node at the network layer; it equals the node's
// medium.NodeID.
type NodeID int

// BroadcastID addresses a packet to every node in range.
const BroadcastID NodeID = -1

// IP protocol numbers used by the simulated stack.
const (
	ProtoTCP   = 6
	ProtoUDP   = 17
	ProtoFlood = 253 // flooding/control traffic (route-discovery stand-in)
)

// Wire layout: [encap 39 B][IP-like header 20 B][transport payload][pad].
const (
	// EncapLen reproduces Hydra's Click encapsulation/annotation overhead;
	// with it, an MSS-1357 TCP segment becomes exactly the paper's 1464 B
	// MAC frame.
	EncapLen = 39
	// IPHeaderLen is the IP-like header.
	IPHeaderLen = 20
	// HeaderLen is the total network-layer overhead per packet.
	HeaderLen = EncapLen + IPHeaderLen
	// MinSubframeBytes is the PHY's minimum MAC frame size (channel
	// tracking needs a minimum symbol count); it makes a pure TCP ACK
	// exactly the paper's 160 B MAC frame.
	MinSubframeBytes = 160

	encapMagic = 0x4859 // "HY"
	defaultTTL = 16
)

// Errors returned by Send and the decoder.
var (
	ErrNoRoute   = errors.New("network: no route to destination")
	ErrQueueFull = errors.New("network: MAC queue full")
	ErrBadPacket = errors.New("network: malformed packet")
)

// Packet is one network-layer datagram.
type Packet struct {
	Proto   uint8
	TTL     uint8
	Src     NodeID
	Dst     NodeID
	ID      uint16
	Payload []byte
}

func nodeIP(id NodeID) uint32 {
	if id == BroadcastID {
		return 0x0affffff // 10.255.255.255
	}
	return 0x0a000000 | uint32(uint16(id))
}

func ipNode(ip uint32) NodeID {
	if ip == 0x0affffff {
		return BroadcastID
	}
	return NodeID(ip & 0xffff)
}

// Checksum is the RFC 1071 Internet checksum shared by the IP-like header,
// UDP and TCP: the ones-complement of the 16-bit ones-complement sum of b
// (an odd trailing byte is padded with a zero). Computed over bytes whose
// checksum field is zeroed it yields the value to store; over bytes that
// include a correct checksum it yields 0. Following RFC 1071 §2(C), it adds
// big-endian 64-bit words with end-around carry, four words per step, and
// folds to 16 bits once at the end: 2^16 ≡ 1 modulo 0xffff, so the 64-bit
// ones-complement sum folds to exactly the word-at-a-time result.
func Checksum(b []byte) uint16 {
	var sum, c uint64
	for len(b) >= 32 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[8:]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[16:]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[24:]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	// The tail is under eight bytes. Each piece starts on a 16-bit word
	// boundary, so its weight within the 64-bit word does not matter.
	if len(b) >= 4 {
		sum, c = bits.Add64(sum, uint64(binary.BigEndian.Uint32(b)), c)
		b = b[4:]
	}
	if len(b) >= 2 {
		sum, c = bits.Add64(sum, uint64(binary.BigEndian.Uint16(b)), c)
		b = b[2:]
	}
	if len(b) == 1 {
		sum, c = bits.Add64(sum, uint64(b[0])<<8, c)
	}
	// The pending carry is the end-around carry; the fold absorbs it.
	s := sum>>32 + sum&0xffffffff + c
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	return ^uint16(s)
}

// Marshal produces the subframe payload: encap, IP header, transport
// payload, and trailing pad up to the PHY minimum frame size.
func (p *Packet) Marshal() []byte {
	return p.AppendMarshal(make([]byte, 0, p.wireLen()))
}

// padLen is the trailing pad that lifts the packet to the PHY minimum frame.
func (p *Packet) padLen() int {
	if wire := frame.SubframeOverhead + HeaderLen + len(p.Payload); wire < MinSubframeBytes {
		return MinSubframeBytes - wire
	}
	return 0
}

// wireLen is the marshaled packet's length.
func (p *Packet) wireLen() int { return HeaderLen + len(p.Payload) + p.padLen() }

// AppendMarshal is Marshal appending to b. Every header and pad byte is
// written, so b may be a reused buffer holding stale bytes beyond its
// length.
func (p *Packet) AppendMarshal(b []byte) []byte {
	pad := p.padLen()
	start := len(b)
	// The header is appended zeroed: the encap's reserved bytes and the IP
	// checksum slot must read zero whatever the buffer held before.
	b = append(b, make([]byte, HeaderLen)...)
	h := b[start:]

	// Encap: magic(2) flags(1) padLen(2) reserved(34).
	binary.BigEndian.PutUint16(h[0:2], encapMagic)
	h[2] = 1 // version
	binary.BigEndian.PutUint16(h[3:5], uint16(pad))

	// IP-like header; bytes 3 and 16–19 (checksum slot) stay zero.
	ip := h[EncapLen:]
	ip[0] = 0x45
	ip[1] = p.Proto
	ip[2] = p.TTL
	binary.BigEndian.PutUint16(ip[4:6], uint16(IPHeaderLen+len(p.Payload)))
	binary.BigEndian.PutUint16(ip[6:8], p.ID)
	binary.BigEndian.PutUint32(ip[8:12], nodeIP(p.Src))
	binary.BigEndian.PutUint32(ip[12:16], nodeIP(p.Dst))
	binary.BigEndian.PutUint16(ip[16:18], Checksum(ip[:IPHeaderLen]))

	b = append(b, p.Payload...)
	// A byte at a time: the race build heap-allocates the make in an
	// append(b, make([]byte, pad)...) whose length is not a constant.
	for range pad {
		b = append(b, 0)
	}
	return b
}

// Decode parses a subframe payload back into a Packet. It checks the
// 20-byte IP header's checksum, which is cheap, and leaves the transport
// payload to the transport. The header check guards against garbage that
// a misaligned subframe walk might produce.
func Decode(b []byte) (Packet, error) {
	var p Packet
	if len(b) < HeaderLen {
		return p, fmt.Errorf("%w: %d bytes", ErrBadPacket, len(b))
	}
	if binary.BigEndian.Uint16(b[0:2]) != encapMagic {
		return p, fmt.Errorf("%w: bad encap magic", ErrBadPacket)
	}
	pad := int(binary.BigEndian.Uint16(b[3:5]))
	ip := b[EncapLen:]
	if ip[0] != 0x45 {
		return p, fmt.Errorf("%w: bad IP version", ErrBadPacket)
	}
	if Checksum(ip[:IPHeaderLen]) != 0 {
		// Checksum over a header including its own checksum folds to zero.
		return p, fmt.Errorf("%w: IP checksum", ErrBadPacket)
	}
	totLen := int(binary.BigEndian.Uint16(ip[4:6]))
	if totLen < IPHeaderLen || EncapLen+totLen+pad != len(b) {
		return p, fmt.Errorf("%w: length %d + pad %d vs %d", ErrBadPacket, totLen, pad, len(b))
	}
	p.Proto = ip[1]
	p.TTL = ip[2]
	p.ID = binary.BigEndian.Uint16(ip[6:8])
	p.Src = ipNode(binary.BigEndian.Uint32(ip[8:12]))
	p.Dst = ipNode(binary.BigEndian.Uint32(ip[12:16]))
	p.Payload = ip[IPHeaderLen:totLen]
	return p, nil
}

// Handler consumes packets addressed to (or broadcast at) this node.
type Handler func(pkt Packet)

// AckClassifier reports whether a transport payload is a pure TCP ACK
// (no data, not part of connection setup or teardown). The TCP package
// provides the implementation; injecting it here keeps the deliberate
// layering violation in one visible place.
type AckClassifier func(transport []byte) bool

// Stats counts network-layer events per node.
type Stats struct {
	Sent        int
	Forwarded   int
	Delivered   int
	AcksBcast   int // pure TCP ACKs routed through the broadcast queue
	ParseErrors int
	TTLDrops    int
	NoRoute     int
	QueueFull   int
}

// Node is the network layer of one simulated node.
type Node struct {
	id       NodeID
	mac      *mac.MAC
	table    *RouteTable // the routes this node reads; nil means none
	handlers map[uint8]Handler
	classify AckClassifier
	nextID   uint16
	stats    Stats
	// free holds packet buffers the MAC handed back through its release
	// hook (see AttachMAC); Send marshals into them, so steady-state
	// traffic allocates no packet bytes.
	free [][]byte
}

// NewNode creates the network layer for a node. Construct the MAC with the
// node's Bind() callback, then call AttachMAC:
//
//	node := network.NewNode(id)
//	m := mac.New(sched, med, id, opts, node.Bind())
//	node.AttachMAC(m)
func NewNode(id NodeID) *Node {
	return &Node{
		id:       id,
		handlers: make(map[uint8]Handler),
	}
}

// Bind returns the mac.DeliverFunc that feeds this node.
func (n *Node) Bind() mac.DeliverFunc {
	return func(d frame.DecodedSubframe, viaBroadcast bool) { n.fromMAC(d, viaBroadcast) }
}

// AttachMAC wires the node's transmit path and installs the MAC's release
// hook, through which every packet buffer Send hands down returns to the
// node's free list once its frame has left the MAC. It panics if called
// twice or skipped before Send: both are wiring bugs.
func (n *Node) AttachMAC(m *mac.MAC) {
	if n.mac != nil {
		panic("network: MAC attached twice")
	}
	n.mac = m
	m.SetRelease(n.release)
}

// release takes back a packet buffer the MAC is done with.
func (n *Node) release(b []byte) {
	if poisonReleased {
		for i := range b {
			b[i] = 0xA5
		}
	}
	n.free = append(n.free, b)
}

// poisonReleased, set only by tests, fills every released buffer with 0xA5
// so that a buffer still in use after its release changes the run's bytes.
var poisonReleased bool

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// MAC returns the underlying MAC entity.
func (n *Node) MAC() *mac.MAC { return n.mac }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats { return n.stats }

// SetRouteTable makes the node read its unicast routes from a table
// shared with the rest of its network. It panics if the node's id is not a
// node of the table: that is a wiring bug.
func (n *Node) SetRouteTable(t *RouteTable) {
	if uint(n.id) >= uint(len(t.cols)) {
		panic(fmt.Sprintf("network: node %d is outside a %d-node route table", n.id, len(t.cols)))
	}
	n.table = t
}

// RouteTable returns the node's route table, or nil if none is attached.
func (n *Node) RouteTable() *RouteTable { return n.table }

// Route reports the next hop for dst. A node with no route table has no
// unicast route.
func (n *Node) Route(dst NodeID) (NodeID, bool) {
	if n.table == nil {
		return 0, false
	}
	return n.table.Next(n.id, dst)
}

// Handle registers the upper-layer handler for an IP protocol number.
func (n *Node) Handle(proto uint8, h Handler) { n.handlers[proto] = h }

// SetAckClassifier installs the pure-TCP-ACK classifier.
func (n *Node) SetAckClassifier(c AckClassifier) { n.classify = c }

// Send originates or forwards a packet. Broadcast packets go out the
// broadcast queue unacknowledged; unicast packets are routed, and pure TCP
// ACKs ride the broadcast queue when the MAC's scheme classifies them.
// The packet is marshaled into a buffer of the node's own, so the caller
// may reuse pkt.Payload as soon as Send returns.
func (n *Node) Send(pkt Packet) error {
	if pkt.TTL == 0 {
		pkt.TTL = defaultTTL
	}
	if pkt.ID == 0 {
		n.nextID++
		pkt.ID = n.nextID
	}
	out := mac.Outgoing{Src: frame.NodeAddr(int(pkt.Src))}
	viaBroadcastQueue := false
	if pkt.Dst == BroadcastID {
		out.Dst = frame.Broadcast
		viaBroadcastQueue = true
	} else {
		next, ok := n.Route(pkt.Dst)
		if !ok {
			n.stats.NoRoute++
			return fmt.Errorf("%w: %d", ErrNoRoute, pkt.Dst)
		}
		out.Dst = frame.NodeAddr(int(next))
		if pkt.Proto == ProtoTCP && n.classify != nil &&
			n.mac.Opts().Scheme.ClassifyTCPAcks && n.classify(pkt.Payload) {
			viaBroadcastQueue = true
			n.stats.AcksBcast++
		}
	}
	var buf []byte
	if k := len(n.free); k > 0 {
		buf = n.free[k-1]
		n.free = n.free[:k-1]
	}
	if need := pkt.wireLen(); cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	out.Payload = pkt.AppendMarshal(buf[:0])
	if !n.mac.Enqueue(out, viaBroadcastQueue) {
		n.stats.QueueFull++
		return ErrQueueFull
	}
	n.stats.Sent++
	return nil
}

// fromMAC handles subframes the MAC delivered: parse, then consume or
// forward.
func (n *Node) fromMAC(d frame.DecodedSubframe, viaBroadcast bool) {
	pkt, err := Decode(d.Payload)
	if err != nil {
		n.stats.ParseErrors++
		return
	}
	if pkt.Dst == BroadcastID || pkt.Dst == n.id {
		n.stats.Delivered++
		if h := n.handlers[pkt.Proto]; h != nil {
			h(pkt)
		}
		return
	}
	// Relay role: forward along the static route.
	if pkt.TTL <= 1 {
		n.stats.TTLDrops++
		return
	}
	pkt.TTL--
	n.stats.Forwarded++
	_ = n.Send(pkt) // route misses / queue overflow are counted in stats
}
