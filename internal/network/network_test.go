package network

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"aggmac/internal/frame"
	"aggmac/internal/mac"
	"aggmac/internal/medium"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// rig builds a linear chain of n nodes with routes both directions.
type rig struct {
	s     *sim.Scheduler
	med   *medium.Medium
	nodes []*Node
}

func newRig(t *testing.T, n int, scheme mac.Scheme) *rig {
	t.Helper()
	r := &rig{s: sim.NewScheduler(7)}
	r.med = medium.New(r.s, phy.DefaultParams(), n)
	opts := mac.DefaultOptions(scheme, phy.Rate1300k)
	for i := 0; i < n; i++ {
		node := NewNode(NodeID(i))
		m := mac.New(r.s, r.med, medium.NodeID(i), opts, node.Bind())
		node.AttachMAC(m)
		r.nodes = append(r.nodes, node)
	}
	// Linear chain routes: next hop toward either end.
	chain := make([][]int, n)
	for i := 1; i < n; i++ {
		chain[i-1] = append(chain[i-1], i)
		chain[i] = append(chain[i], i-1)
	}
	tab := NewRouteTable(n, func(i int) []int { return chain[i] })
	for _, node := range r.nodes {
		node.SetRouteTable(tab)
	}
	return r
}

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{Proto: ProtoUDP, TTL: 9, Src: 0, Dst: 2, ID: 77, Payload: []byte("hello world")}
	b := p.Marshal()
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Proto != p.Proto || got.TTL != p.TTL || got.Src != p.Src || got.Dst != p.Dst || got.ID != p.ID {
		t.Fatalf("fields mangled: %+v vs %+v", got, p)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Fatal("payload mangled")
	}
}

func TestPacketMinFramePadding(t *testing.T) {
	// A 20-byte transport payload (pure TCP ACK) pads so the MAC subframe
	// is exactly the paper's 160 B.
	p := Packet{Proto: ProtoTCP, TTL: 1, Src: 0, Dst: 1, Payload: make([]byte, 20)}
	sf := frame.Subframe{Payload: p.Marshal()}
	if sf.WireSize() != MinSubframeBytes {
		t.Fatalf("ACK subframe = %d B, want %d", sf.WireSize(), MinSubframeBytes)
	}
	// An MSS-sized TCP segment -> 1464 B subframe.
	p.Payload = make([]byte, 20+1357)
	sf = frame.Subframe{Payload: p.Marshal()}
	if sf.WireSize() != 1464 {
		t.Fatalf("data subframe = %d B, want 1464", sf.WireSize())
	}
}

func TestPacketBroadcastRoundTrip(t *testing.T) {
	p := Packet{Proto: ProtoFlood, TTL: 1, Src: 3, Dst: BroadcastID, Payload: []byte("flood")}
	got, err := Decode(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != BroadcastID || got.Src != 3 {
		t.Fatalf("broadcast fields mangled: %+v", got)
	}
}

// TestAppendMarshalOverStaleBytes: a reused buffer's leftover bytes must not
// leak into the packet — the encap's reserved bytes, the IP checksum slot
// and the pad all come out as Marshal writes them.
func TestAppendMarshalOverStaleBytes(t *testing.T) {
	for _, n := range []int{0, 20, 1377} {
		p := Packet{Proto: ProtoTCP, TTL: 3, Src: 4, Dst: 5, ID: 6, Payload: bytes.Repeat([]byte{7}, n)}
		stale := bytes.Repeat([]byte{0xff}, 2*MinSubframeBytes+n)
		if got := p.AppendMarshal(stale[:0]); !bytes.Equal(got, p.Marshal()) {
			t.Fatalf("%d-byte payload: AppendMarshal over stale bytes differs from Marshal", n)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil decoded")
	}
	if _, err := Decode(make([]byte, HeaderLen)); err == nil {
		t.Error("zero magic decoded")
	}
	p := Packet{Proto: ProtoUDP, TTL: 1, Src: 0, Dst: 1, Payload: []byte("x")}
	b := p.Marshal()
	b[EncapLen+9] ^= 0xff // corrupt an IP header byte
	if _, err := Decode(b); err == nil {
		t.Error("checksum failure not detected")
	}
}

func TestOneHopDelivery(t *testing.T) {
	r := newRig(t, 2, mac.UA)
	var got []Packet
	r.nodes[1].Handle(ProtoUDP, func(p Packet) {
		p.Payload = bytes.Clone(p.Payload) // borrowed only for the call
		got = append(got, p)
	})
	r.s.After(0, "send", func() {
		if err := r.nodes[0].Send(Packet{Proto: ProtoUDP, Src: 0, Dst: 1, Payload: []byte("abc")}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	r.s.Run()
	if len(got) != 1 || string(got[0].Payload) != "abc" {
		t.Fatalf("delivery: %+v", got)
	}
	if r.nodes[1].Stats().Delivered != 1 {
		t.Fatal("delivered counter wrong")
	}
}

func TestMultiHopForwarding(t *testing.T) {
	r := newRig(t, 4, mac.UA)
	var got []Packet
	r.nodes[3].Handle(ProtoUDP, func(p Packet) { got = append(got, p) })
	r.s.After(0, "send", func() {
		_ = r.nodes[0].Send(Packet{Proto: ProtoUDP, Src: 0, Dst: 3, Payload: []byte("far")})
	})
	r.s.Run()
	if len(got) != 1 {
		t.Fatalf("3-hop delivery failed: %d packets", len(got))
	}
	if got[0].Src != 0 || got[0].TTL != defaultTTL-2 {
		t.Fatalf("forwarded packet fields: %+v", got[0])
	}
	if r.nodes[1].Stats().Forwarded != 1 || r.nodes[2].Stats().Forwarded != 1 {
		t.Fatal("relays did not count forwards")
	}
}

func TestTTLExpiry(t *testing.T) {
	r := newRig(t, 3, mac.UA)
	delivered := 0
	r.nodes[2].Handle(ProtoUDP, func(Packet) { delivered++ })
	r.s.After(0, "send", func() {
		_ = r.nodes[0].Send(Packet{Proto: ProtoUDP, TTL: 1, Src: 0, Dst: 2, Payload: []byte("dies")})
	})
	r.s.Run()
	if delivered != 0 {
		t.Fatal("TTL-1 packet crossed two hops")
	}
	if r.nodes[1].Stats().TTLDrops != 1 {
		t.Fatal("relay did not count the TTL drop")
	}
}

func TestNoRoute(t *testing.T) {
	r := newRig(t, 2, mac.UA)
	err := r.nodes[0].Send(Packet{Proto: ProtoUDP, Src: 0, Dst: 9})
	if err == nil {
		t.Fatal("send to unrouted destination succeeded")
	}
	if r.nodes[0].Stats().NoRoute != 1 {
		t.Fatal("NoRoute not counted")
	}
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	r := newRig(t, 4, mac.BA)
	got := make([]int, 4)
	for i := range r.nodes {
		i := i
		r.nodes[i].Handle(ProtoFlood, func(Packet) { got[i]++ })
	}
	r.s.After(0, "send", func() {
		_ = r.nodes[1].Send(Packet{Proto: ProtoFlood, Src: 1, Dst: BroadcastID, Payload: []byte("flood")})
	})
	r.s.Run()
	for i := range got {
		want := 1
		if i == 1 {
			want = 0 // no loopback
		}
		if got[i] != want {
			t.Errorf("node %d got %d floods, want %d", i, got[i], want)
		}
	}
}

func TestClassifierRoutesAcksToBroadcastQueue(t *testing.T) {
	r := newRig(t, 2, mac.BA)
	// Classifier: treat any 20-byte payload as a pure ACK.
	r.nodes[0].SetAckClassifier(func(b []byte) bool { return len(b) == 20 })
	r.s.After(0, "send", func() {
		_ = r.nodes[0].Send(Packet{Proto: ProtoTCP, Src: 0, Dst: 1, Payload: make([]byte, 20)})
		_ = r.nodes[0].Send(Packet{Proto: ProtoTCP, Src: 0, Dst: 1, Payload: make([]byte, 500)})
	})
	r.s.Run()
	if r.nodes[0].Stats().AcksBcast != 1 {
		t.Fatalf("AcksBcast = %d, want 1", r.nodes[0].Stats().AcksBcast)
	}
	c := r.nodes[0].MAC().Counters()
	if c.BroadcastSubTx != 1 || c.UnicastSubTx != 1 {
		t.Fatalf("portions %d/%d, want 1/1", c.BroadcastSubTx, c.UnicastSubTx)
	}
}

func TestClassifierIgnoredWhenSchemeOff(t *testing.T) {
	r := newRig(t, 2, mac.UA) // UA does not classify ACKs
	r.nodes[0].SetAckClassifier(func(b []byte) bool { return true })
	r.s.After(0, "send", func() {
		_ = r.nodes[0].Send(Packet{Proto: ProtoTCP, Src: 0, Dst: 1, Payload: make([]byte, 20)})
	})
	r.s.Run()
	if r.nodes[0].Stats().AcksBcast != 0 {
		t.Fatal("UA scheme must not classify ACKs as broadcasts")
	}
	if c := r.nodes[0].MAC().Counters(); c.BroadcastSubTx != 0 {
		t.Fatal("ACK left through the broadcast portion under UA")
	}
}

func TestForwardedAckReclassifiedAtRelay(t *testing.T) {
	// An ACK traveling 0->2 via relay 1 must ride the broadcast queue on
	// both hops.
	r := newRig(t, 3, mac.BA)
	for _, n := range r.nodes {
		n.SetAckClassifier(func(b []byte) bool { return len(b) == 20 })
	}
	delivered := 0
	r.nodes[2].Handle(ProtoTCP, func(Packet) { delivered++ })
	r.s.After(0, "send", func() {
		_ = r.nodes[0].Send(Packet{Proto: ProtoTCP, Src: 0, Dst: 2, Payload: make([]byte, 20)})
	})
	r.s.Run()
	if delivered != 1 {
		t.Fatalf("ACK not delivered end-to-end: %d", delivered)
	}
	if r.nodes[1].Stats().AcksBcast != 1 {
		t.Fatal("relay did not reclassify the forwarded ACK")
	}
	if c := r.nodes[1].MAC().Counters(); c.BroadcastSubTx != 1 {
		t.Fatal("relay sent the ACK outside the broadcast portion")
	}
}

// Property: Marshal/Decode round-trips arbitrary packets.
func TestPropertyPacketRoundTrip(t *testing.T) {
	f := func(proto, ttl uint8, src, dst uint16, id uint16, payload []byte) bool {
		if ttl == 0 {
			ttl = 1
		}
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		p := Packet{Proto: proto, TTL: ttl, Src: NodeID(src), Dst: NodeID(dst), ID: id, Payload: payload}
		got, err := Decode(p.Marshal())
		return err == nil && got.Proto == p.Proto && got.TTL == p.TTL &&
			got.Src == p.Src && got.Dst == p.Dst && got.ID == p.ID &&
			bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// TestRouteTableNodes: a node on a shared table reads its routes from it
// and never routes to itself or to ids outside the table; a node with no
// table has no unicast route, and a table cannot take a node outside it.
func TestRouteTableNodes(t *testing.T) {
	line := [][]int{0: {1}, 1: {0, 2}, 2: {1}, 3: {}}
	tab := NewRouteTable(len(line), func(i int) []int { return line[i] })
	nodes := make([]*Node, len(line))
	for i := range nodes {
		nodes[i] = NewNode(NodeID(i))
		nodes[i].SetRouteTable(tab)
	}
	if next, ok := nodes[0].Route(2); !ok || next != 1 {
		t.Errorf("route 0->2 via %v (ok=%v), want via 1", next, ok)
	}
	for _, dst := range []NodeID{0, 3, 4, BroadcastID} {
		if next, ok := nodes[0].Route(dst); ok {
			t.Errorf("route 0->%d via %v, want none", dst, next)
		}
	}
	if got := tab.Fill(); got != 6 { // the ordered pairs among 0, 1, 2
		t.Errorf("Fill counted %d routes, want 6", got)
	}

	// A node with no table refuses unicast before it touches its MAC.
	bare := NewNode(0)
	if err := bare.Send(Packet{Proto: ProtoUDP, Src: 0, Dst: 1}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("Send with no route table: err %v, want ErrNoRoute", err)
	}
	if got := bare.Stats().NoRoute; got != 1 {
		t.Errorf("Send with no route table counted NoRoute %d, want 1", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("attaching a table to a node outside it did not panic")
		}
	}()
	NewNode(4).SetRouteTable(tab)
}

// TestSendAllocFree pins the packet path's steady state: once the nodes'
// free lists are warm, originating a packet (0 → 1) or forwarding one
// (0 → 2 via 1), and carrying it over the air to its handler, allocates
// nothing.
func TestSendAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		dst  NodeID
	}{{"originate", 1}, {"forward", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 3, mac.UA)
			delivered := 0
			r.nodes[tc.dst].Handle(ProtoUDP, func(Packet) { delivered++ })
			payload := make([]byte, 1000)
			send := func() {
				if err := r.nodes[0].Send(Packet{Proto: ProtoUDP, Src: 0, Dst: tc.dst, Payload: payload}); err != nil {
					t.Fatal(err)
				}
			}
			step := func() {
				r.s.After(0, "send", send)
				r.s.Run()
			}
			for i := 0; i < 10; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Fatalf("Send allocates %.2f objects per packet, want 0", allocs)
			}
			if delivered != 111 {
				t.Fatalf("%d/111 packets delivered", delivered)
			}
			if tc.dst == 2 && r.nodes[1].Stats().Forwarded != 111 {
				t.Fatalf("relay forwarded %d/111 packets", r.nodes[1].Stats().Forwarded)
			}
		})
	}
}
