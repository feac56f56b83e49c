package flood

import (
	"testing"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/mac"
	"aggmac/internal/medium"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

func rig(t *testing.T, n int, scheme mac.Scheme) (*sim.Scheduler, []*network.Node) {
	t.Helper()
	s := sim.NewScheduler(23)
	med := medium.New(s, phy.DefaultParams(), n)
	var nodes []*network.Node
	for i := 0; i < n; i++ {
		node := network.NewNode(network.NodeID(i))
		m := mac.New(s, med, medium.NodeID(i), mac.DefaultOptions(scheme, phy.Rate1300k), node.Bind())
		node.AttachMAC(m)
		nodes = append(nodes, node)
	}
	return s, nodes
}

func TestGeneratorEmitsAtInterval(t *testing.T) {
	s, nodes := rig(t, 3, mac.BA)
	g := NewGenerator(s, nodes[0], 100*time.Millisecond)
	c1 := NewCounter(nodes[1])
	c2 := NewCounter(nodes[2])
	s.After(0, "start", func() { g.Start() })
	s.RunUntil(time.Second)
	g.Stop()
	s.RunUntil(1100 * time.Millisecond)
	// ~10 frames in 1s at 100ms interval (jitter ±5ms).
	if g.Sent < 8 || g.Sent > 12 {
		t.Fatalf("generator sent %d frames in 1s at 100ms, want ~10", g.Sent)
	}
	if c1.Received != g.Sent || c2.Received != g.Sent {
		t.Fatalf("receivers got %d/%d of %d", c1.Received, c2.Received, g.Sent)
	}
}

func TestFloodFrameIs160Bytes(t *testing.T) {
	g := &Generator{FrameBytes: PaperFrameBytes}
	pkt := network.Packet{Proto: network.ProtoFlood, TTL: 1, Src: 0,
		Dst: network.BroadcastID, Payload: make([]byte, g.payloadBytes())}
	sf := frame.Subframe{Payload: pkt.Marshal()}
	if sf.WireSize() != PaperFrameBytes {
		t.Fatalf("flood subframe = %d B, want %d", sf.WireSize(), PaperFrameBytes)
	}
}

func TestFloodsAggregateWithUnicastUnderBA(t *testing.T) {
	s, nodes := rig(t, 2, mac.BA)
	g := NewGenerator(s, nodes[0], 20*time.Millisecond)
	NewCounter(nodes[1])
	pair := [][]int{{1}, {0}}
	nodes[0].SetRouteTable(network.NewRouteTable(2, func(i int) []int { return pair[i] }))
	// Unicast traffic from the same node: BA combines floods with it.
	s.After(0, "start", func() {
		g.Start()
		for i := 0; i < 30; i++ {
			_ = nodes[0].Send(network.Packet{Proto: network.ProtoUDP, Src: 0, Dst: 1,
				Payload: make([]byte, 1000)})
		}
	})
	s.RunUntil(time.Second)
	g.Stop()
	c := nodes[0].MAC().Counters()
	if c.BroadcastSubTx == 0 || c.UnicastSubTx == 0 {
		t.Fatalf("no mixing: bcast=%d ucast=%d", c.BroadcastSubTx, c.UnicastSubTx)
	}
	// At least one TX carried both portions: total TXs must be fewer than
	// the sum it would take separately.
	if c.DataTx >= c.BroadcastSubTx+30 {
		t.Errorf("BA never combined portions: %d TXs for %d floods + 30 unicast",
			c.DataTx, c.BroadcastSubTx)
	}
}

func TestNoJitterPhaseLockAvoidance(t *testing.T) {
	s, nodes := rig(t, 4, mac.BA)
	var gens []*Generator
	for _, n := range nodes {
		g := NewGenerator(s, n, 50*time.Millisecond)
		gens = append(gens, g)
	}
	counters := []*Counter{NewCounter(nodes[0]), NewCounter(nodes[1])}
	s.After(0, "start", func() {
		for _, g := range gens {
			g.Start()
		}
	})
	s.RunUntil(2 * time.Second)
	for _, g := range gens {
		g.Stop()
	}
	s.RunUntil(2200 * time.Millisecond)
	sent := 0
	for _, g := range gens {
		sent += g.Sent
	}
	// Each of the 2 counted nodes hears the other 3 generators.
	expect := sent * 3 / 4
	got := counters[0].Received
	if got < expect*8/10 {
		t.Fatalf("node 0 heard %d of ~%d floods: excessive collision loss", got, expect)
	}
	_ = counters[1]
}

func TestGeneratorStopIsIdempotent(t *testing.T) {
	s, nodes := rig(t, 2, mac.NA)
	g := NewGenerator(s, nodes[0], 10*time.Millisecond)
	g.Start()
	g.Start() // no-op
	g.Stop()
	g.Stop() // no-op
	s.RunUntil(100 * time.Millisecond)
	if g.Sent > 1 {
		t.Fatalf("stopped generator kept sending: %d", g.Sent)
	}
}
