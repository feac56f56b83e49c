// Integration tests: cross-module scenarios running the full stack —
// PHY model, channel, DCF MAC with aggregation, network layer, static
// routes, TCP/UDP/flooding — together.
package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/flood"
	"aggmac/internal/mac"
	"aggmac/internal/medium"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/tcp"
	"aggmac/internal/topology"
	"aggmac/internal/udp"
)

func baOpts(i, n int) mac.Options { return mac.DefaultOptions(mac.BA, phy.Rate1300k) }

// TestMixedWorkload runs TCP, UDP and flooding simultaneously on one
// 2-hop chain: everything must make progress and finish.
func TestMixedWorkload(t *testing.T) {
	net := topology.NewLinear(2, topology.Config{Seed: 5, Phy: phy.DefaultParams(), OptsFor: baOpts})

	// TCP 0 -> 2.
	stacks := make([]*tcp.Stack, 3)
	for i, n := range net.Nodes {
		stacks[i] = tcp.NewStack(net.Sched, n, tcp.DefaultConfig())
	}
	var tcpRcvd int
	lis := stacks[2].Listen(80)
	lis.Setup = func(c *tcp.Conn) {
		c.OnData = func(b []byte) { tcpRcvd += len(b) }
		c.OnPeerClose = func() { c.Close() }
	}

	// UDP 2 -> 0 (opposite direction).
	eps := make([]*udp.Endpoint, 3)
	for i, n := range net.Nodes {
		eps[i] = udp.NewEndpoint(net.Sched, n)
	}
	sink := udp.NewSink(eps[0], 9000)
	sender := &udp.Sender{Endpoint: eps[2], Dst: 0, SrcPort: 9001, DstPort: 9000,
		PayloadBytes: 500, Interval: 40 * time.Millisecond, Burst: 1}

	// Flooding from the relay.
	gen := flood.NewGenerator(net.Sched, net.Nodes[1], 300*time.Millisecond)
	floods := flood.NewCounter(net.Nodes[0])

	net.Sched.After(0, "start", func() {
		sender.Start()
		gen.Start()
		conn := stacks[0].Connect(2, 80)
		conn.OnEstablished = func() {
			_ = conn.Send(make([]byte, 100_000))
			conn.Close()
		}
	})
	net.Sched.RunUntil(60 * time.Second)
	sender.Stop()
	gen.Stop()

	if tcpRcvd != 100_000 {
		t.Errorf("TCP moved %d of 100000 bytes under mixed load", tcpRcvd)
	}
	if sink.Packets < 100 {
		t.Errorf("UDP delivered only %d packets under mixed load", sink.Packets)
	}
	if floods.Received < 10 {
		t.Errorf("floods delivered: %d", floods.Received)
	}
}

// TestFiveHopChain checks deep chains still converge.
func TestFiveHopChain(t *testing.T) {
	res := core.RunTCP(core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate1300k, Hops: 5,
		FileBytes: 60_000, Seed: 7})
	if !res.Completed {
		t.Fatal("5-hop transfer did not complete")
	}
	h2 := core.RunTCP(core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate1300k, Hops: 2,
		FileBytes: 60_000, Seed: 7})
	if res.ThroughputMbps >= h2.ThroughputMbps {
		t.Errorf("5-hop (%.3f) not slower than 2-hop (%.3f)", res.ThroughputMbps, h2.ThroughputMbps)
	}
}

// TestBidirectionalSessions runs two TCP transfers in opposite directions
// on one chain: both complete, and both directions' data frames aggregate.
func TestBidirectionalSessions(t *testing.T) {
	net := topology.NewLinear(2, topology.Config{Seed: 11, Phy: phy.DefaultParams(), OptsFor: baOpts})
	stacks := make([]*tcp.Stack, 3)
	for i, n := range net.Nodes {
		stacks[i] = tcp.NewStack(net.Sched, n, tcp.DefaultConfig())
	}
	rcvd := map[string]int{}
	setup := func(st *tcp.Stack, port uint16, key string) {
		lis := st.Listen(port)
		lis.Setup = func(c *tcp.Conn) {
			c.OnData = func(b []byte) { rcvd[key] += len(b) }
			c.OnPeerClose = func() { c.Close() }
		}
	}
	setup(stacks[2], 80, "fwd")
	setup(stacks[0], 81, "rev")
	net.Sched.After(0, "fwd", func() {
		c := stacks[0].Connect(2, 80)
		c.OnEstablished = func() { _ = c.Send(make([]byte, 80_000)); c.Close() }
	})
	net.Sched.After(3*time.Millisecond, "rev", func() {
		c := stacks[2].Connect(0, 81)
		c.OnEstablished = func() { _ = c.Send(make([]byte, 80_000)); c.Close() }
	})
	net.Sched.RunUntil(120 * time.Second)
	if rcvd["fwd"] != 80_000 || rcvd["rev"] != 80_000 {
		t.Fatalf("bidirectional transfers incomplete: %+v", rcvd)
	}
	// The relay carried both directions: data frames for both endpoints.
	if fw := net.Nodes[1].Stats().Forwarded; fw < 100 {
		t.Errorf("relay forwarded only %d packets", fw)
	}
}

// TestLinkFlapRecovery cuts the relay-client link mid-transfer for two
// seconds; MAC retries drop the bundles, TCP times out and recovers after
// the link returns.
func TestLinkFlapRecovery(t *testing.T) {
	net := topology.NewLinear(2, topology.Config{Seed: 13, Phy: phy.DefaultParams(), OptsFor: baOpts})
	stacks := make([]*tcp.Stack, 3)
	for i, n := range net.Nodes {
		stacks[i] = tcp.NewStack(net.Sched, n, tcp.DefaultConfig())
	}
	var rcvdBuf bytes.Buffer
	lis := stacks[2].Listen(80)
	lis.Setup = func(c *tcp.Conn) {
		c.OnData = func(b []byte) { rcvdBuf.Write(b) }
		c.OnPeerClose = func() { c.Close() }
	}
	data := make([]byte, 120_000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	net.Sched.After(0, "go", func() {
		c := stacks[0].Connect(2, 80)
		c.OnEstablished = func() { _ = c.Send(data); c.Close() }
	})
	net.Sched.After(500*time.Millisecond, "cut", func() {
		net.Medium.SetConnected(1, 2, false)
	})
	net.Sched.After(2500*time.Millisecond, "heal", func() {
		net.Medium.SetConnected(1, 2, true)
	})
	net.Sched.RunUntil(180 * time.Second)
	if !bytes.Equal(rcvdBuf.Bytes(), data) {
		t.Fatalf("after link flap: %d of %d bytes, content ok=%v",
			rcvdBuf.Len(), len(data), bytes.HasPrefix(data, rcvdBuf.Bytes()))
	}
	if d := net.Nodes[1].MAC().Counters().Drops; d == 0 {
		t.Error("relay never dropped a bundle during the outage")
	}
}

// TestNoUndetectedCorruption: on a noisy channel, every payload that
// reaches the application is byte-perfect — the FCS catches all damage.
func TestNoUndetectedCorruption(t *testing.T) {
	net := topology.NewLinear(1, topology.Config{Seed: 17, Phy: phy.DefaultParams(), OptsFor: baOpts})
	net.Medium.SetSNR(0, 1, 13) // heavy frame loss at QPSK
	eps := []*udp.Endpoint{udp.NewEndpoint(net.Sched, net.Nodes[0]), udp.NewEndpoint(net.Sched, net.Nodes[1])}
	bad := 0
	good := 0
	eps[1].Listen(9000, func(_ network.NodeID, d udp.Datagram) {
		for i, b := range d.Payload {
			if b != byte(i*31) {
				bad++
				return
			}
		}
		good++
	})
	payload := make([]byte, 800)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	n := 0
	var send func()
	send = func() {
		if n >= 300 {
			return
		}
		n++
		_ = eps[0].Send(1, 9001, 9000, payload)
		net.Sched.After(30*time.Millisecond, "next", send)
	}
	net.Sched.After(0, "start", send)
	net.Sched.RunUntil(30 * time.Second)
	if bad != 0 {
		t.Fatalf("%d corrupted payloads reached the application", bad)
	}
	if good == 0 {
		t.Fatal("nothing delivered at all")
	}
}

// TestExperimentDeterminism: identical configs and seeds give identical
// results across the whole experiment surface.
func TestExperimentDeterminism(t *testing.T) {
	u1 := core.RunUDP(core.UDPConfig{Scheme: mac.BA, Rate: phy.Rate1300k, Hops: 2,
		FloodInterval: 200 * time.Millisecond, Seed: 23, Duration: 20 * time.Second})
	u2 := core.RunUDP(core.UDPConfig{Scheme: mac.BA, Rate: phy.Rate1300k, Hops: 2,
		FloodInterval: 200 * time.Millisecond, Seed: 23, Duration: 20 * time.Second})
	if u1.ThroughputMbps != u2.ThroughputMbps || u1.SinkPackets != u2.SinkPackets ||
		u1.Delay.Mean != u2.Delay.Mean || u1.FloodsRcvd != u2.FloodsRcvd {
		t.Fatalf("UDP experiment not deterministic:\n%+v\n%+v", u1, u2)
	}
	s1 := core.RunTCP(core.TCPConfig{Scheme: mac.DBA, Rate: phy.Rate2600k, Star: true, Seed: 23})
	s2 := core.RunTCP(core.TCPConfig{Scheme: mac.DBA, Rate: phy.Rate2600k, Star: true, Seed: 23})
	if fmt.Sprint(s1.SessionMbps) != fmt.Sprint(s2.SessionMbps) {
		t.Fatalf("TCP star experiment not deterministic: %v vs %v", s1.SessionMbps, s2.SessionMbps)
	}
}

// TestDBATradesDelayForAggregation quantifies what the paper never
// measured: delayed BA's latency cost. On lightly paced traffic the
// 3-frame hold only adds flush-timeout delay (inter-arrivals exceed the
// flush, so aggregation cannot grow); on bursty arrivals the hold pays off
// as larger aggregates.
func TestDBATradesDelayForAggregation(t *testing.T) {
	run := func(scheme mac.Scheme, burst int, iv time.Duration) core.UDPResult {
		return core.RunUDP(core.UDPConfig{Scheme: scheme, Rate: phy.Rate1300k, Hops: 2,
			Burst: burst, Interval: iv, Seed: 29, Duration: 30 * time.Second})
	}
	// Light singles: pure delay cost, no aggregation benefit.
	ba := run(mac.BA, 1, 25*time.Millisecond)
	dba := run(mac.DBA, 1, 25*time.Millisecond)
	if dba.Delay.Mean <= ba.Delay.Mean {
		t.Errorf("DBA delay %v not above BA %v on paced traffic", dba.Delay.Mean, ba.Delay.Mean)
	}
	// Bursts of three: the hold converts into aggregation at the relay.
	dbaB := run(mac.DBA, 3, 75*time.Millisecond)
	relDBA := core.Relay(dbaB.Nodes).MAC
	if agg := relDBA.AvgSubframes(); agg < 2 {
		t.Errorf("DBA relay aggregation %.2f on bursty traffic, want >= 2", agg)
	}
}

// TestTinyQueuesStillComplete stresses drop-tail backpressure.
func TestTinyQueuesStillComplete(t *testing.T) {
	res := core.RunTCP(core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Hops: 2,
		FileBytes: 60_000, Seed: 31,
		Tweak: func(o *mac.Options) { o.QueueLimit = 6 }})
	if !res.Completed {
		t.Fatal("transfer with 6-frame queues did not complete")
	}
}

// TestRadioLimitedChainWithRTS: hidden terminals exist when radios only
// reach neighbours; RTS/CTS keeps the loss bounded and the transfer
// completes over the builder's static routes — with plain BA, and with
// BA plus the §7 block-ACK and coherence-capped aggregation extensions.
func TestRadioLimitedChainWithRTS(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		opts func(i, n int) mac.Options
	}{
		{"BA", 37, baOpts},
		{"BA+BlockAck+AutoAggSize", 19, func(i, n int) mac.Options {
			o := mac.DefaultOptions(mac.BA, phy.Rate650k)
			o.BlockAck = true
			o.AutoAggSize = true
			return o
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := topology.NewLinear(3, topology.Config{Seed: tc.seed, Phy: phy.DefaultParams(), OptsFor: tc.opts})
			for i := 0; i < 4; i++ {
				for j := i + 2; j < 4; j++ {
					net.Medium.SetConnected(medium.NodeID(i), medium.NodeID(j), false)
				}
			}
			stacks := make([]*tcp.Stack, 4)
			for i, n := range net.Nodes {
				stacks[i] = tcp.NewStack(net.Sched, n, tcp.DefaultConfig())
			}
			var rcvd int
			lis := stacks[3].Listen(80)
			lis.Setup = func(c *tcp.Conn) {
				c.OnData = func(b []byte) { rcvd += len(b) }
				c.OnPeerClose = func() { c.Close() }
			}
			net.Sched.After(0, "go", func() {
				c := stacks[0].Connect(3, 80)
				c.OnEstablished = func() { _ = c.Send(make([]byte, 60_000)); c.Close() }
			})
			net.Sched.RunUntil(180 * time.Second)
			if rcvd != 60_000 {
				t.Fatalf("hidden-terminal chain moved %d of 60000 bytes", rcvd)
			}
		})
	}
}
