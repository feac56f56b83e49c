package udp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/mac"
	"aggmac/internal/medium"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

func TestDatagramRoundTrip(t *testing.T) {
	d := Datagram{SrcPort: 9001, DstPort: 9000, Payload: []byte("datagram")}
	got, err := Decode(d.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != d.SrcPort || got.DstPort != d.DstPort || !bytes.Equal(got.Payload, d.Payload) {
		t.Fatalf("mangled: %+v", got)
	}
}

func TestDatagramRejectsCorruption(t *testing.T) {
	d := Datagram{SrcPort: 1, DstPort: 2, Payload: []byte("xyz")}
	b := d.Marshal()
	b[9] ^= 0x01
	if _, err := Decode(b); err == nil {
		t.Fatal("corrupted datagram decoded")
	}
	// Decode is the one verifying decoder: the endpoint's parser trusts
	// the link CRC and reads the flipped payload as is.
	if got, err := parseDatagram(b); err != nil || got.Payload[1] == d.Payload[1] {
		t.Fatalf("parseDatagram = %+v, %v; want the flipped payload, no error", got, err)
	}
	if _, err := Decode(b[:4]); err == nil {
		t.Fatal("short datagram decoded")
	}
	// Truncation changes length vs header.
	if _, err := Decode(d.Marshal()[:HeaderLen+1]); err == nil {
		t.Fatal("truncated datagram decoded")
	}
}

func TestPropertyDatagramRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		d := Datagram{SrcPort: sp, DstPort: dp, Payload: payload}
		got, err := Decode(d.Marshal())
		return err == nil && got.SrcPort == sp && got.DstPort == dp && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendMarshalOverStaleBytes: a reused buffer's leftover bytes must not
// leak into the datagram, least of all into the checksum slot.
func TestAppendMarshalOverStaleBytes(t *testing.T) {
	d := Datagram{SrcPort: 9001, DstPort: 9000, Payload: []byte("datagram")}
	stale := bytes.Repeat([]byte{0xff}, 64)
	if got := d.AppendMarshal(stale[:0]); !bytes.Equal(got, d.Marshal()) {
		t.Fatal("AppendMarshal over stale bytes differs from Marshal")
	}
}

func TestPaperPayloadSizesFrameTo1140(t *testing.T) {
	d := Datagram{SrcPort: 1, DstPort: 2, Payload: make([]byte, PaperPayloadBytes)}
	pkt := network.Packet{Proto: network.ProtoUDP, TTL: 2, Src: 0, Dst: 1, Payload: d.Marshal()}
	sf := frame.Subframe{Payload: pkt.Marshal()}
	if sf.WireSize() != PaperFrameBytes {
		t.Fatalf("UDP data subframe = %d B, paper says %d", sf.WireSize(), PaperFrameBytes)
	}
}

// rig: two nodes over the air.
func rig(t *testing.T) (*sim.Scheduler, []*Endpoint, []*network.Node) {
	t.Helper()
	s := sim.NewScheduler(17)
	med := medium.New(s, phy.DefaultParams(), 2)
	pair := [][]int{{1}, {0}}
	routes := network.NewRouteTable(2, func(i int) []int { return pair[i] })
	var eps []*Endpoint
	var nodes []*network.Node
	for i := 0; i < 2; i++ {
		node := network.NewNode(network.NodeID(i))
		m := mac.New(s, med, medium.NodeID(i), mac.DefaultOptions(mac.UA, phy.Rate2600k), node.Bind())
		node.AttachMAC(m)
		node.SetRouteTable(routes)
		eps = append(eps, NewEndpoint(s, node))
		nodes = append(nodes, node)
	}
	return s, eps, nodes
}

func TestEndpointSendReceive(t *testing.T) {
	s, eps, _ := rig(t)
	var got []Datagram
	var from network.NodeID
	eps[1].Listen(9000, func(src network.NodeID, d Datagram) {
		d.Payload = bytes.Clone(d.Payload) // borrowed only for the call
		got = append(got, d)
		from = src
	})
	s.After(0, "send", func() {
		if err := eps[0].Send(1, 9001, 9000, []byte("ping")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	s.Run()
	if len(got) != 1 || string(got[0].Payload) != "ping" || from != 0 {
		t.Fatalf("delivery: %+v from %d", got, from)
	}
}

func TestEndpointPortFiltering(t *testing.T) {
	s, eps, _ := rig(t)
	hits := 0
	eps[1].Listen(9000, func(network.NodeID, Datagram) { hits++ })
	s.After(0, "send", func() {
		_ = eps[0].Send(1, 9001, 9999, []byte("wrong port"))
		_ = eps[0].Send(1, 9001, 9000, []byte("right port"))
	})
	s.Run()
	if hits != 1 {
		t.Fatalf("port filter passed %d datagrams, want 1", hits)
	}
}

func TestSenderPacedMode(t *testing.T) {
	s, eps, _ := rig(t)
	sink := NewSink(eps[1], 9000)
	snd := &Sender{Endpoint: eps[0], Dst: 1, SrcPort: 9001, DstPort: 9000,
		PayloadBytes: 100, Interval: 10 * time.Millisecond, Burst: 2}
	s.After(0, "start", func() { snd.Start() })
	s.RunUntil(105 * time.Millisecond)
	snd.Stop()
	s.RunUntil(200 * time.Millisecond)
	// 11 ticks (t=0..100ms) x 2 packets.
	if snd.Sent < 20 || snd.Sent > 24 {
		t.Fatalf("paced sender sent %d, want ~22", snd.Sent)
	}
	if sink.Packets != snd.Sent {
		t.Fatalf("sink got %d of %d", sink.Packets, snd.Sent)
	}
}

func TestSenderSaturateMode(t *testing.T) {
	s, eps, nodes := rig(t)
	sink := NewSink(eps[1], 9000)
	snd := &Sender{Endpoint: eps[0], Dst: 1, SrcPort: 9001, DstPort: 9000}
	s.After(0, "start", func() { snd.Start() })
	s.RunUntil(2 * time.Second)
	snd.Stop()
	s.RunUntil(3 * time.Second)
	if sink.Packets < 100 {
		t.Fatalf("saturate mode delivered only %d packets in 2s", sink.Packets)
	}
	// The queue was kept fed: the MAC never starved for long. 1-hop at
	// 2.6 Mbps moves ~2.3+ Mbps of 1140B frames.
	if tput := float64(sink.Bytes) * 8 / 2 / 1e6; tput < 1.5 {
		t.Fatalf("saturated throughput %.2f Mbps too low", tput)
	}
	if d := nodes[0].MAC().Counters().QueueDrops; d != 0 {
		t.Errorf("saturate mode overflowed the MAC queue %d times", d)
	}
}

func TestSinkMeasurementWindow(t *testing.T) {
	s, eps, _ := rig(t)
	sink := NewSink(eps[1], 9000)
	sink.MeasureFrom(time.Second)
	snd := &Sender{Endpoint: eps[0], Dst: 1, SrcPort: 9001, DstPort: 9000,
		PayloadBytes: 1000, Interval: 50 * time.Millisecond, Burst: 1}
	s.After(0, "start", func() { snd.Start() })
	s.RunUntil(2 * time.Second)
	snd.Stop()
	if sink.Packets == 0 {
		t.Fatal("nothing delivered")
	}
	// Window excludes the first second: winBytes < total bytes.
	if sink.winBytes >= sink.Bytes {
		t.Fatalf("warmup not excluded: win=%d total=%d", sink.winBytes, sink.Bytes)
	}
	if tput := sink.ThroughputMbps(); tput <= 0 {
		t.Fatalf("throughput %v", tput)
	}
}

func TestDelayMeasurement(t *testing.T) {
	s, eps, _ := rig(t)
	sink := NewSink(eps[1], 9000)
	snd := &Sender{Endpoint: eps[0], Dst: 1, SrcPort: 9001, DstPort: 9000,
		PayloadBytes: 1000, Interval: 20 * time.Millisecond, Burst: 1, Timestamp: true}
	s.After(0, "start", func() { snd.Start() })
	s.RunUntil(2 * time.Second)
	snd.Stop()
	st := sink.Delays()
	if st.Count < 90 {
		t.Fatalf("only %d delay samples", st.Count)
	}
	// 1-hop 1000B at 2.6 Mbps: ~3-4 ms per exchange including overheads.
	if st.Mean < time.Millisecond || st.Mean > 20*time.Millisecond {
		t.Errorf("mean delay %v implausible", st.Mean)
	}
	if st.P50 > st.P95 || st.P95 > st.Max {
		t.Errorf("percentiles out of order: %v %v %v", st.P50, st.P95, st.Max)
	}
}

func TestDelayGrowsWithQueueing(t *testing.T) {
	run := func(burst int) time.Duration {
		s, eps, _ := rig(t)
		sink := NewSink(eps[1], 9000)
		snd := &Sender{Endpoint: eps[0], Dst: 1, SrcPort: 9001, DstPort: 9000,
			PayloadBytes: 1000, Interval: 50 * time.Millisecond, Burst: burst, Timestamp: true}
		s.After(0, "start", func() { snd.Start() })
		s.RunUntil(3 * time.Second)
		snd.Stop()
		return sink.Delays().Mean
	}
	light, heavy := run(1), run(10)
	if heavy <= light {
		t.Fatalf("queueing did not raise delay: burst=1 %v vs burst=10 %v", light, heavy)
	}
}

// TestSenderTickAllocFree pins the traffic generator's steady state: once
// the node's buffers are warm, a tick that sends a timestamped datagram
// and carries it over the air allocates nothing.
func TestSenderTickAllocFree(t *testing.T) {
	s, eps, _ := rig(t)
	got := 0
	eps[1].Listen(9000, func(network.NodeID, Datagram) { got++ })
	snd := &Sender{Endpoint: eps[0], Dst: 1, SrcPort: 9001, DstPort: 9000,
		Interval: 20 * time.Millisecond, Burst: 1, Timestamp: true}
	s.After(0, "start", snd.Start)
	step := func() { s.RunUntil(s.Now() + snd.Interval) }
	for i := 0; i < 10; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("a sender tick allocates %.2f objects, want 0", allocs)
	}
	if got < 100 || snd.Dropped != 0 {
		t.Fatalf("%d datagrams delivered, %d dropped", got, snd.Dropped)
	}
}
