package tcp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"aggmac/internal/mac"
	"aggmac/internal/medium"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

func TestSegmentRoundTrip(t *testing.T) {
	s := Segment{SrcPort: 10001, DstPort: 80, Seq: 0xdeadbeef, Ack: 0x1234,
		Flags: FlagACK | FlagPSH, Window: 4096, Payload: []byte("payload!")}
	got, err := DecodeSegment(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != s.SrcPort || got.DstPort != s.DstPort || got.Seq != s.Seq ||
		got.Ack != s.Ack || got.Flags != s.Flags || got.Window != s.Window {
		t.Fatalf("fields mangled: %+v", got)
	}
	if !bytes.Equal(got.Payload, s.Payload) {
		t.Fatal("payload mangled")
	}
}

// TestAppendMarshalOverStaleBytes: a reused buffer's leftover bytes must not
// leak into the segment — neither into the checksum nor the urgent pointer.
func TestAppendMarshalOverStaleBytes(t *testing.T) {
	s := Segment{SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4, Flags: FlagACK, Window: 5, Payload: []byte("xyz")}
	stale := bytes.Repeat([]byte{0xff}, 64)
	if got := s.AppendMarshal(stale[:0]); !bytes.Equal(got, s.Marshal()) {
		t.Fatal("AppendMarshal over stale bytes differs from Marshal")
	}
}

func TestSegmentChecksumDetectsCorruption(t *testing.T) {
	s := Segment{SrcPort: 1, DstPort: 2, Seq: 3, Flags: FlagACK, Payload: []byte("xyz")}
	b := s.Marshal()
	b[5] ^= 0x40
	if _, err := DecodeSegment(b); err == nil {
		t.Fatal("corrupted segment decoded")
	}
	// DecodeSegment is the one verifying decoder: the receive path's
	// parser trusts the link CRC and reads the flipped segment as is.
	if got, err := parseSegment(b); err != nil || got.Seq == s.Seq {
		t.Fatalf("parseSegment = %+v, %v; want the flipped Seq, no error", got, err)
	}
	if _, err := DecodeSegment(b[:10]); err == nil {
		t.Fatal("short segment decoded")
	}
}

func TestIsPureAckClassification(t *testing.T) {
	mk := func(flags uint8, payload []byte) []byte {
		return (&Segment{SrcPort: 1, DstPort: 2, Flags: flags, Payload: payload}).Marshal()
	}
	cases := []struct {
		name string
		b    []byte
		want bool
	}{
		{"pure ack", mk(FlagACK, nil), true},
		{"data segment", mk(FlagACK|FlagPSH, []byte("data")), false},
		{"syn", mk(FlagSYN, nil), false},
		{"syn-ack", mk(FlagSYN|FlagACK, nil), false},
		{"fin-ack", mk(FlagFIN|FlagACK, nil), false},
		{"rst", mk(FlagRST|FlagACK, nil), false},
		{"garbage", []byte{1, 2, 3}, false},
		{"data offset 6", func() []byte { b := mk(FlagACK, nil); b[12] = 6 << 4; return b }(), false},
		// The classifier trusts the link CRC and does not verify the
		// checksum (DecodeSegment does).
		{"pure ack, stale checksum", func() []byte { b := mk(FlagACK, nil); b[16] ^= 0xff; return b }(), true},
	}
	for _, c := range cases {
		if got := IsPureAck(c.b); got != c.want {
			t.Errorf("%s: IsPureAck = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPropertySegmentRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, wnd uint16, payload []byte) bool {
		if len(payload) > 3000 {
			payload = payload[:3000]
		}
		s := Segment{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags, Window: wnd, Payload: payload}
		got, err := DecodeSegment(s.Marshal())
		return err == nil && got.Seq == seq && got.Ack == ack && got.Flags == flags &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqArithmeticWraps(t *testing.T) {
	hi := uint32(0xffffff00)
	lo := uint32(0x00000100)
	if !seqLT(hi, lo) {
		t.Error("wrap: hi should be < lo across the wrap point")
	}
	if !seqGT(lo, hi) || !seqGE(lo, lo) || !seqLE(hi, hi) {
		t.Error("seq helpers inconsistent")
	}
}

// ---- over-the-air rigs ----

type airRig struct {
	s      *sim.Scheduler
	med    *medium.Medium
	nodes  []*network.Node
	stacks []*Stack
}

// newChain builds an n-node linear chain (all nodes in radio range; routes
// force the chain, like the paper's static routing).
func newChain(t testing.TB, n int, scheme mac.Scheme, rate phy.Rate, cfg Config) *airRig {
	r := &airRig{s: sim.NewScheduler(99)}
	r.med = medium.New(r.s, phy.DefaultParams(), n)
	opts := mac.DefaultOptions(scheme, rate)
	for i := 0; i < n; i++ {
		node := network.NewNode(network.NodeID(i))
		m := mac.New(r.s, r.med, medium.NodeID(i), opts, node.Bind())
		node.AttachMAC(m)
		r.nodes = append(r.nodes, node)
		r.stacks = append(r.stacks, NewStack(r.s, node, cfg))
	}
	chain := make([][]int, n)
	for i := 1; i < n; i++ {
		chain[i-1] = append(chain[i-1], i)
		chain[i] = append(chain[i], i-1)
	}
	routes := network.NewRouteTable(n, func(i int) []int { return chain[i] })
	for _, node := range r.nodes {
		node.SetRouteTable(routes)
	}
	return r
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i>>8)
	}
	return b
}

// runTransfer moves size bytes from node 0 to the last node and returns the
// received bytes plus both connections.
func runTransfer(t testing.TB, r *airRig, size int, deadline time.Duration) ([]byte, *Conn, *Conn) {
	t.Helper()
	last := len(r.stacks) - 1
	var rcvd []byte
	var serverConn, clientConn *Conn
	lis := r.stacks[last].Listen(80)
	lis.Setup = func(c *Conn) {
		clientConn = c
		c.OnData = func(b []byte) { rcvd = append(rcvd, b...) }
		c.OnPeerClose = func() { c.Close() }
	}
	data := pattern(size)
	r.s.After(0, "connect", func() {
		serverConn = r.stacks[0].Connect(network.NodeID(last), 80)
		serverConn.OnEstablished = func() {
			if err := serverConn.Send(data); err != nil {
				t.Errorf("Send: %v", err)
			}
			serverConn.Close()
		}
	})
	r.s.RunUntil(deadline)
	if !bytes.Equal(rcvd, data) {
		t.Fatalf("received %d bytes, want %d (content match: %v)", len(rcvd), len(data), bytes.Equal(rcvd, data[:min(len(rcvd), len(data))]))
	}
	return rcvd, serverConn, clientConn
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestHandshakeAndTransfer1Hop(t *testing.T) {
	r := newChain(t, 2, mac.UA, phy.Rate1300k, DefaultConfig())
	_, sc, cc := runTransfer(t, r, 50_000, 60*time.Second)
	if sc.State() != StateClosed && sc.State() != StateTimeWait {
		t.Errorf("server state %v after transfer", sc.State())
	}
	if cc.Stats().BytesDelivered != 50_000 {
		t.Errorf("client delivered %d bytes", cc.Stats().BytesDelivered)
	}
	if sc.Stats().Retransmits != 0 {
		t.Errorf("clean channel caused %d retransmits", sc.Stats().Retransmits)
	}
}

func TestTransfer2HopAllSchemes(t *testing.T) {
	for _, scheme := range []mac.Scheme{mac.NA, mac.UA, mac.BA, mac.DBA} {
		scheme := scheme
		t.Run(scheme.Name(), func(t *testing.T) {
			r := newChain(t, 3, scheme, phy.Rate1300k, DefaultConfig())
			_, _, cc := runTransfer(t, r, 100_000, 120*time.Second)
			if cc.Stats().BytesDelivered != 100_000 {
				t.Errorf("%s: delivered %d", scheme.Name(), cc.Stats().BytesDelivered)
			}
		})
	}
}

func TestBAClassifiesAcksOverTheAir(t *testing.T) {
	r := newChain(t, 3, mac.BA, phy.Rate1300k, DefaultConfig())
	runTransfer(t, r, 100_000, 120*time.Second)
	// The client originates pure ACKs; under BA they must leave through
	// the broadcast queue, and the relay must re-classify them.
	if a := r.nodes[2].Stats().AcksBcast; a == 0 {
		t.Error("client sent no ACKs via the broadcast queue")
	}
	if a := r.nodes[1].Stats().AcksBcast; a == 0 {
		t.Error("relay did not re-classify forwarded ACKs")
	}
	// And the relay actually put subframes in broadcast portions.
	if c := r.nodes[1].MAC().Counters(); c.BroadcastSubTx == 0 {
		t.Error("relay sent no broadcast subframes under BA")
	}
}

func TestNAAcksStayUnicast(t *testing.T) {
	r := newChain(t, 3, mac.NA, phy.Rate1300k, DefaultConfig())
	runTransfer(t, r, 50_000, 120*time.Second)
	if a := r.nodes[2].Stats().AcksBcast; a != 0 {
		t.Errorf("NA classified %d ACKs as broadcasts", a)
	}
	if c := r.nodes[1].MAC().Counters(); c.BroadcastSubTx != 0 {
		t.Error("NA relay used broadcast portions")
	}
}

func TestTransferSurvivesLossyLink(t *testing.T) {
	// 12.5 dB SNR: QPSK data frames fail often (FER ~60%), control frames
	// at BPSK survive. MAC retries mask most loss; TCP recovers the rest.
	r := newChain(t, 2, mac.UA, phy.Rate1300k, DefaultConfig())
	r.med.SetSNR(0, 1, 12.5)
	_, sc, _ := runTransfer(t, r, 30_000, 300*time.Second)
	if sc.Stats().Retransmits == 0 && r.nodes[0].MAC().Counters().Retries == 0 {
		t.Error("lossy link produced no retries at any layer — SNR model suspect")
	}
}

func TestTransferSurvivesAckLoss(t *testing.T) {
	// BA carries ACKs unacknowledged in broadcast portions; degrade the
	// reverse path so some die. Cumulative ACKs must still complete the
	// transfer.
	r := newChain(t, 2, mac.BA, phy.Rate1300k, DefaultConfig())
	r.med.SetSNR(0, 1, 15) // borderline: long data frames + some ACK loss
	_, _, cc := runTransfer(t, r, 30_000, 300*time.Second)
	if cc.Stats().BytesDelivered != 30_000 {
		t.Error("transfer incomplete under ACK loss")
	}
}

func TestDelayedAckReducesAckCount(t *testing.T) {
	cfgEvery := DefaultConfig()
	r1 := newChain(t, 2, mac.UA, phy.Rate1300k, cfgEvery)
	_, _, cc1 := runTransfer(t, r1, 60_000, 120*time.Second)

	cfgDel := DefaultConfig()
	cfgDel.DelayedAck = true
	r2 := newChain(t, 2, mac.UA, phy.Rate1300k, cfgDel)
	_, _, cc2 := runTransfer(t, r2, 60_000, 120*time.Second)

	if cc2.Stats().PureAcksSent >= cc1.Stats().PureAcksSent {
		t.Errorf("delayed ACK sent %d pure ACKs, every-segment sent %d",
			cc2.Stats().PureAcksSent, cc1.Stats().PureAcksSent)
	}
}

func TestConnAbortsWhenPeerVanishes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxTimeouts = 3
	cfg.MinRTO = 50 * time.Millisecond
	r := newChain(t, 2, mac.UA, phy.Rate1300k, cfg)
	var sc *Conn
	closed := false
	r.s.After(0, "connect", func() {
		sc = r.stacks[0].Connect(1, 80) // nothing listens; SYN black-holed
		sc.OnClose = func() { closed = true }
	})
	r.s.RunUntil(120 * time.Second)
	if !closed {
		t.Fatalf("connection to void never aborted (state %v)", sc.State())
	}
}

// ---- white-box reassembly and congestion tests ----

// loopPair wires two stacks back-to-back with a zero-loss instant pipe.
func loopPair(t *testing.T) (*sim.Scheduler, *Stack, *Stack) {
	t.Helper()
	s := sim.NewScheduler(5)
	med := medium.New(s, phy.DefaultParams(), 2)
	pair := [][]int{{1}, {0}}
	routes := network.NewRouteTable(2, func(i int) []int { return pair[i] })
	mkStack := func(i int) *Stack {
		node := network.NewNode(network.NodeID(i))
		m := mac.New(s, med, medium.NodeID(i), mac.DefaultOptions(mac.UA, phy.Rate2600k), node.Bind())
		node.AttachMAC(m)
		node.SetRouteTable(routes)
		return NewStack(s, node, DefaultConfig())
	}
	a, b := mkStack(0), mkStack(1)
	// Instant, reliable delivery: bypass the air entirely.
	a.sendOverride = func(peer network.NodeID, seg Segment) error {
		m := seg.Marshal()
		s.After(500*time.Microsecond, "pipeAB", func() {
			b.onPacket(network.Packet{Proto: network.ProtoTCP, Src: 0, Dst: 1, Payload: m})
		})
		return nil
	}
	b.sendOverride = func(peer network.NodeID, seg Segment) error {
		m := seg.Marshal()
		s.After(500*time.Microsecond, "pipeBA", func() {
			a.onPacket(network.Packet{Proto: network.ProtoTCP, Src: 1, Dst: 0, Payload: m})
		})
		return nil
	}
	return s, a, b
}

func TestReassemblyOutOfOrder(t *testing.T) {
	s, a, b := loopPair(t)
	var rcvd []byte
	var cc *Conn
	lis := b.Listen(80)
	lis.Setup = func(c *Conn) {
		cc = c
		c.OnData = func(p []byte) { rcvd = append(rcvd, p...) }
	}
	var sc *Conn
	s.After(0, "go", func() { sc = a.Connect(1, 80) })
	s.RunUntil(time.Second)
	if sc.State() != StateEstablished {
		t.Fatalf("handshake failed: %v", sc.State())
	}
	// Inject data segments out of order, directly.
	seg2 := &Segment{SrcPort: sc.localPort, DstPort: 80, Seq: sc.sndNxt + 5, Ack: sc.rcvNxt,
		Flags: FlagACK | FlagPSH, Window: 65535, Payload: []byte("WORLD")}
	seg1 := &Segment{SrcPort: sc.localPort, DstPort: 80, Seq: sc.sndNxt, Ack: sc.rcvNxt,
		Flags: FlagACK | FlagPSH, Window: 65535, Payload: []byte("HELLO")}
	s.After(time.Millisecond, "ooo", func() {
		b.onPacket(network.Packet{Proto: network.ProtoTCP, Src: 0, Dst: 1, Payload: seg2.Marshal()})
		b.onPacket(network.Packet{Proto: network.ProtoTCP, Src: 0, Dst: 1, Payload: seg1.Marshal()})
	})
	s.RunUntil(2 * time.Second)
	if string(rcvd) != "HELLOWORLD" {
		t.Fatalf("reassembled %q, want HELLOWORLD", rcvd)
	}
	if cc.Stats().OutOfOrder != 1 {
		t.Errorf("OutOfOrder = %d, want 1", cc.Stats().OutOfOrder)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	s, a, b := loopPair(t)
	lis := b.Listen(80)
	lis.Setup = func(c *Conn) { c.OnData = func([]byte) {} }
	var sc *Conn
	s.After(0, "go", func() {
		sc = a.Connect(1, 80)
		sc.OnEstablished = func() { _ = sc.Send(pattern(60_000)) }
	})
	s.RunUntil(10 * time.Second)
	// With no loss, cwnd must have grown well beyond the initial value.
	if sc.Cwnd() <= 2*sc.cfg.MSS {
		t.Errorf("cwnd never grew: %d", sc.Cwnd())
	}
	if sc.Stats().BytesAcked != 60_000 {
		t.Errorf("acked %d of 60000", sc.Stats().BytesAcked)
	}
}

func TestFastRetransmitOnDupAcks(t *testing.T) {
	s, a, b := loopPair(t)
	// Drop the 8th data segment: by then slow start has opened cwnd far
	// enough that the segments behind the hole generate 3+ dup ACKs.
	dataCount := 0
	dropped := false
	orig := a.sendOverride
	a.sendOverride = func(peer network.NodeID, seg Segment) error {
		if len(seg.Payload) > 0 {
			dataCount++
			if dataCount == 8 && !dropped {
				dropped = true
				return nil // swallowed
			}
		}
		return orig(peer, seg)
	}
	var rcvd int
	lis := b.Listen(80)
	lis.Setup = func(c *Conn) { c.OnData = func(p []byte) { rcvd += len(p) } }
	var sc *Conn
	s.After(0, "go", func() {
		sc = a.Connect(1, 80)
		sc.OnEstablished = func() { _ = sc.Send(pattern(40_000)) }
	})
	s.RunUntil(30 * time.Second)
	if rcvd != 40_000 {
		t.Fatalf("delivered %d of 40000", rcvd)
	}
	if sc.Stats().FastRetransmits == 0 {
		t.Errorf("loss recovered without fast retransmit (timeouts=%d)", sc.Stats().Timeouts)
	}
}

func TestRTTEstimator(t *testing.T) {
	c := &Conn{cfg: DefaultConfig()}
	c.updateRTT(100 * time.Millisecond)
	if c.srtt != 100*time.Millisecond {
		t.Fatalf("first sample srtt = %v", c.srtt)
	}
	if c.rto < c.cfg.MinRTO {
		t.Fatalf("rto %v below MinRTO", c.rto)
	}
	prev := c.srtt
	c.updateRTT(200 * time.Millisecond)
	if c.srtt <= prev {
		t.Error("srtt did not move toward larger sample")
	}
	// Convergence: many identical samples drive srtt to the sample.
	for i := 0; i < 50; i++ {
		c.updateRTT(80 * time.Millisecond)
	}
	if d := c.srtt - 80*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("srtt did not converge: %v", c.srtt)
	}
}

func TestConnStateString(t *testing.T) {
	for st := StateClosed; st <= StateTimeWait; st++ {
		if st.String() == "" {
			t.Error("empty state name")
		}
	}
}

// TestEmitAllocFree pins the segment path's steady state: once the nodes'
// buffers are warm, emitting a data segment or a pure ACK (which BA sends
// as a broadcast subframe) and carrying it over the air allocates nothing.
// The peer runs no connection, so it drops what it receives.
func TestEmitAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		flags   uint8
		payload []byte
	}{{"data", FlagACK | FlagPSH, make([]byte, 1357)}, {"pure-ack", FlagACK, nil}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newChain(t, 2, mac.BA, phy.Rate2600k, DefaultConfig())
			c := r.stacks[0].newConn(1, 10001, 80)
			c.state = StateEstablished
			emit := func() {
				if err := c.emit(tc.flags, c.sndNxt, tc.payload); err != nil {
					t.Fatal(err)
				}
			}
			step := func() {
				r.s.After(0, "emit", emit)
				r.s.Run()
			}
			for i := 0; i < 10; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Fatalf("emit allocates %.2f objects per segment, want 0", allocs)
			}
			st := r.nodes[0].Stats()
			if st.Sent != 111 {
				t.Fatalf("node sent %d/111 segments", st.Sent)
			}
			if wantBcast := len(tc.payload) == 0; (st.AcksBcast == st.Sent) != wantBcast {
				t.Fatalf("%d of %d segments went out as broadcast ACKs", st.AcksBcast, st.Sent)
			}
		})
	}
}
