package medium

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// fakeRadio records everything the medium tells it.
type fakeRadio struct {
	busyEdges, idleEdges int
	ctrls                []frame.Control
	ctrlSrcs             []NodeID
	snrs                 []float64
	aggs                 []frame.DecodedAggregate
	aggSrcs              []NodeID
}

func (f *fakeRadio) CarrierBusy() { f.busyEdges++ }
func (f *fakeRadio) CarrierIdle() { f.idleEdges++ }
func (f *fakeRadio) RxControl(src NodeID, c frame.Control, snrdB float64) {
	f.ctrls = append(f.ctrls, c)
	f.ctrlSrcs = append(f.ctrlSrcs, src)
	f.snrs = append(f.snrs, snrdB)
}
func (f *fakeRadio) RxAggregate(src NodeID, hdr frame.PHYHeader, body []byte, _ *frame.DecodedAggregate) {
	// The decoded payloads alias the body, which is only borrowed for this
	// call: keep a copy.
	dec, err := frame.DecodeAggregate(hdr, bytes.Clone(body))
	if err != nil {
		return
	}
	f.aggs = append(f.aggs, dec)
	f.aggSrcs = append(f.aggSrcs, src)
}

func setup(t *testing.T, n int) (*sim.Scheduler, *Medium, []*fakeRadio) {
	t.Helper()
	s := sim.NewScheduler(1)
	m := New(s, phy.DefaultParams(), n)
	radios := make([]*fakeRadio, n)
	for i := range radios {
		radios[i] = &fakeRadio{}
		m.Attach(NodeID(i), radios[i])
	}
	return s, m, radios
}

func dataAgg(n int, payload int, dst frame.Addr) *frame.Aggregate {
	agg := &frame.Aggregate{UnicastRate: phy.Rate1300k}
	for i := 0; i < n; i++ {
		agg.Unicast = append(agg.Unicast, &frame.Subframe{
			Addr1: dst, Addr2: frame.NodeAddr(0), Payload: make([]byte, payload),
		})
	}
	return agg
}

func TestControlDelivery(t *testing.T) {
	s, m, radios := setup(t, 3)
	c := frame.Control{Type: frame.TypeRTS, Duration: time.Millisecond, RA: frame.NodeAddr(1), TA: frame.NodeAddr(0)}
	var dur time.Duration
	s.After(0, "tx", func() { dur = m.TransmitControl(0, c) })
	s.Run()
	want := m.ControlAirtime(&c)
	if dur != want {
		t.Fatalf("airtime %v, want %v", dur, want)
	}
	// 20 bytes at 0.65 Mbps + 320 µs preamble.
	if want != 320*time.Microsecond+phy.Airtime(frame.RTSLen, phy.Rate650k) {
		t.Fatalf("RTS airtime = %v", want)
	}
	for i := 1; i <= 2; i++ {
		if len(radios[i].ctrls) != 1 {
			t.Fatalf("radio %d got %d controls, want 1", i, len(radios[i].ctrls))
		}
		if radios[i].ctrls[0].Type != frame.TypeRTS || radios[i].ctrlSrcs[0] != 0 {
			t.Fatalf("radio %d got %+v from %d", i, radios[i].ctrls[0], radios[i].ctrlSrcs[0])
		}
	}
	if len(radios[0].ctrls) != 0 {
		t.Fatal("transmitter received its own frame")
	}
}

func TestCarrierSenseEdges(t *testing.T) {
	s, m, radios := setup(t, 3)
	s.After(0, "tx", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.Run()
	for i := 1; i <= 2; i++ {
		if radios[i].busyEdges != 1 || radios[i].idleEdges != 1 {
			t.Fatalf("radio %d edges busy=%d idle=%d, want 1/1", i, radios[i].busyEdges, radios[i].idleEdges)
		}
	}
	if radios[0].busyEdges != 0 {
		t.Fatal("transmitter sensed its own carrier")
	}
	if m.CarrierBusy(1) {
		t.Fatal("carrier still busy after end")
	}
}

func TestCarrierBusyDuringTransmission(t *testing.T) {
	s, m, _ := setup(t, 2)
	agg := dataAgg(1, 1000, frame.NodeAddr(1))
	s.After(0, "tx", func() { m.TransmitAggregate(0, agg) })
	s.After(time.Millisecond, "check", func() {
		if !m.CarrierBusy(1) {
			t.Error("node 1 should sense busy mid-frame")
		}
		if !m.Transmitting(0) {
			t.Error("node 0 should be transmitting")
		}
	})
	s.Run()
}

func TestAggregateDeliveryClean(t *testing.T) {
	s, m, radios := setup(t, 2)
	agg := dataAgg(3, 1436, frame.NodeAddr(1))
	s.After(0, "tx", func() { m.TransmitAggregate(0, agg) })
	s.Run()
	if len(radios[1].aggs) != 1 {
		t.Fatalf("got %d aggregates, want 1", len(radios[1].aggs))
	}
	dec := radios[1].aggs[0]
	if len(dec.Unicast) != 3 {
		t.Fatalf("decoded %d unicast subframes, want 3", len(dec.Unicast))
	}
	for i, d := range dec.Unicast {
		if !d.CRCOK {
			t.Errorf("subframe %d corrupted on a clean 25 dB link", i)
		}
	}
}

func TestAggregateAirtimeComposition(t *testing.T) {
	_, m, _ := setup(t, 2)
	p := m.Params()
	// Unicast-only: preamble + bytes at unicast rate; no broadcast desc.
	u := dataAgg(2, 1436, frame.NodeAddr(1))
	want := p.PreamblePLCP + phy.Airtime(2*1464, phy.Rate1300k)
	if got := m.AggregateAirtime(u); got != want {
		t.Errorf("unicast-only airtime %v, want %v", got, want)
	}
	// Mixed: broadcast desc + broadcast portion at its own rate.
	mix := dataAgg(1, 1436, frame.NodeAddr(1))
	mix.BroadcastRate = phy.Rate650k
	mix.Broadcast = []*frame.Subframe{{Addr1: frame.NodeAddr(1), Payload: make([]byte, 132)}}
	want = p.PreamblePLCP + p.BroadcastDescDuration(true) +
		phy.Airtime(160, phy.Rate650k) + phy.Airtime(1464, phy.Rate1300k)
	if got := m.AggregateAirtime(mix); got != want {
		t.Errorf("mixed airtime %v, want %v", got, want)
	}
}

func TestCollisionDestroysBoth(t *testing.T) {
	s, m, radios := setup(t, 3)
	// Nodes 0 and 1 transmit overlapping frames; node 2 hears both -> loses both.
	s.After(0, "tx0", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(2)}) })
	s.After(10*time.Microsecond, "tx1", func() {
		m.TransmitControl(1, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(2)})
	})
	s.Run()
	if len(radios[2].ctrls) != 0 {
		t.Fatalf("node 2 decoded %d frames out of a collision", len(radios[2].ctrls))
	}
	if m.Stats().Collisions == 0 {
		t.Fatal("collision not counted")
	}
}

func TestNoCollisionWhenDisjointInTime(t *testing.T) {
	s, m, radios := setup(t, 3)
	c := frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(2)}
	air := m.ControlAirtime(&c)
	s.After(0, "tx0", func() { m.TransmitControl(0, c) })
	s.After(air+time.Microsecond, "tx1", func() { m.TransmitControl(1, c) })
	s.Run()
	if len(radios[2].ctrls) != 2 {
		t.Fatalf("node 2 got %d frames, want 2", len(radios[2].ctrls))
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	s, m, radios := setup(t, 3)
	// 0 and 2 cannot hear each other; both transmit to 1 -> collision at 1.
	m.SetConnected(0, 2, false)
	s.After(0, "tx0", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.After(time.Microsecond, "tx2", func() { m.TransmitControl(2, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.Run()
	if len(radios[1].ctrls) != 0 {
		t.Fatal("hidden-terminal collision not destructive at shared receiver")
	}
}

func TestDisconnectedLinkNoDelivery(t *testing.T) {
	s, m, radios := setup(t, 3)
	m.SetConnected(0, 2, false)
	s.After(0, "tx", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.Run()
	if len(radios[1].ctrls) != 1 {
		t.Fatal("connected node missed frame")
	}
	if len(radios[2].ctrls) != 0 {
		t.Fatal("disconnected node received frame")
	}
	if radios[2].busyEdges != 0 {
		t.Fatal("disconnected node sensed carrier")
	}
}

func TestHalfDuplexReceiverTransmitting(t *testing.T) {
	s, m, radios := setup(t, 3)
	// Node 1 starts a long transmission; node 0's frame arrives while node 1
	// is still on the air (no collision at 1's receivers needed): node 1
	// must miss it.
	long := dataAgg(3, 1436, frame.NodeAddr(2))
	m.SetConnected(0, 2, false) // node 2 only hears node 1
	s.After(0, "tx1", func() { m.TransmitAggregate(1, long) })
	s.After(time.Millisecond, "tx0", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeAck, RA: frame.NodeAddr(1)}) })
	s.Run()
	if len(radios[1].ctrls) != 0 {
		t.Fatal("transmitting node decoded an overlapping frame (half duplex violated)")
	}
}

func TestAgedSubframesCorrupted(t *testing.T) {
	s, m, radios := setup(t, 2)
	// 12 KB of unicast at 0.65 Mbps is ~148 ms of airtime: far past the
	// 60 ms coherence budget. Early subframes survive, late ones must die.
	agg := dataAgg(8, 1436, frame.NodeAddr(1))
	agg.UnicastRate = phy.Rate650k
	s.After(0, "tx", func() { m.TransmitAggregate(0, agg) })
	s.Run()
	if len(radios[1].aggs) != 1 {
		t.Fatalf("got %d aggregates", len(radios[1].aggs))
	}
	dec := radios[1].aggs[0]
	okCount := 0
	for _, d := range dec.Unicast {
		if d.CRCOK {
			okCount++
		}
	}
	decoded := len(dec.Unicast)
	// First ~3 subframes fit in budget (3*1464B ≈ 54ms+preamble).
	if decoded > 0 && !dec.Unicast[0].CRCOK {
		t.Error("first subframe (within coherence) corrupted")
	}
	if okCount == decoded && dec.LostBytes == 0 {
		t.Errorf("no aged subframe corrupted: %d/%d ok", okCount, decoded)
	}
}

func TestBroadcastPortionAgesAfterPrefix(t *testing.T) {
	s, m, radios := setup(t, 2)
	// Broadcast subframes ride first: with a huge unicast tail, the
	// broadcasts still survive.
	agg := dataAgg(8, 1436, frame.NodeAddr(1))
	agg.UnicastRate = phy.Rate650k
	agg.BroadcastRate = phy.Rate650k
	agg.Broadcast = []*frame.Subframe{{Addr1: frame.NodeAddr(1), Payload: make([]byte, 132)}}
	s.After(0, "tx", func() { m.TransmitAggregate(0, agg) })
	s.Run()
	if len(radios[1].aggs) != 1 {
		t.Fatalf("got %d aggregates", len(radios[1].aggs))
	}
	dec := radios[1].aggs[0]
	if len(dec.Broadcast) != 1 || !dec.Broadcast[0].CRCOK {
		t.Error("leading broadcast subframe should survive aging")
	}
}

func TestWeakLinkCorruptsFrames(t *testing.T) {
	s, m, radios := setup(t, 2)
	m.SetSNR(0, 1, 3) // 3 dB: hopeless for QPSK
	lost := 0
	const tries = 20
	var send func(i int)
	send = func(i int) {
		if i >= tries {
			return
		}
		agg := dataAgg(1, 1436, frame.NodeAddr(1))
		d := m.TransmitAggregate(0, agg)
		s.After(d+time.Millisecond, "next", func() { send(i + 1) })
	}
	s.After(0, "start", func() { send(0) })
	s.Run()
	for _, dec := range radios[1].aggs {
		for _, sf := range dec.Unicast {
			if !sf.CRCOK {
				lost++
			}
		}
	}
	// Frames that never even decoded count as lost too.
	lost += tries - len(radios[1].aggs)
	if lost < tries/2 {
		t.Fatalf("only %d/%d frames corrupted on a 3 dB link", lost, tries)
	}
}

func TestAttachTwicePanics(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, phy.DefaultParams(), 2)
	m.Attach(0, &fakeRadio{})
	defer func() {
		if recover() == nil {
			t.Fatal("double attach did not panic")
		}
	}()
	m.Attach(0, &fakeRadio{})
}

// Zero-copy contract: every receiver that heard the frame cleanly borrows
// the SAME bytes (marshal once, deliver many), and those bytes are exactly
// the marshaled aggregate. The body is only valid during RxAggregate (see
// Radio.RxAggregate), so the bytes are compared inside the callback.
func TestCleanDeliverySharesBody(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, phy.DefaultParams(), 3)
	agg := dataAgg(1, 100, frame.NodeAddr(1))
	want, _ := agg.Marshal()
	var firsts []*byte
	for i := 0; i < 3; i++ {
		m.Attach(NodeID(i), &captureRadio{onAgg: func(body []byte) {
			if !bytes.Equal(body, want) {
				t.Error("clean body differs from the marshaled aggregate")
			}
			firsts = append(firsts, &body[0])
		}})
	}
	s.After(0, "tx", func() { m.TransmitAggregate(0, agg) })
	s.Run()
	if len(firsts) != 2 {
		t.Fatalf("got %d bodies", len(firsts))
	}
	if firsts[0] != firsts[1] {
		t.Fatal("clean receivers should share one body (zero-copy delivery)")
	}
}

// Copy-on-corrupt contract: a receiver whose copy of the air was damaged
// gets private bytes, and the clean receiver after it on every frame sees
// the marshaled aggregate unchanged. Bytes are compared inside the
// callback, while the body is still valid.
func TestCorruptDeliveryGetsPrivateCopy(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, phy.DefaultParams(), 3)
	agg := dataAgg(1, 200, frame.NodeAddr(1))
	want, _ := agg.Marshal()
	var clean, corrupted int
	var corruptAt *byte
	m.Attach(0, &captureRadio{onAgg: func([]byte) {}})
	m.Attach(1, &captureRadio{onAgg: func(body []byte) {
		corruptAt = nil
		if !bytes.Equal(body, want) {
			corrupted++
			corruptAt = &body[0]
		}
	}})
	m.Attach(2, &captureRadio{onAgg: func(body []byte) {
		if !bytes.Equal(body, want) {
			t.Error("clean receiver saw corrupted bytes: copy-on-corrupt mutated the shared body")
		}
		if corruptAt == &body[0] {
			t.Error("corrupted receiver was handed the shared body, not a private copy")
		}
		clean++
	}})
	m.SetSNR(0, 1, 4) // node 1 hears a badly degraded copy; node 2 is clean
	const tries = 60
	for i := 0; i < tries; i++ {
		s.After(sim.Time(i)*time.Second, "tx", func() { m.TransmitAggregate(0, agg) })
	}
	s.Run()
	if clean != tries {
		t.Fatalf("clean receiver got %d/%d frames", clean, tries)
	}
	if corrupted == 0 {
		t.Fatalf("no corrupted deliveries in %d tries on a 4 dB link", tries)
	}
}

// TestCorruptReceiverLeavesLaterCleanReceiversIntact interleaves corrupted
// and clean receivers of one frame in delivery order (ascending node id):
// however many corrupted copies precede it, each clean receiver sees the
// marshaled bytes, and every clean receiver of a frame sees the same ones.
func TestCorruptReceiverLeavesLaterCleanReceiversIntact(t *testing.T) {
	const n = 7
	s := sim.NewScheduler(3)
	m := New(s, phy.DefaultParams(), n)
	agg := dataAgg(2, 300, frame.Broadcast)
	want, _ := agg.Marshal()
	var cleanAt *byte
	var clean, sawCorrupt, afterCorrupt int
	m.Attach(0, &captureRadio{onAgg: func([]byte) {}})
	for i := 1; i < n; i++ {
		if i%2 == 1 {
			m.SetSNR(0, NodeID(i), 4) // odd receivers hear a damaged copy
			m.Attach(NodeID(i), &captureRadio{onAgg: func(body []byte) {
				if !bytes.Equal(body, want) {
					sawCorrupt++
				}
			}})
			continue
		}
		m.Attach(NodeID(i), &captureRadio{onAgg: func(body []byte) {
			if !bytes.Equal(body, want) {
				t.Errorf("clean receiver %d saw bytes a corrupted receiver changed", i)
			}
			if cleanAt == nil {
				cleanAt = &body[0]
			} else if cleanAt != &body[0] {
				t.Errorf("clean receiver %d got a body of its own", i)
			}
			if sawCorrupt > 0 {
				afterCorrupt++
			}
			clean++
		}})
	}
	const tries = 40
	for i := 0; i < tries; i++ {
		s.After(sim.Time(i)*time.Second, "tx", func() {
			cleanAt, sawCorrupt = nil, 0
			m.TransmitAggregate(0, agg)
		})
	}
	s.Run()
	if clean != tries*(n-1)/2 {
		t.Fatalf("clean receivers got %d/%d frames", clean, tries*(n-1)/2)
	}
	if afterCorrupt < tries/2 {
		t.Fatalf("only %d clean deliveries followed a corrupted one in %d frames", afterCorrupt, tries)
	}
}

// TestMediumAllocFree pins the transmit path's steady state: once the pool
// is warm, a launch plus its delivery allocates nothing, whether receivers
// hear the frame cleanly or a corrupted receiver needs its copy, and
// consecutive launches marshal into one reused body buffer.
func TestMediumAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		snrdB float64
	}{{"clean", phy.DefaultParams().SNRdB}, {"corrupt", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			agg := dataAgg(3, 1000, frame.NodeAddr(1))
			want, _ := agg.Marshal()
			s := sim.NewScheduler(1)
			m := New(s, phy.DefaultParams(), 3)
			var at *byte
			var reused, launches, corrupted int
			m.Attach(0, nopRadio{})
			m.Attach(1, &captureRadio{onAgg: func(body []byte) {
				if !bytes.Equal(body, want) {
					corrupted++
				}
			}})
			m.Attach(2, &captureRadio{onAgg: func(body []byte) {
				if at == &body[0] {
					reused++
				}
				at = &body[0]
				launches++
			}})
			m.SetSNR(0, 1, tc.snrdB)
			tx := func() { m.TransmitAggregate(0, agg) }
			step := func() {
				s.After(0, "tx", tx)
				s.Run()
			}
			for i := 0; i < 10; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Fatalf("launch + delivery allocates %.2f objects, want 0", allocs)
			}
			if reused != launches-1 {
				t.Fatalf("%d of %d consecutive launches reused the body buffer", reused, launches-1)
			}
			if tc.name == "corrupt" && corrupted == 0 {
				t.Fatal("no corrupted deliveries: the corrupt path went unmeasured")
			}
		})
	}
}

type captureRadio struct{ onAgg func([]byte) }

func (c *captureRadio) CarrierBusy()                             {}
func (c *captureRadio) CarrierIdle()                             {}
func (c *captureRadio) RxControl(NodeID, frame.Control, float64) {}
func (c *captureRadio) RxAggregate(_ NodeID, _ frame.PHYHeader, body []byte, _ *frame.DecodedAggregate) {
	c.onAgg(body)
}

func TestDirectedLinkAsymmetry(t *testing.T) {
	s := sim.NewScheduler(9)
	m := New(s, phy.DefaultParams(), 2)
	r0, r1 := &fakeRadio{}, &fakeRadio{}
	m.Attach(0, r0)
	m.Attach(1, r1)
	m.SetConnectedDirected(1, 0, false) // 1 cannot reach 0
	s.After(0, "tx0", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.After(10*time.Millisecond, "tx1", func() { m.TransmitControl(1, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(0)}) })
	s.Run()
	if len(r1.ctrls) != 1 {
		t.Fatalf("forward direction broken: %d", len(r1.ctrls))
	}
	if len(r0.ctrls) != 0 {
		t.Fatalf("cut reverse direction delivered %d frames", len(r0.ctrls))
	}
}

// activeFrom returns the in-flight transmission sent by src.
func activeFrom(t *testing.T, m *Medium, src NodeID) *transmission {
	t.Helper()
	for _, tx := range m.active {
		if tx.src == src {
			return tx
		}
	}
	t.Fatalf("no transmission from %d on the air", src)
	return nil
}

// TestInterferenceUsesLinksAsTheyAreNow pins the collision scan to the link
// table as it stands when the second frame launches, not as it stood when
// the first one did: mobility, link flaps and partitions all rewrite links
// under frames already on the air. X and Y cannot hear each other and Y↔R
// is always up, so R is the only node where their frames can meet, and
// only if X→R is connected at the moment Y launches. X's own delivery
// still follows the audience it captured at launch.
func TestInterferenceUsesLinksAsTheyAreNow(t *testing.T) {
	const x, y, r = NodeID(0), NodeID(1), NodeID(2)
	for _, tc := range []struct {
		name string
		// before runs ahead of X's launch, midFlight between X's and Y's.
		before, midFlight func(m *Medium)
		wantMarked        bool     // both frames marked collided at R
		wantAtR           []NodeID // senders whose frames R decodes
		wantCollisions    int
	}{
		{
			name:      "cut-before-second-launch",
			before:    func(m *Medium) { m.SetConnected(x, r, true) },
			midFlight: func(m *Medium) { m.SetConnectedDirected(x, r, false) },
			wantAtR:   []NodeID{x, y},
		},
		{
			// R is not in X's audience, so only Y's frame is lost there.
			name:           "raised-while-in-flight",
			midFlight:      func(m *Medium) { m.SetConnectedDirected(x, r, true) },
			wantMarked:     true,
			wantCollisions: 1,
		},
		{
			name:           "directed-toward-receiver",
			before:         func(m *Medium) { m.SetConnectedDirected(x, r, true) },
			wantMarked:     true,
			wantCollisions: 2,
		},
		{
			name:    "directed-away-from-receiver",
			before:  func(m *Medium) { m.SetConnectedDirected(r, x, true) },
			wantAtR: []NodeID{y},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.NewScheduler(1)
			m := NewUnconnected(s, phy.DefaultParams(), 3)
			radios := make([]*fakeRadio, 3)
			for i := range radios {
				radios[i] = &fakeRadio{}
				m.Attach(NodeID(i), radios[i])
			}
			m.SetConnected(y, r, true)
			if tc.before != nil {
				tc.before(m)
			}
			cts := frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(int(r))}
			s.After(0, "tx-x", func() { m.TransmitControl(x, cts) })
			if tc.midFlight != nil {
				s.After(10*time.Microsecond, "links", func() { tc.midFlight(m) })
			}
			s.After(20*time.Microsecond, "tx-y", func() { m.TransmitControl(y, cts) })
			s.After(30*time.Microsecond, "check", func() {
				for _, src := range []NodeID{x, y} {
					if got := activeFrom(t, m, src).collided[r]; got != tc.wantMarked {
						t.Errorf("frame from %d marked collided at R = %v, want %v", src, got, tc.wantMarked)
					}
				}
			})
			s.Run()
			if !slices.Equal(radios[r].ctrlSrcs, tc.wantAtR) {
				t.Errorf("R decoded frames from %v, want %v", radios[r].ctrlSrcs, tc.wantAtR)
			}
			if got := m.Stats().Collisions; got != tc.wantCollisions {
				t.Errorf("collisions = %d, want %d", got, tc.wantCollisions)
			}
		})
	}
}

// TestLinkCutInFlightKeepsItsSNR pins the SNR a frame is delivered at when
// its receiver's link changes while the frame is on the air. The receiver
// was in the audience at launch, so it still gets the frame: at the SNR the
// link had when it was cut, or, if the link is up again by the frame's end,
// at the SNR it has then. A 3 dB link always damages a QPSK aggregate, and
// a 40 dB one never does.
func TestLinkCutInFlightKeepsItsSNR(t *testing.T) {
	const subframes = 4
	for _, tc := range []struct {
		name      string
		midFlight func(m *Medium)
		wantClean int // subframes the receiver decodes intact
	}{
		{
			name:      "cut",
			midFlight: func(m *Medium) { m.SetConnected(0, 1, false) },
		},
		{
			name: "cut-and-raised",
			midFlight: func(m *Medium) {
				m.SetConnected(0, 1, false)
				m.SetConnected(0, 1, true)
				m.SetSNR(0, 1, 40)
			},
			wantClean: subframes,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, m, radios := setup(t, 2)
			m.SetSNR(0, 1, 3)
			s.After(0, "tx", func() { m.TransmitAggregate(0, dataAgg(subframes, 1436, frame.NodeAddr(1))) })
			s.After(time.Millisecond, "links", func() {
				if !m.Transmitting(0) {
					t.Fatal("frame already finished: the link changed after it")
				}
				tc.midFlight(m)
			})
			s.Run()
			clean := 0
			for _, dec := range radios[1].aggs {
				for _, sf := range dec.Unicast {
					if sf.CRCOK {
						clean++
					}
				}
			}
			if clean != tc.wantClean {
				t.Errorf("receiver decoded %d clean subframes, want %d", clean, tc.wantClean)
			}
		})
	}
}

// TestBackToBackFramesDoNotCollide pins the overlap guard of collision
// marking: a frame that launches at the instant an earlier one ends, before
// the earlier frame's finish event has run, shares no airtime with it. A
// and B cannot hear each other and both reach R1 and R2, so R1 and R2 are
// the receivers where a missing guard would destroy both frames. The
// same-sender case puts two of A's frames on the air at once.
func TestBackToBackFramesDoNotCollide(t *testing.T) {
	const a, b, r1, r2 = NodeID(0), NodeID(1), NodeID(2), NodeID(3)
	for _, tc := range []struct {
		name   string
		second NodeID
	}{{"other-sender", b}, {"same-sender", a}} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.NewScheduler(1)
			m := NewUnconnected(s, phy.DefaultParams(), 4)
			radios := make([]*fakeRadio, 4)
			for i := range radios {
				radios[i] = &fakeRadio{}
				m.Attach(NodeID(i), radios[i])
			}
			for _, src := range []NodeID{a, b} {
				m.SetConnected(src, r1, true)
				m.SetConnected(src, r2, true)
			}
			cts := frame.Control{Type: frame.TypeCTS, RA: frame.Broadcast}
			d := m.ControlAirtime(&cts)
			s.After(0, "tx-first", func() { m.TransmitControl(a, cts) })
			// Scheduled before the first frame's finish exists, so it runs
			// ahead of that finish at the same instant.
			s.After(d, "tx-second", func() {
				if !m.Transmitting(a) {
					t.Fatal("first frame already finished: the guard went unexercised")
				}
				m.TransmitControl(tc.second, cts)
				if tc.second == a && (m.onAir[a] == nil || m.onAir[a].nextOnAir == nil) {
					t.Fatal("same sender: want two frames on A's on-air chain")
				}
			})
			s.Run()
			for _, r := range []NodeID{r1, r2} {
				if want := []NodeID{a, tc.second}; !slices.Equal(radios[r].ctrlSrcs, want) {
					t.Errorf("node %d decoded frames from %v, want %v", r, radios[r].ctrlSrcs, want)
				}
			}
			if st := m.Stats(); st.Collisions != 0 || st.HalfDuplex != 0 {
				t.Errorf("collisions %d, half-duplex losses %d, want 0 and 0", st.Collisions, st.HalfDuplex)
			}
			if m.Transmitting(a) || m.Transmitting(b) {
				t.Error("a sender is still on the air after the drain")
			}
		})
	}
}
