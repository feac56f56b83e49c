package mac

import (
	"testing"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/medium"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// rig wires n MACs to one medium and records deliveries per node.
type rig struct {
	s     *sim.Scheduler
	med   *medium.Medium
	macs  []*MAC
	recvd [][]delivery
}

type delivery struct {
	payload      []byte
	viaBroadcast bool
	from         frame.Addr
}

func newRig(t *testing.T, n int, opts Options) *rig {
	t.Helper()
	r := &rig{
		s:     sim.NewScheduler(42),
		recvd: make([][]delivery, n),
	}
	r.med = medium.New(r.s, phy.DefaultParams(), n)
	for i := 0; i < n; i++ {
		i := i
		r.macs = append(r.macs, New(r.s, r.med, medium.NodeID(i), opts, func(d frame.DecodedSubframe, viaB bool) {
			r.recvd[i] = append(r.recvd[i], delivery{
				payload:      append([]byte(nil), d.Payload...),
				viaBroadcast: viaB,
				from:         d.Addr2,
			})
		}))
	}
	return r
}

func payload(n int, tag byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag
	}
	return p
}

func (r *rig) enqueue(from, to int, p []byte, viaBroadcast bool) {
	dst := frame.NodeAddr(to)
	if to < 0 {
		dst = frame.Broadcast
	}
	r.s.After(0, "enq", func() {
		r.macs[from].Enqueue(Outgoing{Dst: dst, Src: frame.NodeAddr(from), Payload: p}, viaBroadcast)
	})
}

func TestUnicastDelivery(t *testing.T) {
	r := newRig(t, 2, DefaultOptions(NA, phy.Rate1300k))
	r.enqueue(0, 1, payload(1436, 7), false)
	r.s.Run()
	if len(r.recvd[1]) != 1 {
		t.Fatalf("node 1 got %d frames, want 1", len(r.recvd[1]))
	}
	d := r.recvd[1][0]
	if d.viaBroadcast || len(d.payload) != 1436 || d.payload[0] != 7 {
		t.Fatalf("bad delivery: %+v", d)
	}
	c0, c1 := r.macs[0].Counters(), r.macs[1].Counters()
	if c0.RTSTx != 1 || c1.CTSTx != 1 || c1.AckTx != 1 {
		t.Errorf("control exchange: RTS=%d CTS=%d ACK=%d, want 1/1/1", c0.RTSTx, c1.CTSTx, c1.AckTx)
	}
	if c0.DataTx != 1 || c0.SubframesTx != 1 {
		t.Errorf("DataTx=%d SubframesTx=%d, want 1/1", c0.DataTx, c0.SubframesTx)
	}
	if c0.Retries != 0 || c0.Drops != 0 {
		t.Errorf("unexpected retries=%d drops=%d", c0.Retries, c0.Drops)
	}
}

func TestNANoAggregation(t *testing.T) {
	r := newRig(t, 2, DefaultOptions(NA, phy.Rate1300k))
	for i := 0; i < 4; i++ {
		r.enqueue(0, 1, payload(1436, byte(i)), false)
	}
	r.s.Run()
	c := r.macs[0].Counters()
	if c.DataTx != 4 {
		t.Fatalf("NA sent %d transmissions for 4 frames, want 4", c.DataTx)
	}
	if len(r.recvd[1]) != 4 {
		t.Fatalf("node 1 got %d frames, want 4", len(r.recvd[1]))
	}
}

func TestUAAggregatesToSameDestination(t *testing.T) {
	r := newRig(t, 2, DefaultOptions(UA, phy.Rate1300k))
	for i := 0; i < 3; i++ {
		r.enqueue(0, 1, payload(1436, byte(i)), false)
	}
	r.s.Run()
	c := r.macs[0].Counters()
	// 3×1464 = 4392 ≤ 5120: all three fit one aggregate. (The first frame
	// may leave alone if the MAC wins the floor before the rest arrive;
	// enqueues here land at the same instant, so one TX.)
	if c.DataTx != 1 || c.SubframesTx != 3 {
		t.Fatalf("UA: %d TXs with %d subframes, want 1 TX with 3", c.DataTx, c.SubframesTx)
	}
	if len(r.recvd[1]) != 3 {
		t.Fatalf("node 1 got %d frames, want 3", len(r.recvd[1]))
	}
	// Order preserved.
	for i, d := range r.recvd[1] {
		if d.payload[0] != byte(i) {
			t.Errorf("frame %d out of order (tag %d)", i, d.payload[0])
		}
	}
}

func TestUAMaxAggregationSize(t *testing.T) {
	r := newRig(t, 2, DefaultOptions(UA, phy.Rate1300k))
	// 4 data frames: 4×1464 = 5856 > 5120, so 3 + 1.
	for i := 0; i < 4; i++ {
		r.enqueue(0, 1, payload(1436, byte(i)), false)
	}
	r.s.Run()
	c := r.macs[0].Counters()
	if c.DataTx != 2 {
		t.Fatalf("UA sent %d TXs for 4 frames with a 5 KB cap, want 2", c.DataTx)
	}
	if len(r.recvd[1]) != 4 {
		t.Fatalf("node 1 got %d frames, want 4", len(r.recvd[1]))
	}
}

func TestUASkipOverScan(t *testing.T) {
	// Frames interleaved for two destinations: the first TX gathers both
	// frames for the head's destination past the interloper.
	r := newRig(t, 3, DefaultOptions(UA, phy.Rate1300k))
	r.enqueue(0, 1, payload(500, 1), false)
	r.enqueue(0, 2, payload(500, 2), false)
	r.enqueue(0, 1, payload(500, 3), false)
	r.s.Run()
	c := r.macs[0].Counters()
	if c.DataTx != 2 {
		t.Fatalf("skip-over: %d TXs, want 2 (two to node1 together, one to node2)", c.DataTx)
	}
	if len(r.recvd[1]) != 2 || len(r.recvd[2]) != 1 {
		t.Fatalf("deliveries: node1=%d node2=%d, want 2/1", len(r.recvd[1]), len(r.recvd[2]))
	}
}

func TestUADoesNotMixDestinations(t *testing.T) {
	r := newRig(t, 3, DefaultOptions(UA, phy.Rate1300k))
	r.enqueue(0, 1, payload(500, 1), false)
	r.enqueue(0, 2, payload(500, 2), false)
	r.s.Run()
	c := r.macs[0].Counters()
	if c.DataTx != 2 {
		t.Fatalf("frames for different destinations shared a TX: %d TXs", c.DataTx)
	}
}

func TestBroadcastNoControlExchange(t *testing.T) {
	r := newRig(t, 3, DefaultOptions(NA, phy.Rate1300k))
	r.enqueue(0, -1, payload(132, 9), true)
	r.s.Run()
	c := r.macs[0].Counters()
	if c.RTSTx != 0 {
		t.Error("broadcast transmission used RTS")
	}
	if c.BroadcastOnly != 1 {
		t.Errorf("BroadcastOnly = %d, want 1", c.BroadcastOnly)
	}
	for i := 1; i <= 2; i++ {
		if len(r.recvd[i]) != 1 || !r.recvd[i][0].viaBroadcast {
			t.Errorf("node %d broadcast delivery wrong: %+v", i, r.recvd[i])
		}
		if r.macs[i].Counters().AckTx != 0 {
			t.Errorf("node %d acked a broadcast", i)
		}
	}
}

func TestBACombinesBroadcastAndUnicast(t *testing.T) {
	r := newRig(t, 3, DefaultOptions(BA, phy.Rate1300k))
	// One classified TCP ACK (broadcast queue, unicast address to node 2)
	// plus two data frames for node 1: a single PHY frame carries all.
	r.enqueue(0, 2, payload(132, 8), true)
	r.enqueue(0, 1, payload(1436, 1), false)
	r.enqueue(0, 1, payload(1436, 2), false)
	r.s.Run()
	c := r.macs[0].Counters()
	if c.DataTx != 1 {
		t.Fatalf("BA sent %d TXs, want 1 combined", c.DataTx)
	}
	if c.BroadcastSubTx != 1 || c.UnicastSubTx != 2 {
		t.Fatalf("portions: bcast=%d ucast=%d, want 1/2", c.BroadcastSubTx, c.UnicastSubTx)
	}
	// Node 2 gets the ACK (via broadcast portion, addressed to it).
	if len(r.recvd[2]) != 1 || !r.recvd[2][0].viaBroadcast {
		t.Fatalf("node 2 ACK delivery: %+v", r.recvd[2])
	}
	// Node 1 gets the data and dropped the overheard ACK.
	if len(r.recvd[1]) != 2 {
		t.Fatalf("node 1 got %d frames, want 2", len(r.recvd[1]))
	}
	if r.macs[1].Counters().RxDropsAddr == 0 {
		t.Error("node 1 should have dropped the overheard unicast-addressed broadcast subframe")
	}
}

func TestOverheardClassifiedAckNotDelivered(t *testing.T) {
	r := newRig(t, 3, DefaultOptions(BA, phy.Rate1300k))
	r.enqueue(0, 2, payload(132, 8), true) // ACK for node 2 rides broadcast
	r.s.Run()
	if len(r.recvd[1]) != 0 {
		t.Fatal("node 1 delivered a TCP ACK addressed to node 2 (would duplicate at IP layer)")
	}
	if len(r.recvd[2]) != 1 {
		t.Fatal("node 2 missed its ACK")
	}
}

func TestRetryAndDropWhenPeerGone(t *testing.T) {
	opts := DefaultOptions(UA, phy.Rate1300k)
	opts.RetryLimit = 3
	r := newRig(t, 2, opts)
	r.med.SetConnected(0, 1, false)
	r.enqueue(0, 1, payload(100, 1), false)
	r.s.Run()
	c := r.macs[0].Counters()
	if c.Retries != 3 {
		t.Errorf("retries = %d, want 3", c.Retries)
	}
	if c.Drops != 1 {
		t.Errorf("drops = %d, want 1", c.Drops)
	}
	if len(r.recvd[1]) != 0 {
		t.Error("unreachable peer received data")
	}
}

func TestAllOrNothingUnicastPortion(t *testing.T) {
	// A huge aggregate at 0.65 Mbps blows the coherence budget: tail
	// subframes fail CRC, so the receiver must deliver nothing and send
	// no ACK; the sender retries and finally drops.
	opts := DefaultOptions(UA, phy.Rate650k)
	opts.MaxAggBytes = 16000
	opts.RetryLimit = 2
	r := newRig(t, 2, opts)
	for i := 0; i < 10; i++ {
		r.enqueue(0, 1, payload(1436, byte(i)), false)
	}
	r.s.Run()
	c1 := r.macs[1].Counters()
	if c1.RxBundleFails == 0 {
		t.Error("no all-or-nothing bundle failure observed")
	}
	if len(r.recvd[1]) != 0 {
		t.Errorf("node 1 delivered %d frames from corrupt bundles, want 0", len(r.recvd[1]))
	}
	if r.macs[0].Counters().Drops == 0 {
		t.Error("sender never dropped the doomed bundle")
	}
}

func TestAutoAggSizeStaysWithinCoherence(t *testing.T) {
	// Same setup as above but AutoAggSize caps the aggregate to the
	// coherence budget: everything gets through.
	opts := DefaultOptions(UA, phy.Rate650k)
	opts.MaxAggBytes = 16000
	opts.AutoAggSize = true
	r := newRig(t, 2, opts)
	for i := 0; i < 10; i++ {
		r.enqueue(0, 1, payload(1436, byte(i)), false)
	}
	r.s.Run()
	if len(r.recvd[1]) != 10 {
		t.Fatalf("node 1 got %d/10 frames with AutoAggSize", len(r.recvd[1]))
	}
	if d := r.macs[0].Counters().Drops; d != 0 {
		t.Errorf("AutoAggSize still dropped %d frames", d)
	}
}

func TestBlockAckPartialDelivery(t *testing.T) {
	// Same doomed-aggregate setup, but with the block-ACK extension the
	// in-budget head subframes are delivered and acknowledged; only the
	// aged tail retries.
	opts := DefaultOptions(UA, phy.Rate650k)
	opts.MaxAggBytes = 16000
	opts.BlockAck = true
	r := newRig(t, 2, opts)
	for i := 0; i < 8; i++ {
		r.enqueue(0, 1, payload(1436, byte(i)), false)
	}
	r.s.Run()
	if len(r.recvd[1]) != 8 {
		t.Fatalf("block-ACK delivered %d/8 frames", len(r.recvd[1]))
	}
	if r.macs[0].Counters().Drops != 0 {
		t.Error("block-ACK mode dropped frames that should have been selectively retransmitted")
	}
}

func TestDBADelaysUntilThreeFrames(t *testing.T) {
	opts := DefaultOptions(DBA, phy.Rate1300k)
	r := newRig(t, 2, opts)
	// Two frames at t=0, third at t=5ms: nothing may fly before the third
	// arrives (flush timeout is 25 ms).
	r.enqueue(0, 1, payload(1436, 1), false)
	r.enqueue(0, 1, payload(1436, 2), false)
	var firstTx sim.Time
	r.s.After(4*time.Millisecond, "check", func() {
		if r.macs[0].Counters().DataTx != 0 {
			t.Error("DBA transmitted before reaching 3 queued frames")
		}
	})
	r.s.After(5*time.Millisecond, "third", func() {
		r.macs[0].Enqueue(Outgoing{Dst: frame.NodeAddr(1), Src: frame.NodeAddr(0), Payload: payload(1436, 3)}, false)
		firstTx = r.s.Now()
	})
	r.s.Run()
	_ = firstTx
	c := r.macs[0].Counters()
	if c.DataTx != 1 || c.SubframesTx != 3 {
		t.Fatalf("DBA: %d TXs / %d subframes, want 1/3", c.DataTx, c.SubframesTx)
	}
}

func TestDBAFlushTimeout(t *testing.T) {
	opts := DefaultOptions(DBA, phy.Rate1300k)
	opts.FlushTimeout = 10 * time.Millisecond
	r := newRig(t, 2, opts)
	r.enqueue(0, 1, payload(1436, 1), false)
	r.s.Run()
	if len(r.recvd[1]) != 1 {
		t.Fatal("DBA flush timeout never released the lone frame")
	}
	if r.s.Now() < 10*time.Millisecond {
		t.Fatalf("frame left at %v, before the flush timeout", r.s.Now())
	}
}

func TestForwardAggregationDisabled(t *testing.T) {
	s := BA
	s.DisableForwardAggregation = true
	opts := DefaultOptions(s, phy.Rate1300k)
	r := newRig(t, 2, opts)
	r.enqueue(0, 1, payload(132, 1), true) // backward (ACK) frame
	r.enqueue(0, 1, payload(132, 2), true) // second ACK: must NOT join
	r.enqueue(0, 1, payload(1436, 3), false)
	r.enqueue(0, 1, payload(1436, 4), false) // second data: must NOT join
	r.s.Run()
	c := r.macs[0].Counters()
	// 1 ACK + 1 data per TX: two transmissions.
	if c.DataTx != 2 {
		t.Fatalf("no-forward-agg: %d TXs, want 2", c.DataTx)
	}
	if c.SubframesTx != 4 {
		t.Fatalf("subframes = %d, want 4", c.SubframesTx)
	}
	if len(r.recvd[1]) != 4 {
		t.Fatalf("node 1 got %d frames, want 4", len(r.recvd[1]))
	}
}

func TestTwoContendersBothComplete(t *testing.T) {
	r := newRig(t, 3, DefaultOptions(UA, phy.Rate1300k))
	for i := 0; i < 5; i++ {
		r.enqueue(0, 1, payload(1000, byte(i)), false)
		r.enqueue(2, 1, payload(1000, byte(0x80+i)), false)
	}
	r.s.Run()
	if len(r.recvd[1]) != 10 {
		t.Fatalf("node 1 got %d frames, want 10", len(r.recvd[1]))
	}
	if r.macs[0].Counters().Drops+r.macs[2].Counters().Drops != 0 {
		t.Error("contention caused drops on a clean channel")
	}
}

func TestNAVSuppressesThirdParty(t *testing.T) {
	// Node 2 overhears the 0→1 exchange; its own frame for node 0 must
	// wait, and no collisions may occur on a fully-connected channel.
	r := newRig(t, 3, DefaultOptions(UA, phy.Rate1300k))
	r.enqueue(0, 1, payload(1436, 1), false)
	r.s.After(400*time.Microsecond, "enq2", func() {
		// Mid-RTS: node 2 wants to talk to node 0.
		r.macs[2].Enqueue(Outgoing{Dst: frame.NodeAddr(0), Src: frame.NodeAddr(2), Payload: payload(1436, 2)}, false)
	})
	r.s.Run()
	if len(r.recvd[1]) != 1 || len(r.recvd[0]) != 1 {
		t.Fatalf("deliveries: node1=%d node0=%d, want 1/1", len(r.recvd[1]), len(r.recvd[0]))
	}
	if col := r.med.Stats().Collisions; col != 0 {
		t.Errorf("%d collisions despite carrier sense + NAV", col)
	}
}

func TestQueueLimitDrops(t *testing.T) {
	opts := DefaultOptions(UA, phy.Rate1300k)
	opts.QueueLimit = 5
	r := newRig(t, 2, opts)
	r.s.After(0, "enq", func() {
		for i := 0; i < 10; i++ {
			r.macs[0].Enqueue(Outgoing{Dst: frame.NodeAddr(1), Src: frame.NodeAddr(0), Payload: payload(100, byte(i))}, false)
		}
	})
	r.s.Run()
	c := r.macs[0].Counters()
	if c.QueueDrops != 5 {
		t.Fatalf("QueueDrops = %d, want 5", c.QueueDrops)
	}
	if len(r.recvd[1]) != 5 {
		t.Fatalf("node 1 got %d frames, want 5", len(r.recvd[1]))
	}
}

func TestCountersTimeAccounting(t *testing.T) {
	r := newRig(t, 2, DefaultOptions(NA, phy.Rate650k))
	r.enqueue(0, 1, payload(1436, 1), false)
	r.s.Run()
	c := r.macs[0].Counters()
	if c.PayloadTime <= 0 || c.HeaderTime <= 0 || c.PreambleTime <= 0 || c.ControlTime <= 0 || c.IFSTime <= 0 {
		t.Fatalf("incomplete time accounting: %+v", c)
	}
	// 1436 payload bytes at 0.65 Mbps ≈ 17.67 ms.
	wantPayload := phy.Airtime(1436, phy.Rate650k)
	if c.PayloadTime != wantPayload {
		t.Errorf("PayloadTime = %v, want %v", c.PayloadTime, wantPayload)
	}
	// Overhead fraction for a single maximum-size frame at 0.65 Mbps
	// should be in the vicinity of the paper's 22.4% (Table 4 NA column).
	over := c.TimeOverhead()
	if over < 0.10 || over > 0.35 {
		t.Errorf("NA time overhead at 0.65 = %.3f, expected ~0.15-0.25", over)
	}
}

func TestSchemeNames(t *testing.T) {
	if NA.Name() != "NA" || UA.Name() != "UA" || BA.Name() != "BA" || DBA.Name() != "DBA" {
		t.Fatalf("scheme names: %s %s %s %s", NA.Name(), UA.Name(), BA.Name(), DBA.Name())
	}
}

func TestFixedBroadcastRateUsed(t *testing.T) {
	opts := DefaultOptions(BA, phy.Rate2600k)
	opts.BroadcastRate = phy.Rate650k
	r := newRig(t, 2, opts)
	r.enqueue(0, 1, payload(132, 1), true)
	r.enqueue(0, 1, payload(1436, 2), false)
	start := time.Duration(-1)
	var airtime time.Duration
	r.s.After(0, "spy", func() { start = 0 })
	r.s.Run()
	_ = start
	_ = airtime
	// Verify via counters: the mixed TX occurred and both frames arrived.
	if len(r.recvd[1]) != 2 {
		t.Fatalf("node 1 got %d frames, want 2", len(r.recvd[1]))
	}
	c := r.macs[0].Counters()
	if c.BroadcastSubTx != 1 || c.UnicastSubTx != 1 {
		t.Fatalf("portions %d/%d, want 1/1", c.BroadcastSubTx, c.UnicastSubTx)
	}
}

func TestHeadOnlyGatherStopsAtForeignDst(t *testing.T) {
	opts := DefaultOptions(UA, phy.Rate1300k)
	opts.HeadOnlyGather = true
	r := newRig(t, 3, opts)
	r.enqueue(0, 1, payload(500, 1), false)
	r.enqueue(0, 2, payload(500, 2), false)
	r.enqueue(0, 1, payload(500, 3), false)
	r.s.Run()
	// Head-only: [1], [2], [1] — three transmissions (skip-over would do 2).
	if c := r.macs[0].Counters(); c.DataTx != 3 {
		t.Fatalf("head-only gather: %d TXs, want 3", c.DataTx)
	}
	if len(r.recvd[1]) != 2 || len(r.recvd[2]) != 1 {
		t.Fatalf("deliveries wrong: %d/%d", len(r.recvd[1]), len(r.recvd[2]))
	}
}

func TestBroadcastLastExposedToAging(t *testing.T) {
	// With broadcasts appended after a near-budget unicast portion, the
	// broadcast subframe rides in the aged tail and dies; prepended (the
	// paper's design) it survives. This is exactly the rationale of
	// §4.2.3's placement rule.
	run := func(last bool) (bcastDelivered int) {
		opts := DefaultOptions(BA, phy.Rate650k)
		opts.MaxAggBytes = 16000
		opts.BroadcastLast = last
		r := newRig(t, 2, opts)
		r.enqueue(0, 1, payload(132, 9), true)
		for i := 0; i < 8; i++ {
			r.enqueue(0, 1, payload(1436, byte(i)), false)
		}
		r.s.Run()
		for _, d := range r.recvd[1] {
			if d.viaBroadcast {
				bcastDelivered++
			}
		}
		return bcastDelivered
	}
	// Prepended: delivered at least once (each retry of the doomed unicast
	// bundle re-delivers it — retries keep the assembled frame).
	if got := run(false); got < 1 {
		t.Errorf("prepended broadcast lost (%d delivered)", got)
	}
	if got := run(true); got != 0 {
		t.Errorf("appended broadcast survived the aged tail (%d delivered)", got)
	}
}

func TestDedupSuppressesRetransmittedDuplicates(t *testing.T) {
	// Cut the reverse link so CTS/ACK never return: the receiver hears
	// every data attempt but the sender keeps retrying. Without dedup the
	// duplicates all reach the upper layer; with it, one copy does.
	run := func(window int) (delivered, dupes int) {
		opts := DefaultOptions(UA, phy.Rate1300k)
		opts.UseRTSCTS = false // data goes straight out, so receiver sees it
		opts.RetryLimit = 4
		opts.DedupWindow = window
		r := newRig(t, 2, opts)
		r.med.SetConnectedDirected(1, 0, false)
		r.enqueue(0, 1, payload(500, 7), false)
		r.s.Run()
		return len(r.recvd[1]), r.macs[1].Counters().RxDupes
	}
	delivered, _ := run(0)
	if delivered != 5 { // initial + 4 retries, no dedup
		t.Fatalf("without dedup: %d deliveries, want 5", delivered)
	}
	delivered, dupes := run(16)
	if delivered != 1 {
		t.Fatalf("with dedup: %d deliveries, want 1", delivered)
	}
	if dupes != 4 {
		t.Fatalf("dupes counted = %d, want 4", dupes)
	}
}

func TestDedupDoesNotSuppressDistinctFrames(t *testing.T) {
	opts := DefaultOptions(UA, phy.Rate1300k)
	opts.DedupWindow = 16
	r := newRig(t, 2, opts)
	for i := 0; i < 8; i++ {
		r.enqueue(0, 1, payload(500, byte(i)), false)
	}
	r.s.Run()
	if len(r.recvd[1]) != 8 {
		t.Fatalf("dedup ate distinct frames: %d of 8", len(r.recvd[1]))
	}
	if d := r.macs[1].Counters().RxDupes; d != 0 {
		t.Fatalf("false dupes: %d", d)
	}
}

func TestRTSIgnoredWhileBusyWithOwnExchange(t *testing.T) {
	// While node 1 awaits a CTS for its own exchange, an RTS addressed to
	// it must go unanswered (the sender times out and retries).
	r := newRig(t, 3, DefaultOptions(UA, phy.Rate1300k))
	// Node 1 starts an exchange toward node 2 that can never complete
	// (link cut), pinning it in awaiting-CTS retry cycles.
	r.med.SetConnectedDirected(2, 1, false)
	r.enqueue(1, 2, payload(1000, 1), false)
	// Node 0 tries to talk to node 1 meanwhile.
	r.s.After(5*time.Millisecond, "enq0", func() {
		r.macs[0].Enqueue(Outgoing{Dst: frame.NodeAddr(1), Src: frame.NodeAddr(0),
			Payload: payload(1000, 2)}, false)
	})
	r.s.Run()
	// Node 1's exchange died (retry limit); node 0's eventually succeeded
	// once node 1 returned to idle between retries.
	if len(r.recvd[1]) != 1 {
		t.Fatalf("node 1 received %d frames, want 1 after contention resolves", len(r.recvd[1]))
	}
	if r.macs[1].Counters().Drops != 1 {
		t.Fatalf("node 1 drops = %d, want 1", r.macs[1].Counters().Drops)
	}
}

func TestReceiverSeesRetryFlag(t *testing.T) {
	// First data attempt is heard but its ACK path is cut, so the second
	// attempt arrives with the Retry bit set.
	opts := DefaultOptions(UA, phy.Rate1300k)
	opts.UseRTSCTS = false
	opts.RetryLimit = 1
	r := newRig(t, 2, opts)
	r.med.SetConnectedDirected(1, 0, false)
	retrySeen := false
	r.macs[1].deliver = func(d frame.DecodedSubframe, viaB bool) {
		if d.Retry {
			retrySeen = true
		}
	}
	r.enqueue(0, 1, payload(300, 5), false)
	r.s.Run()
	if !retrySeen {
		t.Fatal("retransmission did not carry the Retry flag")
	}
}

func TestBroadcastOnlyStillDefersToCarrier(t *testing.T) {
	// A broadcast-only transmission must wait out a busy medium like any
	// other: start a long unicast exchange, enqueue a broadcast elsewhere,
	// and verify zero collisions.
	r := newRig(t, 3, DefaultOptions(BA, phy.Rate650k))
	r.enqueue(0, 1, payload(1436, 1), false)
	r.s.After(2*time.Millisecond, "bcast", func() {
		r.macs[2].Enqueue(Outgoing{Dst: frame.Broadcast, Src: frame.NodeAddr(2),
			Payload: payload(132, 2)}, true)
	})
	r.s.Run()
	if col := r.med.Stats().Collisions; col != 0 {
		t.Fatalf("broadcast-only TX collided %d times despite carrier sense", col)
	}
	if len(r.recvd[1]) != 2 { // data + broadcast
		t.Fatalf("node 1 received %d frames, want 2", len(r.recvd[1]))
	}
}

func TestCountersAvgHelpersZeroSafe(t *testing.T) {
	var c Counters
	if c.AvgFrameBytes() != 0 || c.AvgSubframes() != 0 || c.TimeOverhead() != 0 || c.SizeOverhead(10) != 0 {
		t.Fatal("zero-valued counters must not divide by zero")
	}
}

// TestResponseAllocFree pins the exchange's steady state: once warm, an
// RTS/CTS/DATA/ACK exchange allocates nothing — in particular the CTS and
// ACK responses go out through one stable callback, not a closure each.
func TestResponseAllocFree(t *testing.T) {
	s := sim.NewScheduler(42)
	med := medium.New(s, phy.DefaultParams(), 2)
	delivered := 0
	src := New(s, med, 0, DefaultOptions(UA, phy.Rate1300k), nil)
	dst := New(s, med, 1, DefaultOptions(UA, phy.Rate1300k), func(frame.DecodedSubframe, bool) { delivered++ })
	p := payload(1000, 1)
	enqueue := func() { src.Enqueue(Outgoing{Dst: frame.NodeAddr(1), Src: frame.NodeAddr(0), Payload: p}, false) }
	step := func() {
		s.After(0, "enq", enqueue)
		s.Run()
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("an exchange allocates %.2f objects, want 0", allocs)
	}
	if c := dst.Counters(); delivered != 111 || c.CTSTx != 111 || c.AckTx != 111 {
		t.Fatalf("delivered %d, CTS %d, ACK %d; want 111 each", delivered, c.CTSTx, c.AckTx)
	}
}
