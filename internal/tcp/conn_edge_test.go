package tcp

import (
	"bytes"
	"testing"
	"time"

	"aggmac/internal/mac"
	"aggmac/internal/network"
	"aggmac/internal/phy"
)

func TestSendErrorsAfterClose(t *testing.T) {
	s, a, b := loopPair(t)
	lis := b.Listen(80)
	lis.Setup = func(c *Conn) {
		c.OnData = func([]byte) {}
		c.OnPeerClose = func() { c.Close() }
	}
	var sc *Conn
	s.After(0, "go", func() {
		sc = a.Connect(1, 80)
		sc.OnEstablished = func() {
			_ = sc.Send([]byte("x"))
			sc.Close()
			if err := sc.Send([]byte("y")); err == nil {
				t.Error("Send after Close succeeded")
			}
		}
	})
	s.RunUntil(5 * time.Second)
	if sc.State() != StateClosed && sc.State() != StateTimeWait {
		t.Errorf("state after close: %v", sc.State())
	}
}

func TestSendInClosedStateErrors(t *testing.T) {
	c := &Conn{state: StateClosed, cfg: DefaultConfig()}
	if err := c.Send([]byte("x")); err == nil {
		t.Fatal("Send on closed conn succeeded")
	}
}

func TestOrderlyCloseBothSides(t *testing.T) {
	s, a, b := loopPair(t)
	var cc *Conn
	aClosed, bClosed := false, false
	lis := b.Listen(80)
	lis.Setup = func(c *Conn) {
		cc = c
		c.OnData = func([]byte) {}
		c.OnPeerClose = func() { c.Close() }
		c.OnClose = func() { bClosed = true }
	}
	var sc *Conn
	s.After(0, "go", func() {
		sc = a.Connect(1, 80)
		sc.OnClose = func() { aClosed = true }
		sc.OnEstablished = func() {
			_ = sc.Send(pattern(5000))
			sc.Close()
		}
	})
	s.RunUntil(10 * time.Second)
	if !bClosed {
		t.Errorf("passive side never closed (state %v)", cc.State())
	}
	if !aClosed {
		t.Errorf("active side never closed (state %v)", sc.State())
	}
}

func TestDuplicateSynGetsSynAckAgain(t *testing.T) {
	s, a, b := loopPair(t)
	b.Listen(80)
	var sc *Conn
	s.After(0, "go", func() { sc = a.Connect(1, 80) })
	s.RunUntil(time.Second)
	if sc.State() != StateEstablished {
		t.Fatalf("setup: %v", sc.State())
	}
	// Replay the original SYN at the listener: the (still book-kept)
	// connection must not be disturbed.
	syn := &Segment{SrcPort: sc.localPort, DstPort: 80, Seq: sc.iss, Flags: FlagSYN, Window: 65535}
	s.After(0, "replay", func() {
		b.onPacket(network.Packet{Proto: network.ProtoTCP, Src: 0, Dst: 1, Payload: syn.Marshal()})
	})
	s.RunUntil(2 * time.Second)
	if sc.State() != StateEstablished {
		t.Fatalf("replayed SYN broke the connection: %v", sc.State())
	}
}

func TestPeerWindowLimitsFlight(t *testing.T) {
	s, a, b := loopPair(t)
	cfg := DefaultConfig()
	cfg.Window = 4096 // the RECEIVER advertises 3 segments' worth
	bSmall := b
	bSmall.cfg = cfg
	lis := bSmall.Listen(80)
	consumed := 0
	lis.Setup = func(c *Conn) { c.OnData = func(p []byte) { consumed += len(p) } }
	var sc *Conn
	maxFlight := uint32(0)
	s.After(0, "go", func() {
		sc = a.Connect(1, 80)
		sc.OnEstablished = func() { _ = sc.Send(pattern(40_000)) }
	})
	// Sample the flight while transferring.
	var sample func()
	sample = func() {
		if sc != nil && sc.flight() > maxFlight {
			maxFlight = sc.flight()
		}
		s.After(2*time.Millisecond, "sample", sample)
	}
	s.After(time.Millisecond, "sample", sample)
	s.RunUntil(20 * time.Second)
	if consumed != 40_000 {
		t.Fatalf("consumed %d of 40000", consumed)
	}
	if maxFlight > 4096 {
		t.Errorf("flight %d exceeded the peer's 4096-byte window", maxFlight)
	}
}

func TestDelayedAckTimerPath(t *testing.T) {
	// A single segment with delayed ACKs: no second segment arrives, so
	// the 40 ms timer must fire the ACK.
	cfg := DefaultConfig()
	cfg.DelayedAck = true
	s, a, b := loopPair(t)
	a.cfg = cfg
	b.cfg = cfg
	var cc *Conn
	lis := b.Listen(80)
	lis.Setup = func(c *Conn) {
		cc = c
		c.OnData = func([]byte) {}
	}
	var sc *Conn
	s.After(0, "go", func() {
		sc = a.Connect(1, 80)
		sc.OnEstablished = func() { _ = sc.Send(pattern(100)) } // single segment
	})
	s.RunUntil(5 * time.Second)
	if sc.Stats().BytesAcked != 100 {
		t.Fatalf("delayed ACK never fired: acked %d", sc.Stats().BytesAcked)
	}
	if cc.Stats().PureAcksSent == 0 {
		t.Fatal("no pure ACK recorded")
	}
}

func TestOverlappingSegmentTrimmed(t *testing.T) {
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
	// Deliver "ABCDE", then a segment overlapping the first three bytes:
	// "CDEFG" starting at seq+2. The receiver must emit ABCDEFG.
	base := sc.sndNxt
	seg1 := &Segment{SrcPort: sc.localPort, DstPort: 80, Seq: base, Ack: sc.rcvNxt,
		Flags: FlagACK | FlagPSH, Window: 65535, Payload: []byte("ABCDE")}
	seg2 := &Segment{SrcPort: sc.localPort, DstPort: 80, Seq: base + 2, Ack: sc.rcvNxt,
		Flags: FlagACK | FlagPSH, Window: 65535, Payload: []byte("CDEFG")}
	s.After(time.Millisecond, "inject", func() {
		b.onPacket(network.Packet{Proto: network.ProtoTCP, Src: 0, Dst: 1, Payload: seg1.Marshal()})
		b.onPacket(network.Packet{Proto: network.ProtoTCP, Src: 0, Dst: 1, Payload: seg2.Marshal()})
	})
	s.RunUntil(2 * time.Second)
	if string(rcvd) != "ABCDEFG" {
		t.Fatalf("overlap handling produced %q, want ABCDEFG", rcvd)
	}
	if cc.stats.SegsRcvd < 2 {
		t.Fatal("segments not processed")
	}
}

func TestEntirelyOldSegmentReAcked(t *testing.T) {
	s, a, b := loopPair(t)
	var cc *Conn
	lis := b.Listen(80)
	lis.Setup = func(c *Conn) {
		cc = c
		c.OnData = func([]byte) {}
	}
	var sc *Conn
	s.After(0, "go", func() {
		sc = a.Connect(1, 80)
		sc.OnEstablished = func() { _ = sc.Send(pattern(2000)) }
	})
	s.RunUntil(time.Second)
	acksBefore := cc.Stats().AcksSent
	// Replay the first data segment (fully below rcvNxt).
	old := &Segment{SrcPort: sc.localPort, DstPort: 80, Seq: sc.iss + 1, Ack: cc.sndNxt,
		Flags: FlagACK | FlagPSH, Window: 65535, Payload: pattern(1357)}
	s.After(0, "replay", func() {
		b.onPacket(network.Packet{Proto: network.ProtoTCP, Src: 0, Dst: 1, Payload: old.Marshal()})
	})
	s.RunUntil(2 * time.Second)
	if cc.Stats().AcksSent <= acksBefore {
		t.Fatal("old duplicate segment was not re-ACKed")
	}
	if cc.Stats().BytesDelivered != 2000 {
		t.Fatalf("duplicate delivered again: %d bytes", cc.Stats().BytesDelivered)
	}
}

func TestConfigZeroValueRejectedByStack(t *testing.T) {
	// A stack built with an explicit config keeps it; the experiment
	// runner substitutes defaults for the zero value — verify DefaultConfig
	// is self-consistent instead.
	cfg := DefaultConfig()
	if cfg.MSS != 1357 {
		t.Errorf("default MSS %d, paper uses 1357", cfg.MSS)
	}
	if cfg.MinRTO <= 0 || cfg.MaxRTO < cfg.MinRTO {
		t.Error("RTO bounds inconsistent")
	}
	if cfg.Window == 0 || cfg.InitialCwndSegs == 0 {
		t.Error("zero window/cwnd defaults")
	}
}

func TestStackStringer(t *testing.T) {
	_ = mac.NA // keep imports honest in case of refactors
	_ = phy.Rate650k
	s, a, _ := loopPair(t)
	_ = s
	if a.String() == "" {
		t.Fatal("empty stack name")
	}
}

// TestSendNeverWritesPastCallerSlice: Send keeps the caller's slice when
// nothing is buffered, so a later Send must copy rather than append into
// the caller's array beyond that slice.
func TestSendNeverWritesPastCallerSlice(t *testing.T) {
	_, a, _ := loopPair(t)
	a.sendOverride = func(network.NodeID, Segment) error { return nil }
	c := a.newConn(1, 10001, 80)
	c.state = StateEstablished
	c.cwnd = 0 // hold everything in the send buffer
	arr := make([]byte, 8)
	if err := c.Send(arr[:4]); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(arr, make([]byte, 8)) {
		t.Fatalf("second Send wrote into the caller's array: %v", arr)
	}
	if want := []byte{0, 0, 0, 0, 9, 9, 9, 9}; !bytes.Equal(c.buf, want) {
		t.Fatalf("send buffer %v, want %v", c.buf, want)
	}
}
