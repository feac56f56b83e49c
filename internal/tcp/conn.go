package tcp

import (
	"fmt"
	"time"

	"aggmac/internal/network"
	"aggmac/internal/sim"
)

// State is a TCP connection state (the subset a one-way transfer visits).
type State int

const (
	StateClosed State = iota
	StateSynSent
	StateSynReceived
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateLastAck
	StateTimeWait
)

func (s State) String() string {
	names := [...]string{"Closed", "SynSent", "SynReceived", "Established",
		"FinWait1", "FinWait2", "CloseWait", "LastAck", "TimeWait"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Config holds per-connection TCP parameters.
type Config struct {
	MSS             int           // maximum segment size (paper: 1357)
	Window          uint16        // advertised receive window
	InitialCwndSegs int           // initial congestion window, in segments
	InitialRTO      time.Duration // before the first RTT sample
	MinRTO, MaxRTO  time.Duration
	TimeWait        time.Duration
	// DelayedAck acknowledges every second segment (or after a short
	// timer) instead of every segment — an ablation knob; the paper's
	// stack ACKs every segment.
	DelayedAck      bool
	DelayedAckTimer time.Duration
	// MaxTimeouts aborts the connection after this many consecutive
	// retransmission timeouts (keeps simulations finite when a peer
	// becomes unreachable).
	MaxTimeouts int
}

// DefaultConfig matches the paper's experimental setup. Window is set so a
// relay's aggregation degree matches the paper's Table 3 observations
// (≈3.3 subframes per UA aggregate); MaxRTO is clamped to 10 s because this
// TCP has no SACK or limited transmit, and an RFC-style 60 s cap turns
// drop-tail lockout into minutes of idle backoff the paper's stack did not
// exhibit.
func DefaultConfig() Config {
	return Config{
		MSS:             1357,
		Window:          16384,
		InitialCwndSegs: 2,
		InitialRTO:      time.Second,
		MinRTO:          200 * time.Millisecond,
		MaxRTO:          10 * time.Second,
		TimeWait:        500 * time.Millisecond,
		DelayedAckTimer: 40 * time.Millisecond,
		MaxTimeouts:     8,
	}
}

// Stats counts per-connection protocol events.
type Stats struct {
	SegsSent, SegsRcvd    int
	BytesSent, BytesAcked int64
	BytesDelivered        int64
	AcksSent              int
	PureAcksSent          int
	Retransmits           int
	FastRetransmits       int
	Timeouts              int
	DupAcksRcvd           int
	OutOfOrder            int
	SendBlocked           int // MAC queue backpressure events
}

// Conn is one endpoint of a TCP connection.
type Conn struct {
	stack      *Stack
	cfg        Config
	peer       network.NodeID
	localPort  uint16
	remotePort uint16
	state      State

	// Send side.
	iss       uint32
	sndUna    uint32
	sndNxt    uint32
	buf       []byte // unacked + unsent stream bytes
	bufBase   uint32 // sequence number of buf[0]
	cwnd      float64
	ssthresh  float64
	peerWnd   uint16
	dupacks   int
	inRecov   bool
	recover   uint32
	rto       time.Duration
	srtt      time.Duration
	rttvar    time.Duration
	hasSRTT   bool
	rttSeq    uint32
	rttTime   sim.Time
	rttValid  bool
	rtxTimer  sim.Timer
	rtoFn     func() // stable scheduler callbacks (no per-arm method value)
	rtoStreak int    // consecutive timeouts
	finSent   bool
	finSeq    uint32
	closeReq  bool

	// Receive side.
	rcvNxt   uint32
	reasm    map[uint32][]byte
	finRcvd  bool
	delAckN  int
	delAckT  sim.Timer
	delAckFn func()

	// Callbacks into the application.
	OnEstablished func()
	OnData        func([]byte)
	OnPeerClose   func()
	OnClose       func()

	stats Stats
}

// Sequence-space comparisons (RFC 793 modular arithmetic).
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool { return int32(a-b) > 0 }
func seqGE(a, b uint32) bool { return int32(a-b) >= 0 }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Stats returns a snapshot of the connection's counters.
func (c *Conn) Stats() Stats { return c.stats }

// Cwnd returns the congestion window in bytes.
func (c *Conn) Cwnd() int { return int(c.cwnd) }

// SRTT returns the smoothed RTT estimate (zero before the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// Send queues stream data for transmission. When nothing is buffered the
// connection keeps data itself instead of a copy, so the caller must not
// modify data until the peer has acknowledged it.
func (c *Conn) Send(data []byte) error {
	switch c.state {
	case StateEstablished, StateSynSent, StateSynReceived, StateCloseWait:
	default:
		return fmt.Errorf("tcp: Send in state %v", c.state)
	}
	if c.closeReq {
		return fmt.Errorf("tcp: Send after Close")
	}
	if len(c.buf) == 0 {
		// Capped at its length: a later append copies rather than writing
		// into the caller's array past data.
		c.buf = data[:len(data):len(data)]
	} else {
		c.buf = append(c.buf, data...)
	}
	c.trySend()
	return nil
}

// Close begins an orderly shutdown once all queued data is delivered.
func (c *Conn) Close() {
	if c.closeReq {
		return
	}
	c.closeReq = true
	c.maybeSendFin()
}

// ---- sender internals ----

func (c *Conn) mss() int { return c.cfg.MSS }

func (c *Conn) flight() uint32 { return c.sndNxt - c.sndUna }

func (c *Conn) dataEnd() uint32 { return c.bufBase + uint32(len(c.buf)) }

// trySend emits as many segments as the congestion and peer windows allow.
func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateCloseWait {
		return
	}
	wnd := uint32(c.cwnd)
	if pw := uint32(c.peerWnd); pw < wnd {
		wnd = pw
	}
	for seqLT(c.sndNxt, c.dataEnd()) && c.flight() < wnd {
		n := int(c.dataEnd() - c.sndNxt)
		if n > c.mss() {
			n = c.mss()
		}
		if avail := int(wnd - c.flight()); n > avail {
			// Send only whole segments except for the stream tail.
			if seqLT(c.sndNxt+uint32(n), c.dataEnd()) {
				break
			}
			n = avail
			if n <= 0 {
				break
			}
		}
		off := c.sndNxt - c.bufBase
		payload := c.buf[off : off+uint32(n)]
		if err := c.emit(FlagACK|FlagPSH, c.sndNxt, payload); err != nil {
			c.stats.SendBlocked++
			break
		}
		if !c.rttValid {
			c.rttSeq = c.sndNxt
			c.rttTime = c.stack.sched.Now()
			c.rttValid = true
		}
		c.sndNxt += uint32(n)
		c.stats.BytesSent += int64(n)
		c.armRTO()
	}
	c.maybeSendFin()
}

// maybeSendFin sends our FIN once the stream has fully drained.
func (c *Conn) maybeSendFin() {
	if !c.closeReq || c.finSent {
		return
	}
	if c.sndNxt != c.dataEnd() {
		return // stream not fully transmitted yet
	}
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait1
	case StateCloseWait:
		c.state = StateLastAck
	default:
		return
	}
	c.finSeq = c.sndNxt
	c.finSent = true
	if err := c.emit(FlagACK|FlagFIN, c.sndNxt, nil); err != nil {
		c.stats.SendBlocked++
	}
	c.sndNxt++
	c.armRTO()
}

// emit sends one segment through the stack.
func (c *Conn) emit(flags uint8, seq uint32, payload []byte) error {
	seg := Segment{
		SrcPort: c.localPort, DstPort: c.remotePort,
		Seq: seq, Flags: flags, Window: c.cfg.Window,
		Payload: payload,
	}
	if flags&FlagACK != 0 {
		seg.Ack = c.rcvNxt
	}
	c.stats.SegsSent++
	if seg.IsPureAck() {
		c.stats.PureAcksSent++
	}
	if flags&FlagACK != 0 {
		c.stats.AcksSent++
	}
	return c.stack.send(c.peer, &seg)
}

func (c *Conn) armRTO() {
	if c.rtxTimer.Pending() {
		return
	}
	c.rtxTimer = c.stack.sched.After(c.rto, "tcp:rto", c.rtoFn)
}

func (c *Conn) rearmRTO() {
	c.rtxTimer.Stop()
	c.rtxTimer = c.stack.sched.After(c.rto, "tcp:rto", c.rtoFn)
}

func (c *Conn) stopRTO() {
	c.rtxTimer.Stop()
}

func (c *Conn) onRTO() {
	if c.state == StateClosed || c.state == StateTimeWait {
		return
	}
	if c.flight() == 0 {
		return
	}
	c.stats.Timeouts++
	c.rtoStreak++
	if c.cfg.MaxTimeouts > 0 && c.rtoStreak > c.cfg.MaxTimeouts {
		c.toClosed()
		return
	}
	fs := float64(c.flight())
	c.ssthresh = fs / 2
	if min := float64(2 * c.mss()); c.ssthresh < min {
		c.ssthresh = min
	}
	c.cwnd = float64(c.mss())
	c.inRecov = false
	c.dupacks = 0
	c.rto *= 2
	if c.rto > c.cfg.MaxRTO {
		c.rto = c.cfg.MaxRTO
	}
	c.rttValid = false // Karn: no sampling across retransmissions
	c.retransmitFirst()
	c.rearmRTO()
}

// retransmitFirst resends whatever sndUna points at.
func (c *Conn) retransmitFirst() {
	c.stats.Retransmits++
	c.rttValid = false
	switch {
	case c.state == StateSynSent:
		_ = c.emit(FlagSYN, c.iss, nil)
	case c.state == StateSynReceived:
		_ = c.emit(FlagSYN|FlagACK, c.iss, nil)
	case c.finSent && c.sndUna == c.finSeq:
		_ = c.emit(FlagACK|FlagFIN, c.finSeq, nil)
	default:
		if seqLT(c.sndUna, c.bufBase) || seqGE(c.sndUna, c.dataEnd()) {
			return
		}
		n := int(c.dataEnd() - c.sndUna)
		if n > c.mss() {
			n = c.mss()
		}
		off := c.sndUna - c.bufBase
		_ = c.emit(FlagACK|FlagPSH, c.sndUna, c.buf[off:off+uint32(n)])
	}
}

func (c *Conn) updateRTT(sample time.Duration) {
	if !c.hasSRTT {
		c.srtt = sample
		c.rttvar = sample / 2
		c.hasSRTT = true
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < c.cfg.MinRTO {
		c.rto = c.cfg.MinRTO
	}
	if c.rto > c.cfg.MaxRTO {
		c.rto = c.cfg.MaxRTO
	}
}

// ---- segment processing ----

func (c *Conn) onSegment(seg *Segment) {
	c.stats.SegsRcvd++
	switch c.state {
	case StateSynSent:
		if seg.HasFlag(FlagSYN|FlagACK) && seg.Ack == c.sndNxt {
			c.rcvNxt = seg.Seq + 1
			c.sndUna = seg.Ack
			c.peerWnd = seg.Window
			c.state = StateEstablished
			c.stopRTO()
			c.rto = c.cfg.InitialRTO
			_ = c.emit(FlagACK, c.sndNxt, nil)
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
			c.trySend()
		}
		return
	case StateSynReceived:
		if seg.HasFlag(FlagACK) && seg.Ack == c.sndNxt {
			c.sndUna = seg.Ack
			c.peerWnd = seg.Window
			c.state = StateEstablished
			c.stopRTO()
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
			// Fall through: the ACK may carry data.
		} else if seg.HasFlag(FlagSYN) {
			// Duplicate SYN: repeat the SYN-ACK.
			_ = c.emit(FlagSYN|FlagACK, c.iss, nil)
			return
		} else {
			return
		}
	case StateClosed:
		return
	}

	c.processAck(seg)
	c.processPayload(seg)
	c.processFin(seg)
}

func (c *Conn) processAck(seg *Segment) {
	if !seg.HasFlag(FlagACK) {
		return
	}
	ack := seg.Ack
	c.peerWnd = seg.Window
	if seqGT(ack, c.sndNxt) {
		return // acks data we never sent
	}
	if seqLE(ack, c.sndUna) {
		if ack == c.sndUna && c.flight() > 0 && len(seg.Payload) == 0 &&
			seg.Flags&(FlagSYN|FlagFIN) == 0 {
			c.dupacks++
			c.stats.DupAcksRcvd++
			if c.inRecov {
				c.cwnd += float64(c.mss()) // inflation
				c.trySend()
			} else if c.dupacks == 3 {
				c.fastRetransmit()
			}
		}
		return
	}

	// New data acknowledged.
	acked := ack - c.sndUna
	if c.rttValid && seqGT(ack, c.rttSeq) {
		c.updateRTT(c.stack.sched.Now() - c.rttTime)
		c.rttValid = false
	}
	c.advanceBuffer(ack)
	c.sndUna = ack
	c.dupacks = 0
	c.rtoStreak = 0
	c.stats.BytesAcked += int64(acked)

	if c.inRecov {
		if seqGE(ack, c.recover) {
			c.inRecov = false
			c.cwnd = c.ssthresh
		} else {
			// NewReno partial ACK: retransmit the next hole, deflate.
			c.retransmitFirst()
			c.cwnd -= float64(acked)
			c.cwnd += float64(c.mss())
			if c.cwnd < float64(c.mss()) {
				c.cwnd = float64(c.mss())
			}
			c.rearmRTO()
		}
	} else {
		if c.cwnd < c.ssthresh {
			inc := float64(acked)
			if m := float64(c.mss()); inc > m {
				inc = m
			}
			c.cwnd += inc // slow start
		} else {
			c.cwnd += float64(c.mss()) * float64(c.mss()) / c.cwnd // CA
		}
	}

	if c.flight() == 0 {
		c.stopRTO()
	} else {
		c.rearmRTO()
	}

	// FIN acknowledged?
	if c.finSent && seqGT(ack, c.finSeq) {
		switch c.state {
		case StateFinWait1:
			c.state = StateFinWait2
		case StateLastAck:
			c.toClosed()
		}
	}
	c.trySend()
}

// advanceBuffer drops acknowledged stream bytes (SYN/FIN sequence numbers
// live outside the buffer).
func (c *Conn) advanceBuffer(ack uint32) {
	start := c.sndUna
	if seqLT(start, c.bufBase) {
		start = c.bufBase
	}
	end := ack
	if de := c.dataEnd(); seqGT(end, de) {
		end = de
	}
	if seqGT(end, start) {
		n := end - start
		c.buf = c.buf[n:]
		c.bufBase = end
	}
}

func (c *Conn) fastRetransmit() {
	c.stats.FastRetransmits++
	fs := float64(c.flight())
	c.ssthresh = fs / 2
	if min := float64(2 * c.mss()); c.ssthresh < min {
		c.ssthresh = min
	}
	c.retransmitFirst()
	c.cwnd = c.ssthresh + 3*float64(c.mss())
	c.inRecov = true
	c.recover = c.sndNxt
	c.rearmRTO()
}

func (c *Conn) processPayload(seg *Segment) {
	if len(seg.Payload) == 0 {
		return
	}
	seq := seg.Seq
	pl := seg.Payload
	endSeq := seq + uint32(len(pl))
	switch {
	case seqLE(endSeq, c.rcvNxt):
		// Entirely old: re-ACK so the sender's dupack logic advances.
	case seqGT(seq, c.rcvNxt):
		// Future: hold for reassembly.
		c.stats.OutOfOrder++
		if _, ok := c.reasm[seq]; !ok {
			c.reasm[seq] = append([]byte(nil), pl...)
		}
	default:
		if seqLT(seq, c.rcvNxt) {
			pl = pl[c.rcvNxt-seq:]
		}
		c.deliver(pl)
		c.drainReasm()
	}
	c.ackData()
}

// deliver hands in-order bytes to the application.
func (c *Conn) deliver(pl []byte) {
	c.rcvNxt += uint32(len(pl))
	c.stats.BytesDelivered += int64(len(pl))
	if c.OnData != nil {
		c.OnData(pl)
	}
}

func (c *Conn) drainReasm() {
	for {
		pl, ok := c.reasm[c.rcvNxt]
		if !ok {
			return
		}
		delete(c.reasm, c.rcvNxt)
		c.deliver(pl)
	}
}

// ackData acknowledges received data, immediately or (optionally) delayed.
func (c *Conn) ackData() {
	if !c.cfg.DelayedAck {
		_ = c.emit(FlagACK, c.sndNxt, nil)
		return
	}
	c.delAckN++
	if c.delAckN >= 2 {
		c.flushDelAck()
		return
	}
	if !c.delAckT.Pending() {
		c.delAckT = c.stack.sched.After(c.cfg.DelayedAckTimer, "tcp:delack", c.delAckFn)
	}
}

func (c *Conn) flushDelAck() {
	if c.delAckN == 0 {
		return
	}
	c.delAckN = 0
	c.delAckT.Stop()
	_ = c.emit(FlagACK, c.sndNxt, nil)
}

func (c *Conn) processFin(seg *Segment) {
	if !seg.HasFlag(FlagFIN) {
		return
	}
	finSeq := seg.Seq + uint32(len(seg.Payload))
	if finSeq != c.rcvNxt {
		return // out of order FIN; reassembly of data will re-trigger
	}
	if c.finRcvd {
		_ = c.emit(FlagACK, c.sndNxt, nil)
		return
	}
	c.finRcvd = true
	c.rcvNxt++
	if c.cfg.DelayedAck {
		c.flushDelAck()
	}
	_ = c.emit(FlagACK, c.sndNxt, nil)
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
		if c.OnPeerClose != nil {
			c.OnPeerClose()
		}
	case StateFinWait1:
		// Simultaneous close; our FIN unacked yet.
		c.state = StateTimeWait // collapsed CLOSING+TIME_WAIT
		c.scheduleTimeWait()
	case StateFinWait2:
		c.state = StateTimeWait
		c.scheduleTimeWait()
	}
	c.maybeSendFin()
}

func (c *Conn) scheduleTimeWait() {
	c.stack.sched.After(c.cfg.TimeWait, "tcp:timewait", func() {
		if c.state == StateTimeWait {
			c.toClosed()
		}
	})
}

func (c *Conn) toClosed() {
	c.state = StateClosed
	c.stopRTO()
	c.stack.drop(c)
	if c.OnClose != nil {
		c.OnClose()
	}
}
