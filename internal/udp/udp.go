// Package udp provides the datagram transport and the controllable-rate
// traffic application the paper uses for its UDP experiments (§5: "an
// application that simply sent UDP packets at a controllable rate",
// sized so each data packet becomes an 1140-byte MAC frame).
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/network"
	"aggmac/internal/sim"
)

// HeaderLen is the UDP header size.
const HeaderLen = 8

// PaperFrameBytes is the MAC frame size of the paper's UDP data packets.
const PaperFrameBytes = 1140

// PaperPayloadBytes is the application payload that yields an 1140-byte MAC
// frame through this stack's headers.
const PaperPayloadBytes = PaperFrameBytes - frame.SubframeOverhead - network.HeaderLen - HeaderLen

// ErrBadDatagram reports an undecodable datagram.
var ErrBadDatagram = errors.New("udp: malformed datagram")

// Datagram is one UDP datagram.
type Datagram struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// Marshal serializes the datagram.
func (d *Datagram) Marshal() []byte {
	return d.AppendMarshal(make([]byte, 0, HeaderLen+len(d.Payload)))
}

// AppendMarshal is Marshal appending to b, which may be a reused buffer.
func (d *Datagram) AppendMarshal(b []byte) []byte {
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, d.SrcPort)
	b = binary.BigEndian.AppendUint16(b, d.DstPort)
	b = binary.BigEndian.AppendUint16(b, uint16(HeaderLen+len(d.Payload)))
	// The checksum slot (bytes 6–7) must read zero while the sum is taken.
	b = append(b, 0, 0)
	b = append(b, d.Payload...)
	binary.BigEndian.PutUint16(b[start+6:start+8], network.Checksum(b[start:]))
	return b
}

// Decode parses and verifies a datagram. It is the one place a UDP
// checksum is checked; the endpoint's receive path parses without it (see
// parseDatagram).
func Decode(b []byte) (Datagram, error) {
	d, err := parseDatagram(b)
	if err == nil && network.Checksum(b) != 0 {
		return Datagram{}, fmt.Errorf("%w: checksum", ErrBadDatagram)
	}
	return d, err
}

// parseDatagram reads a datagram's fields, checking its length but not its
// checksum. Delivered datagrams need no checksum pass: the MAC passes a
// subframe up only when its CRC-32 matches, and CRC-32 catches every
// corruption of up to three bits, more than the channel model ever flips
// in one subframe. Senders still write the checksum, because it is part of
// the wire bytes.
func parseDatagram(b []byte) (Datagram, error) {
	var d Datagram
	if len(b) < HeaderLen {
		return d, fmt.Errorf("%w: %d bytes", ErrBadDatagram, len(b))
	}
	if int(binary.BigEndian.Uint16(b[4:6])) != len(b) {
		return d, fmt.Errorf("%w: length", ErrBadDatagram)
	}
	d.SrcPort = binary.BigEndian.Uint16(b[0:2])
	d.DstPort = binary.BigEndian.Uint16(b[2:4])
	d.Payload = b[HeaderLen:]
	return d, nil
}

// Endpoint is one node's UDP entity.
type Endpoint struct {
	sched *sim.Scheduler
	node  *network.Node
	ports map[uint16]func(src network.NodeID, d Datagram)
	// scratch holds the datagram being sent; network.Node.Send copies it.
	scratch []byte
}

// NewEndpoint attaches a UDP entity to the node.
func NewEndpoint(sched *sim.Scheduler, node *network.Node) *Endpoint {
	e := &Endpoint{sched: sched, node: node, ports: make(map[uint16]func(network.NodeID, Datagram))}
	node.Handle(network.ProtoUDP, e.onPacket)
	return e
}

// Listen registers a receiver on port.
func (e *Endpoint) Listen(port uint16, fn func(src network.NodeID, d Datagram)) {
	e.ports[port] = fn
}

// Send transmits one datagram. The payload is copied before Send returns.
func (e *Endpoint) Send(dst network.NodeID, srcPort, dstPort uint16, payload []byte) error {
	d := Datagram{SrcPort: srcPort, DstPort: dstPort, Payload: payload}
	e.scratch = d.AppendMarshal(e.scratch[:0])
	return e.node.Send(network.Packet{
		Proto: network.ProtoUDP, Src: e.node.ID(), Dst: dst, Payload: e.scratch,
	})
}

func (e *Endpoint) onPacket(pkt network.Packet) {
	d, err := parseDatagram(pkt.Payload)
	if err != nil {
		return
	}
	if fn := e.ports[d.DstPort]; fn != nil {
		fn(pkt.Src, d)
	}
}

// Sender generates UDP traffic. Two modes reproduce the paper's app:
//
//   - Paced: every Interval, enqueue Burst packets (the §6.1 "data
//     interval" that controls how much queueing builds up).
//   - Saturate (Burst == 0): keep the sender's MAC queue topped up so the
//     link runs at capacity (the §6.2 table-2 measurements).
type Sender struct {
	Endpoint     *Endpoint
	Dst          network.NodeID
	SrcPort      uint16
	DstPort      uint16
	PayloadBytes int
	Interval     time.Duration
	Burst        int
	// QueueTarget is the MAC backlog Saturate mode maintains.
	QueueTarget int

	// Timestamp embeds the send time in each payload's first 8 bytes so
	// the sink can measure one-way delay.
	Timestamp bool

	Sent    int
	Dropped int

	running bool
	timer   sim.Timer
	tickFn  func() // stable callback for the scheduler (no per-tick closure)
	// payload is reused by every datagram: Endpoint.Send copies it, and
	// only the timestamp bytes ever change.
	payload []byte
}

// Start begins generation; it runs until Stop.
func (s *Sender) Start() {
	if s.running {
		return
	}
	s.running = true
	if s.PayloadBytes <= 0 {
		s.PayloadBytes = PaperPayloadBytes
	}
	if s.Interval <= 0 {
		s.Interval = 5 * time.Millisecond
	}
	if s.tickFn == nil {
		s.tickFn = s.tick
	}
	if s.QueueTarget <= 0 {
		s.QueueTarget = 20
	}
	s.tick()
}

// Stop halts generation.
func (s *Sender) Stop() {
	s.running = false
	s.timer.Stop()
}

func (s *Sender) sendOne() {
	if len(s.payload) != s.PayloadBytes {
		s.payload = make([]byte, s.PayloadBytes)
	}
	p := s.payload
	if s.Timestamp && len(p) >= 8 {
		binary.BigEndian.PutUint64(p, uint64(s.Endpoint.sched.Now()))
	}
	if err := s.Endpoint.Send(s.Dst, s.SrcPort, s.DstPort, p); err != nil {
		s.Dropped++
		return
	}
	s.Sent++
}

func (s *Sender) tick() {
	if !s.running {
		return
	}
	if s.Burst > 0 {
		for i := 0; i < s.Burst; i++ {
			s.sendOne()
		}
	} else {
		// Saturate: top the unicast queue up to the target.
		_, uq := s.Endpoint.node.MAC().QueueLen()
		for i := uq; i < s.QueueTarget; i++ {
			s.sendOne()
		}
	}
	s.timer = s.Endpoint.sched.After(s.Interval, "udp:tick", s.tickFn)
}

// Sink counts delivered datagrams on a port and measures goodput and, for
// timestamped senders, one-way delay.
type Sink struct {
	Packets int
	Bytes   int64

	sched       *sim.Scheduler
	start       sim.Time
	winStart    sim.Time
	winBytes    int64
	measureFrom sim.Time
	delays      []time.Duration
}

// maxDelaySamples caps memory for very long runs.
const maxDelaySamples = 1 << 17

// NewSink listens on port at the endpoint.
func NewSink(e *Endpoint, port uint16) *Sink {
	s := &Sink{sched: e.sched, start: e.sched.Now()}
	e.Listen(port, func(_ network.NodeID, d Datagram) {
		s.Packets++
		s.Bytes += int64(len(d.Payload))
		if e.sched.Now() >= s.measureFrom {
			s.winBytes += int64(len(d.Payload))
			if s.winStart == 0 {
				s.winStart = s.measureFrom
			}
			if len(d.Payload) >= 8 && len(s.delays) < maxDelaySamples {
				if ts := sim.Time(binary.BigEndian.Uint64(d.Payload)); ts > 0 && ts <= e.sched.Now() {
					s.delays = append(s.delays, e.sched.Now()-ts)
				}
			}
		}
	})
	return s
}

// DelayStats summarises one-way delay of timestamped datagrams.
type DelayStats struct {
	Count    int
	Mean     time.Duration
	P50, P95 time.Duration
	Max      time.Duration
}

// Delays computes delay statistics over the measurement window.
func (s *Sink) Delays() DelayStats {
	var st DelayStats
	st.Count = len(s.delays)
	if st.Count == 0 {
		return st
	}
	sorted := slices.Clone(s.delays)
	slices.Sort(sorted)
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	st.Mean = sum / time.Duration(st.Count)
	st.P50 = sorted[st.Count/2]
	st.P95 = sorted[st.Count*95/100]
	st.Max = sorted[st.Count-1]
	return st
}

// MeasureFrom discards traffic before t from the throughput window
// (warm-up exclusion).
func (s *Sink) MeasureFrom(t sim.Time) { s.measureFrom = t }

// ThroughputMbps is application goodput over the measurement window ending
// now.
func (s *Sink) ThroughputMbps() float64 {
	dur := s.sched.Now() - s.measureFrom
	if dur <= 0 {
		return 0
	}
	return float64(s.winBytes) * 8 / dur.Seconds() / 1e6
}
