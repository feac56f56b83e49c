// Package tcp implements the transport layer the paper's evaluation runs
// on: a Reno/NewReno-style TCP with three-way handshake, cumulative
// acknowledgements, slow start, congestion avoidance, fast
// retransmit/recovery, retransmission timeouts, and orderly close.
//
// The paper's §3.3 observation — pure TCP ACKs are small, cumulative and
// redundant, so they can ride unacknowledged as broadcast subframes — is
// exported as IsPureAck, which the network layer's cross-layer classifier
// calls on every packet a node sends. It reads only the segment's length,
// data offset and flags; DecodeSegment is the one decoder that verifies
// the checksum.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"aggmac/internal/network"
)

// HeaderLen is the TCP header size (no options).
const HeaderLen = 20

// Flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
)

// ErrBadSegment reports an undecodable TCP segment.
var ErrBadSegment = errors.New("tcp: malformed segment")

// Segment is one TCP segment.
type Segment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Payload          []byte
}

// HasFlag reports whether all given flag bits are set.
func (s *Segment) HasFlag(f uint8) bool { return s.Flags&f == f }

// IsPureAck reports whether the segment carries only an acknowledgement:
// the ACK flag, no payload, and no part in connection setup or teardown.
// This is the paper's classification rule (§4.2.4).
func (s *Segment) IsPureAck() bool {
	return s.HasFlag(FlagACK) && len(s.Payload) == 0 &&
		s.Flags&(FlagSYN|FlagFIN|FlagRST) == 0
}

// Marshal serializes the segment.
func (s *Segment) Marshal() []byte {
	return s.AppendMarshal(make([]byte, 0, HeaderLen+len(s.Payload)))
}

// AppendMarshal is Marshal appending to b, which may be a reused buffer.
func (s *Segment) AppendMarshal(b []byte) []byte {
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, s.SrcPort)
	b = binary.BigEndian.AppendUint16(b, s.DstPort)
	b = binary.BigEndian.AppendUint32(b, s.Seq)
	b = binary.BigEndian.AppendUint32(b, s.Ack)
	b = append(b, 5<<4, s.Flags) // data offset: 5 words
	b = binary.BigEndian.AppendUint16(b, s.Window)
	// The checksum (bytes 16–17) must read zero while the sum is taken,
	// and the urgent pointer (18–19) is always zero.
	b = append(b, 0, 0, 0, 0)
	b = append(b, s.Payload...)
	binary.BigEndian.PutUint16(b[start+16:start+18], network.Checksum(b[start:]))
	return b
}

// DecodeSegment parses and verifies a segment. It is the one place a TCP
// checksum is checked; the stack's receive path parses without it (see
// parseSegment).
func DecodeSegment(b []byte) (Segment, error) {
	s, err := parseSegment(b)
	if err == nil && network.Checksum(b) != 0 {
		return Segment{}, fmt.Errorf("%w: checksum", ErrBadSegment)
	}
	return s, err
}

// parseSegment reads a segment's fields, checking its length and data
// offset but not its checksum. Delivered segments need no checksum pass:
// the MAC passes a subframe up only when its CRC-32 matches, and CRC-32
// catches every corruption of up to three bits, more than the channel
// model ever flips in one subframe. Senders still write the checksum,
// because it is part of the wire bytes.
func parseSegment(b []byte) (Segment, error) {
	var s Segment
	if len(b) < HeaderLen {
		return s, fmt.Errorf("%w: %d bytes", ErrBadSegment, len(b))
	}
	if b[12]>>4 != 5 {
		return s, fmt.Errorf("%w: data offset %d", ErrBadSegment, b[12]>>4)
	}
	s.SrcPort = binary.BigEndian.Uint16(b[0:2])
	s.DstPort = binary.BigEndian.Uint16(b[2:4])
	s.Seq = binary.BigEndian.Uint32(b[4:8])
	s.Ack = binary.BigEndian.Uint32(b[8:12])
	s.Flags = b[13]
	s.Window = binary.BigEndian.Uint16(b[14:16])
	s.Payload = b[HeaderLen:]
	return s, nil
}

// IsPureAck is the network-layer classifier entry point: it applies the
// §4.2.4 rule to a transport payload, reading only its length, data
// offset and flags. It trusts the checksum like the receive path does:
// the node's own segments are freshly marshaled, and a relayed one passed
// the link's CRC-32. A payload too short or with another data offset is
// never classified (it stays on the unicast path).
func IsPureAck(transport []byte) bool {
	s, err := parseSegment(transport)
	return err == nil && s.IsPureAck()
}
