// Package frame defines the byte-level wire formats of the aggregation MAC:
// MAC subframes (Figure 4 of the paper), aggregated PHY frames with separate
// broadcast and unicast portions (Figures 1 and 2), and the RTS/CTS/ACK
// control frames of 802.11 DCF.
//
// All formats marshal to and decode from real bytes, with a CRC-32 frame
// check sequence computed over each subframe's header and payload. The
// channel model corrupts transmitted bytes, and receivers detect the damage
// through these CRCs exactly as the Hydra MAC does.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"aggmac/internal/phy"
)

// Addr is a 6-byte MAC address.
type Addr [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = Addr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// NodeAddr derives a deterministic locally-administered unicast address for
// a simulated node id.
func NodeAddr(id int) Addr {
	return Addr{0x02, 0x00, 0x48, 0x59, byte(id >> 8), byte(id)}
}

// IsBroadcast reports whether a is the broadcast address.
func (a Addr) IsBroadcast() bool { return a == Broadcast }

func (a Addr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// Type discriminates MAC frame kinds.
type Type uint8

const (
	TypeData Type = iota
	TypeRTS
	TypeCTS
	TypeAck
	TypeBlockAck
)

func (t Type) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeRTS:
		return "RTS"
	case TypeCTS:
		return "CTS"
	case TypeAck:
		return "ACK"
	case TypeBlockAck:
		return "BACK"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Wire layout constants.
const (
	// SubframeHeaderLen is the MAC subframe header of Figure 4:
	// frame control (2) + duration (2) + three addresses (18) + length (2).
	SubframeHeaderLen = 24
	// FCSLen is the CRC-32 frame check sequence.
	FCSLen = 4
	// SubframeOverhead is header + FCS, the per-subframe fixed cost.
	SubframeOverhead = SubframeHeaderLen + FCSLen
	// padAlign: subframes are padded to a 4-byte boundary (PAD octets in
	// Figure 4) so the PHY hands the MAC whole words.
	padAlign = 4

	// RTSLen, CTSLen, AckLen are standard 802.11 control frame sizes.
	RTSLen = 20
	CTSLen = 14
	AckLen = 14
	// BlockAckLen carries RA plus a 16-bit subframe bitmap (the paper's
	// §7 block-ACK extension).
	BlockAckLen = 16

	flagRetry = 1 << 0

	// durationUnit is the granularity of the 2-byte duration field. Hydra
	// aggregates can stay on the air for >65 ms, which overflows 802.11's
	// 1 µs × 15-bit NAV field, so the field counts 4 µs units instead
	// (documented deviation; max ≈ 262 ms).
	durationUnit = 4 * time.Microsecond
)

// Errors returned by decoders.
var (
	ErrTruncated = errors.New("frame: truncated")
	ErrBadLength = errors.New("frame: length field exceeds buffer")
	ErrBadType   = errors.New("frame: unexpected frame type")
)

// Subframe is one MAC frame carried inside an aggregate (Figure 4).
type Subframe struct {
	Retry    bool
	Duration time.Duration // NAV reservation, rounded to durationUnit
	Addr1    Addr          // receiver (next hop), or broadcast
	Addr2    Addr          // transmitter
	Addr3    Addr          // original source (no Address 4: ad-hoc only)
	Payload  []byte
}

// padLen returns the PAD octet count for a payload of n bytes.
func padLen(n int) int {
	total := SubframeOverhead + n
	if r := total % padAlign; r != 0 {
		return padAlign - r
	}
	return 0
}

// WireSize returns the subframe's on-air size including header, FCS and pad.
func (sf *Subframe) WireSize() int {
	return SubframeOverhead + len(sf.Payload) + padLen(len(sf.Payload))
}

func encodeDuration(d time.Duration) uint16 {
	u := (d + durationUnit - 1) / durationUnit
	if u > 0xffff {
		u = 0xffff
	}
	return uint16(u)
}

func decodeDuration(u uint16) time.Duration { return time.Duration(u) * durationUnit }

// AppendWire marshals the subframe, appending its bytes to b.
func (sf *Subframe) AppendWire(b []byte) []byte {
	start := len(b)
	var fc [2]byte
	fc[0] = byte(TypeData)
	if sf.Retry {
		fc[1] |= flagRetry
	}
	b = append(b, fc[0], fc[1])
	b = binary.BigEndian.AppendUint16(b, encodeDuration(sf.Duration))
	b = append(b, sf.Addr1[:]...)
	b = append(b, sf.Addr2[:]...)
	b = append(b, sf.Addr3[:]...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(sf.Payload)))
	b = append(b, sf.Payload...)
	fcs := crc32.ChecksumIEEE(b[start:])
	b = binary.BigEndian.AppendUint32(b, fcs)
	for i := 0; i < padLen(len(sf.Payload)); i++ {
		b = append(b, 0)
	}
	return b
}

// DecodedSubframe is the receive-side view of one subframe: its parsed
// fields plus whether the FCS verified.
type DecodedSubframe struct {
	Subframe
	CRCOK bool
}

// DecodeSubframe parses one subframe from the front of b. It returns the
// parsed subframe, the number of bytes consumed (including pad), and an
// error only when the buffer cannot contain a subframe at all. A corrupted
// FCS is not an error: the subframe is returned with CRCOK=false so the MAC
// can apply its per-portion discard rules.
func DecodeSubframe(b []byte) (DecodedSubframe, int, error) {
	return decodeSubframe(b, true)
}

// decodeSubframe is DecodeSubframe; with verify false it skips the FCS
// recompute and sets CRCOK from the frame type alone, for bytes that
// AppendWire wrote.
func decodeSubframe(b []byte, verify bool) (DecodedSubframe, int, error) {
	var d DecodedSubframe
	if len(b) < SubframeOverhead {
		return d, 0, ErrTruncated
	}
	plen := int(binary.BigEndian.Uint16(b[22:24]))
	wire := SubframeOverhead + plen + padLen(plen)
	if wire > len(b) {
		return d, 0, fmt.Errorf("%w: need %d bytes, have %d", ErrBadLength, wire, len(b))
	}
	d.Retry = b[1]&flagRetry != 0
	d.Duration = decodeDuration(binary.BigEndian.Uint16(b[2:4]))
	copy(d.Addr1[:], b[4:10])
	copy(d.Addr2[:], b[10:16])
	copy(d.Addr3[:], b[16:22])
	d.Payload = b[SubframeHeaderLen : SubframeHeaderLen+plen]
	d.CRCOK = Type(b[0]&0x7) == TypeData
	if verify && d.CRCOK {
		want := binary.BigEndian.Uint32(b[SubframeHeaderLen+plen : SubframeHeaderLen+plen+FCSLen])
		d.CRCOK = crc32.ChecksumIEEE(b[:SubframeHeaderLen+plen]) == want
	}
	return d, wire, nil
}

// DecodePortion walks a broadcast or unicast portion of an aggregate,
// returning every subframe it can delineate. Parsing stops early if a
// length field points outside the portion (bytes after that point are
// unrecoverable without 802.11n-style delimiters); lost reports how many
// bytes could not be walked.
func DecodePortion(b []byte) (subs []DecodedSubframe, lost int) {
	return walkPortion(nil, b, true)
}

// walkPortion is DecodePortion appending into dst, so a receiver can reuse
// one backing array across frames; it checks each FCS only when verify is
// set.
func walkPortion(dst []DecodedSubframe, b []byte, verify bool) (subs []DecodedSubframe, lost int) {
	subs = dst
	for len(b) > 0 {
		d, n, err := decodeSubframe(b, verify)
		if err != nil {
			return subs, len(b)
		}
		subs = append(subs, d)
		b = b[n:]
	}
	return subs, 0
}

// PHYHeader is the aggregate descriptor of Figure 2: rate and length for
// the (optional) broadcast portion and for the unicast portion. Trailing
// flips the on-air order (an ablation of the paper's prepend-broadcasts
// placement rule).
type PHYHeader struct {
	BroadcastRate phy.Rate
	BroadcastLen  int // bytes; 0 means no broadcast portion
	UnicastRate   phy.Rate
	UnicastLen    int // bytes; 0 means broadcast-only frame
	Trailing      bool
}

// PHYHeaderLen is the marshaled descriptor size: 1+3 bytes per portion.
const PHYHeaderLen = 8

const trailingBit = 0x80

// AppendWire marshals the PHY header.
func (h *PHYHeader) AppendWire(b []byte) []byte {
	r0 := byte(h.BroadcastRate)
	if h.Trailing {
		r0 |= trailingBit
	}
	b = append(b, r0)
	b = append(b, byte(h.BroadcastLen>>16), byte(h.BroadcastLen>>8), byte(h.BroadcastLen))
	b = append(b, byte(h.UnicastRate))
	b = append(b, byte(h.UnicastLen>>16), byte(h.UnicastLen>>8), byte(h.UnicastLen))
	return b
}

// DecodePHYHeader parses a marshaled PHY header.
func DecodePHYHeader(b []byte) (PHYHeader, error) {
	var h PHYHeader
	if len(b) < PHYHeaderLen {
		return h, ErrTruncated
	}
	h.Trailing = b[0]&trailingBit != 0
	h.BroadcastRate = phy.Rate(b[0] &^ trailingBit)
	h.BroadcastLen = int(b[1])<<16 | int(b[2])<<8 | int(b[3])
	h.UnicastRate = phy.Rate(b[4])
	h.UnicastLen = int(b[5])<<16 | int(b[6])<<8 | int(b[7])
	if h.BroadcastLen > 0 && !h.BroadcastRate.Valid() || h.UnicastLen > 0 && !h.UnicastRate.Valid() {
		return h, fmt.Errorf("frame: invalid rate in PHY header")
	}
	return h, nil
}

// Aggregate is a whole PHY frame: broadcast subframes first (closest to the
// training sequences, least exposed to channel aging), then the unicast
// subframes, all bound for one receiver. BroadcastTrailing reverses the
// placement (ablation knob).
type Aggregate struct {
	BroadcastRate     phy.Rate
	UnicastRate       phy.Rate
	Broadcast         []*Subframe
	Unicast           []*Subframe
	BroadcastTrailing bool
}

// Span locates one subframe inside the marshaled aggregate body.
type Span struct {
	Broadcast bool
	Off, Size int
}

// HasBroadcast reports whether the aggregate carries broadcast subframes.
func (a *Aggregate) HasBroadcast() bool { return len(a.Broadcast) > 0 }

// HasUnicast reports whether the aggregate carries unicast subframes.
func (a *Aggregate) HasUnicast() bool { return len(a.Unicast) > 0 }

// Subframes returns the total subframe count.
func (a *Aggregate) Subframes() int { return len(a.Broadcast) + len(a.Unicast) }

// BroadcastBytes returns the wire size of the broadcast portion.
func (a *Aggregate) BroadcastBytes() int {
	n := 0
	for _, sf := range a.Broadcast {
		n += sf.WireSize()
	}
	return n
}

// UnicastBytes returns the wire size of the unicast portion.
func (a *Aggregate) UnicastBytes() int {
	n := 0
	for _, sf := range a.Unicast {
		n += sf.WireSize()
	}
	return n
}

// Bytes returns the wire size of the whole body (both portions).
func (a *Aggregate) Bytes() int { return a.BroadcastBytes() + a.UnicastBytes() }

// Header builds the PHY descriptor for the aggregate.
func (a *Aggregate) Header() PHYHeader {
	h := PHYHeader{UnicastRate: a.UnicastRate, UnicastLen: a.UnicastBytes()}
	if a.HasBroadcast() {
		h.BroadcastRate = a.BroadcastRate
		h.BroadcastLen = a.BroadcastBytes()
		h.Trailing = a.BroadcastTrailing
	}
	return h
}

// Marshal serializes both portions and returns the body bytes plus the span
// of every subframe (used by the channel model to corrupt individual
// subframes by airtime offset).
func (a *Aggregate) Marshal() (body []byte, spans []Span) {
	return a.AppendMarshal(make([]byte, 0, a.Bytes()), nil)
}

// AppendMarshal is Marshal appending into caller-provided slices, so the
// channel model can reuse a pooled body and span array across transmissions.
func (a *Aggregate) AppendMarshal(body []byte, spans []Span) ([]byte, []Span) {
	writeBcast := func() {
		for _, sf := range a.Broadcast {
			off := len(body)
			body = sf.AppendWire(body)
			spans = append(spans, Span{Broadcast: true, Off: off, Size: len(body) - off})
		}
	}
	writeUcast := func() {
		for _, sf := range a.Unicast {
			off := len(body)
			body = sf.AppendWire(body)
			spans = append(spans, Span{Off: off, Size: len(body) - off})
		}
	}
	if a.BroadcastTrailing {
		writeUcast()
		writeBcast()
	} else {
		writeBcast()
		writeUcast()
	}
	return body, spans
}

// DecodedAggregate is the receive-side view of an aggregate.
type DecodedAggregate struct {
	Header    PHYHeader
	Broadcast []DecodedSubframe
	Unicast   []DecodedSubframe
	// BroadcastLost and UnicastLost count portion bytes that could not be
	// delineated because a corrupted length field broke the subframe walk.
	BroadcastLost int
	UnicastLost   int
	// LostBytes is the total across both portions.
	LostBytes int
}

// DecodeAggregate splits the body per the PHY header and walks each portion.
func DecodeAggregate(hdr PHYHeader, body []byte) (DecodedAggregate, error) {
	var out DecodedAggregate
	err := DecodeAggregateInto(&out, hdr, body)
	return out, err
}

// DecodeAggregateInto is DecodeAggregate reusing out's slice backing, so a
// receiver decoding one frame at a time allocates nothing in steady state.
// The decoded Payload fields alias body; out's contents are valid until the
// next call with the same out. It checks every subframe's FCS.
func DecodeAggregateInto(out *DecodedAggregate, hdr PHYHeader, body []byte) error {
	return decodeAggregate(out, hdr, body, true)
}

// DecodeMarshaledInto is DecodeAggregateInto for a body exactly as
// Aggregate.AppendMarshal wrote it for hdr: every FCS in such a body
// matches by construction, so none is recomputed, and the result equals
// DecodeAggregateInto's. Bytes that may have been damaged since, however
// slightly, go through DecodeAggregateInto.
func DecodeMarshaledInto(out *DecodedAggregate, hdr PHYHeader, body []byte) error {
	return decodeAggregate(out, hdr, body, false)
}

func decodeAggregate(out *DecodedAggregate, hdr PHYHeader, body []byte, verify bool) error {
	out.Header = hdr
	out.Broadcast = out.Broadcast[:0]
	out.Unicast = out.Unicast[:0]
	out.BroadcastLost, out.UnicastLost, out.LostBytes = 0, 0, 0
	if hdr.BroadcastLen+hdr.UnicastLen != len(body) {
		return fmt.Errorf("%w: header says %d+%d bytes, body is %d",
			ErrBadLength, hdr.BroadcastLen, hdr.UnicastLen, len(body))
	}
	if hdr.Trailing {
		out.Unicast, out.UnicastLost = walkPortion(out.Unicast, body[:hdr.UnicastLen], verify)
		out.Broadcast, out.BroadcastLost = walkPortion(out.Broadcast, body[hdr.UnicastLen:], verify)
	} else {
		out.Broadcast, out.BroadcastLost = walkPortion(out.Broadcast, body[:hdr.BroadcastLen], verify)
		out.Unicast, out.UnicastLost = walkPortion(out.Unicast, body[hdr.BroadcastLen:], verify)
	}
	out.LostBytes = out.BroadcastLost + out.UnicastLost
	return nil
}

// Control is an RTS, CTS, ACK or BlockAck frame.
type Control struct {
	Type     Type
	Duration time.Duration
	RA       Addr   // receiver
	TA       Addr   // transmitter (RTS only)
	Bitmap   uint16 // BlockAck only: bit i acknowledges unicast subframe i
}

// WireSize returns the control frame's on-air size.
func (c *Control) WireSize() int {
	switch c.Type {
	case TypeRTS:
		return RTSLen
	case TypeBlockAck:
		return BlockAckLen
	default:
		return CTSLen
	}
}

// AppendWire marshals the control frame.
func (c *Control) AppendWire(b []byte) []byte {
	start := len(b)
	b = append(b, byte(c.Type), 0)
	b = binary.BigEndian.AppendUint16(b, encodeDuration(c.Duration))
	b = append(b, c.RA[:]...)
	switch c.Type {
	case TypeRTS:
		b = append(b, c.TA[:]...)
	case TypeBlockAck:
		b = binary.BigEndian.AppendUint16(b, c.Bitmap)
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// DecodeControl parses a control frame and verifies its FCS.
func DecodeControl(b []byte) (Control, error) {
	var c Control
	if len(b) < CTSLen {
		return c, ErrTruncated
	}
	c.Type = Type(b[0] & 0x7)
	var n int
	switch c.Type {
	case TypeRTS:
		n = RTSLen
	case TypeCTS, TypeAck:
		n = CTSLen
	case TypeBlockAck:
		n = BlockAckLen
	default:
		return c, ErrBadType
	}
	if len(b) < n {
		return c, ErrTruncated
	}
	want := binary.BigEndian.Uint32(b[n-FCSLen : n])
	if got := crc32.ChecksumIEEE(b[:n-FCSLen]); got != want {
		return c, fmt.Errorf("frame: control FCS mismatch")
	}
	c.Duration = decodeDuration(binary.BigEndian.Uint16(b[2:4]))
	copy(c.RA[:], b[4:10])
	switch c.Type {
	case TypeRTS:
		copy(c.TA[:], b[10:16])
	case TypeBlockAck:
		c.Bitmap = binary.BigEndian.Uint16(b[10:12])
	}
	return c, nil
}
