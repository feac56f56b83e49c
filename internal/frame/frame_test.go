package frame

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"aggmac/internal/phy"
)

func mkSubframe(n int, a1 byte) *Subframe {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return &Subframe{
		Duration: 1200 * time.Microsecond,
		Addr1:    Addr{a1, 1, 2, 3, 4, 5},
		Addr2:    NodeAddr(2),
		Addr3:    NodeAddr(3),
		Payload:  p,
	}
}

func TestNodeAddrUniqueUnicast(t *testing.T) {
	seen := map[Addr]bool{}
	for i := 0; i < 1000; i++ {
		a := NodeAddr(i)
		if a.IsBroadcast() {
			t.Fatalf("NodeAddr(%d) is broadcast", i)
		}
		if seen[a] {
			t.Fatalf("NodeAddr(%d) collides", i)
		}
		seen[a] = true
	}
	if !Broadcast.IsBroadcast() {
		t.Fatal("Broadcast.IsBroadcast() = false")
	}
	if NodeAddr(1).String() == "" {
		t.Fatal("empty addr string")
	}
}

func TestSubframeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 79, 132, 1436} {
		sf := mkSubframe(n, 9)
		sf.Retry = n%2 == 0
		wire := sf.AppendWire(nil)
		if len(wire) != sf.WireSize() {
			t.Fatalf("payload %d: wire len %d != WireSize %d", n, len(wire), sf.WireSize())
		}
		if len(wire)%4 != 0 {
			t.Fatalf("payload %d: wire size %d not 4-byte aligned", n, len(wire))
		}
		d, consumed, err := DecodeSubframe(wire)
		if err != nil {
			t.Fatalf("payload %d: decode: %v", n, err)
		}
		if consumed != len(wire) {
			t.Fatalf("payload %d: consumed %d of %d", n, consumed, len(wire))
		}
		if !d.CRCOK {
			t.Fatalf("payload %d: CRC failed on clean frame", n)
		}
		if d.Retry != sf.Retry || d.Addr1 != sf.Addr1 || d.Addr2 != sf.Addr2 || d.Addr3 != sf.Addr3 {
			t.Fatalf("payload %d: header fields mangled: %+v", n, d)
		}
		if !bytes.Equal(d.Payload, sf.Payload) {
			t.Fatalf("payload %d: payload mangled", n)
		}
		if d.Duration != sf.Duration {
			t.Fatalf("payload %d: duration %v != %v", n, d.Duration, sf.Duration)
		}
	}
}

func TestPaperFrameSizes(t *testing.T) {
	// §5: MSS 1357 -> 1464 B MAC frame; pure TCP ACKs -> 160 B.
	// With the 39 B Hydra/Click encap: data payload is 1357+40+39 = 1436,
	// ACK payload (after min-pad) is 132.
	if got := (&Subframe{Payload: make([]byte, 1436)}).WireSize(); got != 1464 {
		t.Errorf("TCP data subframe = %d B, paper says 1464", got)
	}
	if got := (&Subframe{Payload: make([]byte, 132)}).WireSize(); got != 160 {
		t.Errorf("TCP ACK subframe = %d B, paper says 160", got)
	}
	if got := (&Subframe{Payload: make([]byte, 1112)}).WireSize(); got != 1140 {
		t.Errorf("UDP subframe = %d B, paper says 1140", got)
	}
}

func TestSubframeCorruptionDetected(t *testing.T) {
	sf := mkSubframe(200, 9)
	wire := sf.AppendWire(nil)
	// Flip a bit in the payload region: CRC must catch it.
	wire[SubframeHeaderLen+50] ^= 0x10
	d, _, err := DecodeSubframe(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.CRCOK {
		t.Fatal("payload corruption not detected by FCS")
	}
}

func TestSubframeHeaderCorruptionDetected(t *testing.T) {
	sf := mkSubframe(200, 9)
	wire := sf.AppendWire(nil)
	wire[5] ^= 0x01 // Addr1 bit
	d, _, err := DecodeSubframe(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.CRCOK {
		t.Fatal("address corruption not detected by FCS")
	}
}

func TestDecodeSubframeTruncated(t *testing.T) {
	if _, _, err := DecodeSubframe(make([]byte, 10)); err == nil {
		t.Fatal("want error on short buffer")
	}
	sf := mkSubframe(100, 1)
	wire := sf.AppendWire(nil)
	if _, _, err := DecodeSubframe(wire[:len(wire)-8]); err == nil {
		t.Fatal("want error when length field exceeds buffer")
	}
}

func TestDecodePortionWalk(t *testing.T) {
	var body []byte
	sizes := []int{40, 1436, 132, 0, 500}
	for i, n := range sizes {
		body = mkSubframe(n, byte(i)).AppendWire(body)
	}
	subs, lost := DecodePortion(body)
	if lost != 0 {
		t.Fatalf("lost %d bytes on clean portion", lost)
	}
	if len(subs) != len(sizes) {
		t.Fatalf("decoded %d subframes, want %d", len(subs), len(sizes))
	}
	for i, d := range subs {
		if !d.CRCOK {
			t.Errorf("subframe %d CRC failed", i)
		}
		if len(d.Payload) != sizes[i] {
			t.Errorf("subframe %d payload %d, want %d", i, len(d.Payload), sizes[i])
		}
	}
}

func TestDecodePortionStopsOnBrokenLength(t *testing.T) {
	var body []byte
	body = mkSubframe(100, 0).AppendWire(body)
	second := len(body)
	body = mkSubframe(100, 1).AppendWire(body)
	body = mkSubframe(100, 2).AppendWire(body)
	// Smash the second subframe's length field to a huge value.
	body[second+22] = 0xff
	body[second+23] = 0xff
	subs, lost := DecodePortion(body)
	if len(subs) != 1 {
		t.Fatalf("decoded %d subframes, want 1 (walk must stop)", len(subs))
	}
	if lost == 0 {
		t.Fatal("lost bytes not reported")
	}
}

func TestAggregateRoundTrip(t *testing.T) {
	agg := &Aggregate{
		BroadcastRate: phy.Rate1300k,
		UnicastRate:   phy.Rate2600k,
		Broadcast:     []*Subframe{mkSubframe(132, 1), mkSubframe(132, 2)},
		Unicast:       []*Subframe{mkSubframe(1436, 3), mkSubframe(1436, 3), mkSubframe(1436, 3)},
	}
	body, spans := agg.Marshal()
	if len(body) != agg.Bytes() {
		t.Fatalf("body %d bytes, Bytes() says %d", len(body), agg.Bytes())
	}
	if len(spans) != 5 {
		t.Fatalf("%d spans, want 5", len(spans))
	}
	if agg.BroadcastBytes() != 2*160 {
		t.Fatalf("broadcast bytes = %d, want 320", agg.BroadcastBytes())
	}
	if agg.UnicastBytes() != 3*1464 {
		t.Fatalf("unicast bytes = %d, want 4392", agg.UnicastBytes())
	}
	// Spans are contiguous and ordered broadcast-first.
	off := 0
	for i, sp := range spans {
		if sp.Off != off {
			t.Fatalf("span %d off %d, want %d", i, sp.Off, off)
		}
		if (i < 2) != sp.Broadcast {
			t.Fatalf("span %d broadcast flag wrong", i)
		}
		off += sp.Size
	}

	hdr := agg.Header()
	wire := hdr.AppendWire(nil)
	if len(wire) != PHYHeaderLen {
		t.Fatalf("PHY header %d bytes, want %d", len(wire), PHYHeaderLen)
	}
	hdr2, err := DecodePHYHeader(wire)
	if err != nil || hdr2 != hdr {
		t.Fatalf("PHY header round trip: %+v vs %+v (%v)", hdr2, hdr, err)
	}

	dec, err := DecodeAggregate(hdr, body)
	if err != nil {
		t.Fatalf("DecodeAggregate: %v", err)
	}
	if len(dec.Broadcast) != 2 || len(dec.Unicast) != 3 || dec.LostBytes != 0 {
		t.Fatalf("decoded %d/%d subframes, lost %d", len(dec.Broadcast), len(dec.Unicast), dec.LostBytes)
	}
	for _, d := range append(dec.Broadcast, dec.Unicast...) {
		if !d.CRCOK {
			t.Fatal("clean aggregate subframe failed CRC")
		}
	}
}

func TestAggregateBroadcastOnlyAndUnicastOnly(t *testing.T) {
	bo := &Aggregate{BroadcastRate: phy.Rate650k, Broadcast: []*Subframe{mkSubframe(132, 1)}}
	if bo.HasUnicast() || !bo.HasBroadcast() {
		t.Fatal("broadcast-only flags wrong")
	}
	h := bo.Header()
	if h.UnicastLen != 0 || h.BroadcastLen != 160 {
		t.Fatalf("broadcast-only header: %+v", h)
	}
	uo := &Aggregate{UnicastRate: phy.Rate650k, Unicast: []*Subframe{mkSubframe(1436, 1)}}
	if uo.HasBroadcast() || !uo.HasUnicast() {
		t.Fatal("unicast-only flags wrong")
	}
	body, _ := uo.Marshal()
	dec, err := DecodeAggregate(uo.Header(), body)
	if err != nil || len(dec.Unicast) != 1 || len(dec.Broadcast) != 0 {
		t.Fatalf("unicast-only decode: %+v, %v", dec, err)
	}
}

func TestDecodeAggregateLengthMismatch(t *testing.T) {
	agg := &Aggregate{UnicastRate: phy.Rate650k, Unicast: []*Subframe{mkSubframe(100, 1)}}
	body, _ := agg.Marshal()
	hdr := agg.Header()
	hdr.UnicastLen++
	if _, err := DecodeAggregate(hdr, body); err == nil {
		t.Fatal("want error on header/body length mismatch")
	}
}

func TestControlRoundTrip(t *testing.T) {
	cases := []Control{
		{Type: TypeRTS, Duration: 5 * time.Millisecond, RA: NodeAddr(1), TA: NodeAddr(2)},
		{Type: TypeCTS, Duration: 4 * time.Millisecond, RA: NodeAddr(2)},
		{Type: TypeAck, RA: NodeAddr(3)},
		{Type: TypeBlockAck, RA: NodeAddr(4), Bitmap: 0b1011},
	}
	wantLen := []int{RTSLen, CTSLen, AckLen, BlockAckLen}
	for i, c := range cases {
		wire := c.AppendWire(nil)
		if len(wire) != wantLen[i] {
			t.Errorf("%v wire = %d bytes, want %d", c.Type, len(wire), wantLen[i])
		}
		if len(wire) != c.WireSize() {
			t.Errorf("%v WireSize = %d, wire %d", c.Type, c.WireSize(), len(wire))
		}
		got, err := DecodeControl(wire)
		if err != nil {
			t.Fatalf("%v decode: %v", c.Type, err)
		}
		if got.Type != c.Type || got.RA != c.RA {
			t.Errorf("%v fields mangled: %+v", c.Type, got)
		}
		if c.Type == TypeRTS && got.TA != c.TA {
			t.Errorf("RTS TA mangled")
		}
		if c.Type == TypeBlockAck && got.Bitmap != c.Bitmap {
			t.Errorf("BlockAck bitmap mangled: %b", got.Bitmap)
		}
	}
}

func TestControlCorruptionDetected(t *testing.T) {
	c := Control{Type: TypeCTS, Duration: time.Millisecond, RA: NodeAddr(1)}
	wire := c.AppendWire(nil)
	wire[6] ^= 0x80
	if _, err := DecodeControl(wire); err == nil {
		t.Fatal("corrupted CTS decoded without error")
	}
	if _, err := DecodeControl([]byte{1, 2, 3}); err == nil {
		t.Fatal("short control decoded without error")
	}
	bad := make([]byte, CTSLen)
	bad[0] = 0x7 // not a valid type
	if _, err := DecodeControl(bad); err == nil {
		t.Fatal("bad type decoded without error")
	}
}

func TestDurationRounding(t *testing.T) {
	// Durations round UP to the 4 µs unit so NAV reservations never
	// under-cover the exchange.
	sf := &Subframe{Duration: 10*time.Microsecond + time.Nanosecond}
	d, _, err := DecodeSubframe(sf.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if d.Duration < sf.Duration {
		t.Fatalf("decoded duration %v < original %v", d.Duration, sf.Duration)
	}
	if d.Duration > sf.Duration+4*time.Microsecond {
		t.Fatalf("decoded duration %v over-rounds", d.Duration)
	}
}

// Property: any payload round-trips bit-exactly and never fails CRC.
func TestPropertySubframeRoundTrip(t *testing.T) {
	f := func(payload []byte, a1, a2, a3 [6]byte, retry bool) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		sf := &Subframe{Retry: retry, Addr1: a1, Addr2: a2, Addr3: a3, Payload: payload}
		d, n, err := DecodeSubframe(sf.AppendWire(nil))
		return err == nil && n == sf.WireSize() && d.CRCOK &&
			bytes.Equal(d.Payload, payload) && d.Addr1 == Addr(a1) && d.Retry == retry
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any single bit of the un-padded region is detected.
func TestPropertyAnySingleBitFlipDetected(t *testing.T) {
	f := func(seed int64, bitIdx uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, 1+rng.Intn(300))
		rng.Read(payload)
		sf := &Subframe{Addr1: NodeAddr(1), Addr2: NodeAddr(2), Payload: payload}
		wire := sf.AppendWire(nil)
		protected := (SubframeOverhead + len(payload)) * 8
		bit := int(bitIdx) % protected
		wire[bit/8] ^= 1 << (bit % 8)
		d, _, err := DecodeSubframe(wire)
		if err != nil {
			// Length-field corruption can make the frame undecodable:
			// that is detection too.
			return true
		}
		return !d.CRCOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

// Property: an aggregate with arbitrary subframe sizes round-trips with all
// spans contiguous and all CRCs passing.
func TestPropertyAggregateRoundTrip(t *testing.T) {
	f := func(bSizes, uSizes []uint16) bool {
		if len(bSizes) > 8 {
			bSizes = bSizes[:8]
		}
		if len(uSizes) > 8 {
			uSizes = uSizes[:8]
		}
		agg := &Aggregate{BroadcastRate: phy.Rate650k, UnicastRate: phy.Rate1300k}
		for i, n := range bSizes {
			agg.Broadcast = append(agg.Broadcast, mkSubframe(int(n%2000), byte(i)))
		}
		for i, n := range uSizes {
			agg.Unicast = append(agg.Unicast, mkSubframe(int(n%2000), byte(i)))
		}
		body, spans := agg.Marshal()
		if len(spans) != agg.Subframes() {
			return false
		}
		dec, err := DecodeAggregate(agg.Header(), body)
		if err != nil {
			return false
		}
		if len(dec.Broadcast) != len(bSizes) || len(dec.Unicast) != len(uSizes) {
			return false
		}
		for _, d := range append(dec.Broadcast, dec.Unicast...) {
			if !d.CRCOK {
				return false
			}
		}
		return dec.LostBytes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSubframeMarshal(b *testing.B) {
	sf := mkSubframe(1436, 1)
	buf := make([]byte, 0, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = sf.AppendWire(buf[:0])
	}
}

func BenchmarkAggregateDecode(b *testing.B) {
	agg := &Aggregate{
		BroadcastRate: phy.Rate650k, UnicastRate: phy.Rate1300k,
		Broadcast: []*Subframe{mkSubframe(132, 1)},
		Unicast:   []*Subframe{mkSubframe(1436, 2), mkSubframe(1436, 2), mkSubframe(1436, 2)},
	}
	body, _ := agg.Marshal()
	hdr := agg.Header()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAggregate(hdr, body); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAggregateBroadcastTrailing(t *testing.T) {
	agg := &Aggregate{
		BroadcastRate:     phy.Rate650k,
		UnicastRate:       phy.Rate1300k,
		Broadcast:         []*Subframe{mkSubframe(132, 1)},
		Unicast:           []*Subframe{mkSubframe(1436, 2)},
		BroadcastTrailing: true,
	}
	body, spans := agg.Marshal()
	// Unicast leads on the wire.
	if spans[0].Broadcast || !spans[1].Broadcast {
		t.Fatalf("trailing layout wrong: %+v", spans)
	}
	if spans[0].Off != 0 || spans[1].Off != 1464 {
		t.Fatalf("offsets wrong: %+v", spans)
	}
	hdr := agg.Header()
	if !hdr.Trailing {
		t.Fatal("header lost the trailing flag")
	}
	// Header round-trips the flag.
	hdr2, err := DecodePHYHeader(hdr.AppendWire(nil))
	if err != nil || hdr2 != hdr {
		t.Fatalf("trailing header round trip: %+v vs %+v (%v)", hdr2, hdr, err)
	}
	dec, err := DecodeAggregate(hdr, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Broadcast) != 1 || len(dec.Unicast) != 1 {
		t.Fatalf("trailing decode: %d/%d", len(dec.Broadcast), len(dec.Unicast))
	}
	for _, d := range append(dec.Broadcast, dec.Unicast...) {
		if !d.CRCOK {
			t.Fatal("trailing-layout subframe failed CRC")
		}
	}
}

// TestCRCCatchesChannelCorruption backs the transport receive paths'
// trust in the link CRC. The channel model flips one to three bits inside
// one subframe's span. On the largest subframe the runs carry, the
// 1464-byte TCP data frame, every single-bit flip and 120k random sets of
// two or three distinct bits must leave no subframe of the walk with
// CRCOK set: either the FCS fails or the flipped length field breaks
// delineation.
func TestCRCCatchesChannelCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	payload := make([]byte, 1436)
	rng.Read(payload)
	sf := &Subframe{Duration: 1200 * time.Microsecond, Addr1: NodeAddr(1), Addr2: NodeAddr(0),
		Addr3: NodeAddr(0), Payload: payload}
	wire := sf.AppendWire(nil)
	if len(wire) != 1464 {
		t.Fatalf("subframe is %d B, want the paper's 1464", len(wire))
	}
	var subs []DecodedSubframe
	passes := func(bits ...int) bool {
		for _, b := range bits {
			wire[b/8] ^= 1 << (b % 8)
		}
		subs, _ = walkPortion(subs[:0], wire, true)
		for _, b := range bits {
			wire[b/8] ^= 1 << (b % 8)
		}
		for _, d := range subs {
			if d.CRCOK {
				return true
			}
		}
		return false
	}
	n := len(wire) * 8
	for b := 0; b < n; b++ {
		if passes(b) {
			t.Fatalf("flip of bit %d passes the CRC", b)
		}
	}
	for i := 0; i < 120_000; i++ {
		a, b, c := rng.Intn(n), rng.Intn(n-1), rng.Intn(n-2)
		// Map b and c past the bits already drawn, so all are distinct.
		if b >= a {
			b++
		}
		lo, hi := min(a, b), max(a, b)
		if c >= lo {
			c++
		}
		if c >= hi {
			c++
		}
		if i%2 == 0 {
			if passes(a, b) {
				t.Fatalf("flips of bits %d, %d pass the CRC", a, b)
			}
		} else if passes(a, b, c) {
			t.Fatalf("flips of bits %d, %d, %d pass the CRC", a, b, c)
		}
	}
}

// TestDecodeMarshaledMatchesVerifyingDecode: on a body exactly as
// AppendMarshal wrote it, the decode that skips the FCS recompute gives
// the verifying decode's view, in both portion orders.
func TestDecodeMarshaledMatchesVerifyingDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var want, got DecodedAggregate
	for trial := 0; trial < 200; trial++ {
		agg := &Aggregate{BroadcastRate: phy.Rate650k, UnicastRate: phy.Rate1300k,
			BroadcastTrailing: trial%2 == 1}
		for i := rng.Intn(4); i > 0; i-- {
			agg.Broadcast = append(agg.Broadcast, mkSubframe(rng.Intn(200), byte(i)))
		}
		for i := rng.Intn(6); i > 0; i-- {
			agg.Unicast = append(agg.Unicast, mkSubframe(rng.Intn(1500), byte(i)))
		}
		body, _ := agg.Marshal()
		if err := DecodeAggregateInto(&want, agg.Header(), body); err != nil {
			t.Fatal(err)
		}
		if err := DecodeMarshaledInto(&got, agg.Header(), body); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: decoded views differ:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}
