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

// viewRadio hands each aggregate's body and decoded view to a callback,
// inside RxAggregate while both are still valid.
type viewRadio struct {
	on func(body []byte, dec *frame.DecodedAggregate)
}

func (v *viewRadio) CarrierBusy()                             {}
func (v *viewRadio) CarrierIdle()                             {}
func (v *viewRadio) RxControl(NodeID, frame.Control, float64) {}
func (v *viewRadio) RxAggregate(_ NodeID, _ frame.PHYHeader, body []byte, dec *frame.DecodedAggregate) {
	v.on(body, dec)
}

// equalViews compares two decoded aggregates field by field (a reused view
// holds empty slices where a fresh decode holds nil ones).
func equalViews(a, b *frame.DecodedAggregate) bool {
	sub := func(x, y frame.DecodedSubframe) bool {
		return x.CRCOK == y.CRCOK && x.Retry == y.Retry && x.Duration == y.Duration &&
			x.Addr1 == y.Addr1 && x.Addr2 == y.Addr2 && x.Addr3 == y.Addr3 &&
			bytes.Equal(x.Payload, y.Payload)
	}
	return a.Header == b.Header && a.BroadcastLost == b.BroadcastLost &&
		a.UnicastLost == b.UnicastLost && a.LostBytes == b.LostBytes &&
		slices.EqualFunc(a.Broadcast, b.Broadcast, sub) && slices.EqualFunc(a.Unicast, b.Unicast, sub)
}

// mixedAgg is an aggregate with both portions, so a decoded view covers
// broadcast and unicast subframes.
func mixedAgg() *frame.Aggregate {
	agg := dataAgg(3, 400, frame.NodeAddr(1))
	agg.BroadcastRate = phy.Rate650k
	for i := 0; i < 2; i++ {
		agg.Broadcast = append(agg.Broadcast, &frame.Subframe{
			Addr1: frame.Broadcast, Addr2: frame.NodeAddr(0), Payload: bytes.Repeat([]byte{byte(i + 1)}, 60),
		})
	}
	return agg
}

// TestCleanReceiversShareDecodedView pins decode-once: every clean receiver
// of a frame gets the same *DecodedAggregate, and it is exactly what
// frame.DecodeAggregateInto makes of the marshaled body.
func TestCleanReceiversShareDecodedView(t *testing.T) {
	const n = 4
	s := sim.NewScheduler(1)
	m := New(s, phy.DefaultParams(), n)
	agg := mixedAgg()
	body, _ := agg.Marshal()
	var want frame.DecodedAggregate
	if err := frame.DecodeAggregateInto(&want, agg.Header(), body); err != nil {
		t.Fatal(err)
	}
	var views []*frame.DecodedAggregate
	m.Attach(0, nopRadio{})
	for i := 1; i < n; i++ {
		m.Attach(NodeID(i), &viewRadio{on: func(_ []byte, dec *frame.DecodedAggregate) {
			if dec == nil {
				t.Fatal("clean receiver got no decoded view")
			}
			if !equalViews(dec, &want) {
				t.Error("shared view differs from DecodeAggregateInto of the marshaled body")
			}
			views = append(views, dec)
		}})
	}
	const tries = 3
	for i := 0; i < tries; i++ {
		s.After(sim.Time(i)*time.Second, "tx", func() { m.TransmitAggregate(0, agg) })
	}
	s.Run()
	if len(views) != tries*(n-1) {
		t.Fatalf("got %d views, want %d", len(views), tries*(n-1))
	}
	for f := 0; f < tries; f++ {
		for i := 1; i < n-1; i++ {
			if views[f*(n-1)+i] != views[f*(n-1)] {
				t.Fatalf("frame %d: receiver %d got a view of its own", f, i+1)
			}
		}
	}
}

// TestCorruptReceiverGetsPrivateView pins copy-on-corrupt for the decoded
// view: a receiver whose copy was damaged gets a view of its own bytes, not
// the shared one, with the damaged subframe failing its FCS; the clean
// receiver after it still gets the shared view of the marshaled body.
func TestCorruptReceiverGetsPrivateView(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, phy.DefaultParams(), 3)
	agg := mixedAgg()
	want, spans := agg.Marshal()
	var clean frame.DecodedAggregate
	if err := frame.DecodeAggregateInto(&clean, agg.Header(), want); err != nil {
		t.Fatal(err)
	}
	var corruptView *frame.DecodedAggregate
	var corrupted, damagedChecked, cleanAfter int
	m.Attach(0, nopRadio{})
	m.Attach(1, &viewRadio{on: func(body []byte, dec *frame.DecodedAggregate) {
		corruptView = nil
		if bytes.Equal(body, want) {
			return
		}
		corrupted++
		corruptView = dec
		var fresh frame.DecodedAggregate
		if err := frame.DecodeAggregateInto(&fresh, agg.Header(), body); err != nil {
			t.Fatal(err)
		}
		if dec == nil || !equalViews(dec, &fresh) {
			t.Fatal("corrupted receiver's view is not the decode of its own bytes")
		}
		if dec.LostBytes != 0 || len(dec.Broadcast)+len(dec.Unicast) != len(spans) {
			return // a damaged length field broke delineation
		}
		subs := append(slices.Clone(dec.Broadcast), dec.Unicast...)
		for i, sp := range spans {
			if !bytes.Equal(body[sp.Off:sp.Off+sp.Size], want[sp.Off:sp.Off+sp.Size]) {
				if subs[i].CRCOK {
					t.Errorf("damaged subframe %d passed its FCS", i)
				}
				damagedChecked++
			}
		}
	}})
	m.Attach(2, &viewRadio{on: func(body []byte, dec *frame.DecodedAggregate) {
		if !bytes.Equal(body, want) || dec == nil || !equalViews(dec, &clean) {
			t.Error("clean receiver's view changed after a corrupted delivery")
		}
		if corruptView != nil {
			if dec == corruptView {
				t.Error("corrupted receiver was handed the shared view")
			}
			cleanAfter++
		}
	}})
	m.SetSNR(0, 1, 6) // node 1 hears a damaged copy; node 2 is clean
	const tries = 40
	for i := 0; i < tries; i++ {
		s.After(sim.Time(i)*time.Second, "tx", func() { m.TransmitAggregate(0, agg) })
	}
	s.Run()
	if corrupted == 0 || damagedChecked == 0 || cleanAfter == 0 {
		t.Fatalf("corrupted=%d damaged subframes checked=%d clean after corrupt=%d; want all > 0",
			corrupted, damagedChecked, cleanAfter)
	}
}
