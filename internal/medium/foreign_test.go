package medium

import (
	"testing"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// splitSetup builds two media over one shared link table, as the sharded
// engine does: nodes 0..1 attach to medium A, nodes 2..3 to medium B, with
// every pair connected. Each medium runs on its own scheduler.
func splitSetup(t *testing.T) (sa, sb *sim.Scheduler, ma, mb *Medium, radios []*fakeRadio) {
	t.Helper()
	params := phy.DefaultParams()
	tbl := NewLinkTable(params, 4)
	sa, sb = sim.NewScheduler(1), sim.NewScheduler(2)
	ma, mb = NewOnTable(sa, params, tbl), NewOnTable(sb, params, tbl)
	for a := NodeID(0); a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			ma.SetConnected(a, b, true)
		}
	}
	radios = make([]*fakeRadio, 4)
	for i := range radios {
		radios[i] = &fakeRadio{}
	}
	ma.Attach(0, radios[0])
	ma.Attach(1, radios[1])
	mb.Attach(2, radios[2])
	mb.Attach(3, radios[3])
	return
}

// TestForeignControlDelivery: a control frame launched on medium A and
// replayed into medium B is delivered to B's attached radios at exactly the
// frame's end time, and the boundary hook sees the launch.
func TestForeignControlDelivery(t *testing.T) {
	sa, sb, ma, mb, radios := splitSetup(t)
	look := 200 * time.Microsecond

	var hooked []ForeignFrame
	ma.SetBoundary(func(ff ForeignFrame) {
		ff.Body = append([]byte(nil), ff.Body...)
		ff.Spans = append([]frame.Span(nil), ff.Spans...)
		hooked = append(hooked, ff)
	})
	c := frame.Control{Type: frame.TypeRTS, Duration: time.Millisecond, RA: frame.NodeAddr(2), TA: frame.NodeAddr(0)}
	sa.After(0, "tx", func() { ma.TransmitControl(0, c) })
	sa.Run()

	if len(hooked) != 1 {
		t.Fatalf("boundary hook saw %d frames, want 1", len(hooked))
	}
	ff := hooked[0]
	if ff.Src != 0 || !ff.IsControl || ff.Start != 0 || ff.End != ma.ControlAirtime(&c) {
		t.Fatalf("boundary frame = %+v", ff)
	}

	// Replay into B at Start+lookahead, as the engine would.
	sb.At(ff.Start+look, "inject", func() { mb.InjectForeign(ff) })
	sb.Run()
	if sb.Now() != ff.End {
		t.Fatalf("B clock %v after drain, want frame end %v", sb.Now(), ff.End)
	}
	for i := 2; i <= 3; i++ {
		r := radios[i]
		if len(r.ctrls) != 1 || r.ctrls[0].Type != frame.TypeRTS || r.ctrlSrcs[0] != 0 {
			t.Fatalf("radio %d controls = %+v from %v", i, r.ctrls, r.ctrlSrcs)
		}
		if r.busyEdges != 1 || r.idleEdges != 1 {
			t.Fatalf("radio %d busy/idle edges = %d/%d, want 1/1", i, r.busyEdges, r.idleEdges)
		}
	}
	// A's own radios saw it locally; the foreign stat landed on B.
	if ma.Stats().ForeignTx != 0 || mb.Stats().ForeignTx != 1 {
		t.Fatalf("ForeignTx A=%d B=%d", ma.Stats().ForeignTx, mb.Stats().ForeignTx)
	}
	if mb.Stats().ControlTx != 0 {
		t.Fatalf("replay must not count as a local control tx")
	}
}

// TestForeignAggregateDelivery: aggregates replay with the hook's copy of
// their marshaled body and decode cleanly on the far side.
func TestForeignAggregateDelivery(t *testing.T) {
	sa, sb, ma, mb, radios := splitSetup(t)
	agg := dataAgg(3, 200, frame.NodeAddr(2))
	var hooked *ForeignFrame
	ma.SetBoundary(func(ff ForeignFrame) {
		ff.Body = append([]byte(nil), ff.Body...)
		ff.Spans = append([]frame.Span(nil), ff.Spans...)
		hooked = &ff
	})
	sa.After(0, "tx", func() { ma.TransmitAggregate(0, agg) })
	sa.Run()
	if hooked == nil {
		t.Fatal("boundary hook not called for aggregate")
	}
	sb.At(hooked.Start+100*time.Microsecond, "inject", func() { mb.InjectForeign(*hooked) })
	sb.Run()
	if got := len(radios[2].aggs); got != 1 {
		t.Fatalf("radio 2 decoded %d aggregates, want 1", got)
	}
	if got := len(radios[2].aggs[0].Unicast); got != 3 {
		t.Fatalf("decoded %d subframes, want 3", got)
	}
}

// TestForeignCollision: a foreign frame overlapping a local transmission
// destroys the local frame at shared receivers (and vice versa), exactly as
// a same-medium overlap would.
func TestForeignCollision(t *testing.T) {
	_, sb, ma, mb, radios := splitSetup(t)
	c := frame.Control{Type: frame.TypeCTS, Duration: time.Millisecond, RA: frame.NodeAddr(0), TA: frame.NodeAddr(2)}
	air := ma.ControlAirtime(&c)
	ff := ForeignFrame{Src: 0, Start: 0, End: air, IsControl: true, Control: c}

	// Local tx from node 2 starts first; the foreign frame from node 0 is
	// injected mid-flight. Node 3 hears both: both copies must die there.
	sb.At(0, "local-tx", func() { mb.TransmitControl(2, c) })
	sb.At(air/2, "inject", func() { mb.InjectForeign(ff) })
	sb.Run()
	if got := len(radios[3].ctrls); got != 0 {
		t.Fatalf("radio 3 decoded %d controls through a collision", got)
	}
	if mb.Stats().Collisions != 2 {
		t.Fatalf("collisions = %d, want 2 (both frames at node 3)", mb.Stats().Collisions)
	}
	// Carrier refcounts must balance after both frames end.
	for i := 2; i <= 3; i++ {
		if mb.CarrierBusy(NodeID(i)) {
			t.Fatalf("node %d still senses carrier after drain", i)
		}
	}
}

// TestForeignInjectWindow: injection outside [Start, End] is an engine bug
// and panics.
func TestForeignInjectWindow(t *testing.T) {
	_, sb, _, mb, _ := splitSetup(t)
	ff := ForeignFrame{Src: 0, Start: 0, End: 100 * time.Microsecond, IsControl: true,
		Control: frame.Control{Type: frame.TypeCTS}}
	sb.At(200*time.Microsecond, "late", func() {
		defer func() {
			if recover() == nil {
				t.Error("late InjectForeign did not panic")
			}
		}()
		mb.InjectForeign(ff)
	})
	sb.Run()
}
