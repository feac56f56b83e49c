// Package medium models the shared wireless channel: propagation of control
// frames and aggregates to every node in range, carrier-sense (energy
// detect) signaling, half-duplex constraints, collision destruction, and
// per-subframe corruption driven by the PHY error model.
//
// The paper's testbed places all nodes within radio range of each other
// (multi-hop topologies are forced by static routing), so the default
// connectivity is a single collision domain; links can be cut or given
// per-link SNR for extension experiments.
//
// # Complexity model
//
// Per-transmission cost is proportional to the transmitter's neighborhood
// degree, not the network size; launch and finish each have one path, the
// neighbor-indexed one. The medium maintains incrementally sorted out- and
// in-neighbor lists per node (updated by SetConnected / SetConnectedDirected
// in O(deg) each); every transmission captures its audience — the attached
// radios in range — exactly once at launch, and carrier sensing, delivery
// and carrier release all iterate that audience. Collision marking is local:
// two frames can only meet at a node that hears both senders, so the new
// frame walks, for each node in its audience, that node's in-neighbors and
// the frames each of them has on the air — Σ in-degree over the audience —
// plus one flag write per frame on the air anywhere (the new transmitter
// deafening itself to receptions in progress). Collision bookkeeping resets
// through a dirty-mark list, so recycling a transmission is O(marked), not
// O(N).
//
// Link state itself is sparse: the neighbor lists are the only store, each
// link's SNR kept beside its entry, so a directed lookup (connectivity or
// SNR) is a binary search of the sender's list, O(log deg), and total
// memory is O(N·degree). A cut link keeps nothing. A frame whose receiver's
// link is cut while it is on the air is still delivered, at the SNR the link
// had when it was cut: the cut records that SNR on the sender's frames on
// the air.
//
// # Shared frame work
//
// Work that every receiver of a frame would repeat is done once per
// transmission. An aggregate is marshaled once, into the pooled
// transmission's own buffer, and decoded at most once: the first receiver
// that hears it cleanly delineates the body into a view kept in the
// transmission, and every clean receiver borrows the same bytes and the
// same view. That decode recomputes no FCS, because the body is exactly
// what the sender marshaled. A receiver whose copy of the air was damaged
// gets the medium's scratch copy of the body, corrupted there, and a
// scratch view decoded from it with every FCS checked, so the CRC decides
// what a damaged copy delivers.
package medium

import (
	"fmt"
	"slices"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// NodeID identifies an attached radio. IDs must be small non-negative
// integers (they index internal tables).
type NodeID int

// Radio is the interface the MAC exposes to the channel.
type Radio interface {
	// CarrierBusy and CarrierIdle report energy-detect transitions. They
	// are never called for the node's own transmissions.
	CarrierBusy()
	CarrierIdle()
	// RxControl delivers a control frame that survived the channel, with
	// the received SNR as Hydra's PHY reports it. The MAC ignores the SNR;
	// the medium's equivalence tests record it.
	RxControl(src NodeID, c frame.Control, snrdB float64)
	// RxAggregate delivers an aggregate at the end of its airtime: its PHY
	// header, its (possibly corrupted) body bytes, and dec, those bytes
	// with every subframe delineated and its CRCOK set. A corrupted copy
	// is decoded with frame.DecodeAggregateInto, which checks every FCS.
	// The clean body is decoded with frame.DecodeMarshaledInto, which
	// gives the same view without recomputing FCSs that match by
	// construction. dec is nil when the body does not match the header's
	// portion lengths.
	//
	// Body and dec are borrowed: they are valid only until RxAggregate
	// returns, after which the medium reuses them for later frames, so a
	// receiver copies anything it keeps (dec's payloads alias body). Every
	// receiver that heard the frame cleanly gets the same bytes and the
	// same dec, decoded once per transmission, and a receiver MUST NOT
	// write into either; doing so would corrupt the frame for the receivers
	// after it.
	RxAggregate(src NodeID, hdr frame.PHYHeader, body []byte, dec *frame.DecodedAggregate)
}

// LinkTable is the connectivity state of a network, stored sparsely in the
// neighbor lists themselves: nbrs[src] holds, in ascending id, every node
// that can hear src, snrs[src] the SNR of each of those links, and in is
// the transpose of nbrs. A directed lookup (connectivity or SNR) is a
// binary search of the sender's list, and a cut link keeps no state, so
// memory is O(N·degree). A table is normally owned by a single Medium, but
// the sharded engine shares one read-only table, all three lists included,
// across every shard's medium. Sharing contract: connectivity and SNR must
// not change while more than one medium is attached (the parallel mesh path
// is static-topology only and enforces this).
type LinkTable struct {
	n int
	// defSNR is the SNR a link gets when it is connected (params.SNRdB).
	defSNR float64
	// nbrs[src] lists, in ascending node id, every dst that can hear src,
	// and snrs[src][i] is the SNR of the src→nbrs[src][i] link. in[dst]
	// lists every src that dst can hear: in is the exact transpose of nbrs.
	// All three are maintained incrementally by the connectivity setters
	// and are what the hot paths read.
	nbrs, in [][]NodeID
	snrs     [][]float64
}

// NewLinkTable builds a table for n nodes with every link cut; a link gets
// params.SNRdB once connected. Construction is O(N).
func NewLinkTable(params phy.Params, n int) *LinkTable {
	return &LinkTable{
		n:      n,
		defSNR: params.SNRdB,
		nbrs:   make([][]NodeID, n),
		in:     make([][]NodeID, n),
		snrs:   make([][]float64, n),
	}
}

// N returns the number of nodes the table covers.
func (t *LinkTable) N() int { return t.n }

// find reports where to sits, or would sit, in from's neighbor list, and
// whether it is there: whether to can hear from.
func (t *LinkTable) find(from, to NodeID) (int, bool) {
	return slices.BinarySearch(t.nbrs[from], to)
}

// snr returns the from→to SNR and whether the link is connected; a cut
// link reports 0.
func (t *LinkTable) snr(from, to NodeID) (float64, bool) {
	if i, ok := t.find(from, to); ok {
		return t.snrs[from][i], true
	}
	return 0, false
}

// setConnectedDirected cuts or restores the from→to direction, keeping the
// neighbor, SNR and in-neighbor lists in step. A restored link starts at the
// default SNR.
func (t *LinkTable) setConnectedDirected(from, to NodeID, connected bool) {
	if from == to {
		return // self-links are meaningless (Connected is always false)
	}
	i, cur := t.find(from, to)
	if cur == connected {
		return
	}
	j, _ := slices.BinarySearch(t.in[to], from)
	if connected {
		t.nbrs[from] = slices.Insert(t.nbrs[from], i, to)
		t.snrs[from] = slices.Insert(t.snrs[from], i, t.defSNR)
		t.in[to] = slices.Insert(t.in[to], j, from)
	} else {
		t.nbrs[from] = slices.Delete(t.nbrs[from], i, i+1)
		t.snrs[from] = slices.Delete(t.snrs[from], i, i+1)
		t.in[to] = slices.Delete(t.in[to], j, j+1)
	}
}

// setSNRDirected sets the from→to SNR; a cut pair is left alone.
func (t *LinkTable) setSNRDirected(from, to NodeID, snrdB float64) {
	if i, ok := t.find(from, to); ok {
		t.snrs[from][i] = snrdB
	}
}

// connectFull wires every ordered pair at the default SNR — the paper's
// single-collision-domain testbed. O(N²) by definition of the topology; the
// generators for sparse meshes start from NewUnconnected instead.
func (t *LinkTable) connectFull() {
	for i := 0; i < t.n; i++ {
		nb := make([]NodeID, 0, t.n-1)
		snrs := make([]float64, 0, t.n-1)
		for j := 0; j < t.n; j++ {
			if i != j {
				nb = append(nb, NodeID(j))
				snrs = append(snrs, t.defSNR)
			}
		}
		t.nbrs[i], t.snrs[i] = nb, snrs
		// Every node hears every other: the in-list has the same members,
		// in its own array so later edits to one leave the other alone.
		t.in[i] = slices.Clone(nb)
	}
}

// transmission is pooled: Medium recycles finished transmissions (and their
// body/audience/collided/spans/dec backing arrays) through a free
// list, so putting a frame on the air allocates nothing in steady state.
type transmission struct {
	src        NodeID
	start, end sim.Time
	isControl  bool
	control    frame.Control
	hdr        frame.PHYHeader
	// body is what receivers get: buf for a local launch, the boundary
	// hook's copy for a foreign one. buf is this transmission's own marshal
	// buffer, kept across recycling; a foreign body is never adopted as buf.
	body, buf []byte
	spans     []frame.Span
	// dec is body decoded, filled at the first clean receiver and shared
	// read-only by every clean receiver after it; decoded says whether it
	// has been filled for this transmission, decOK whether the decode
	// succeeded.
	dec            frame.DecodedAggregate
	decoded, decOK bool
	// audience is the set of attached in-range radios, captured once at
	// launch (ascending node id); energy detect, collision marking,
	// delivery and carrier release all iterate it.
	audience []NodeID
	collided []bool // per node id, set when overlap observed
	// marked lists the node ids whose collided entries were set, so
	// recycling resets O(marked) entries instead of O(N).
	marked []NodeID
	// cuts records, oldest first, each link from src cut while this frame
	// was on the air and the SNR it had then; delivery to a receiver whose
	// link is gone reads it.
	cuts      []cutLink
	activeIdx int           // position in Medium.active, for O(1) removal
	nextOnAir *transmission // next frame on Medium.onAir[src]'s chain
	finishFn  func()        // pooled txEnd callback: m.finish(this)
}

// cutLink is a link to dst cut under a frame in flight, and its SNR then.
type cutLink struct {
	dst   NodeID
	snrdB float64
}

// rxSNR is the SNR dst hears t at: its link's as it stands, or, for a link
// cut under t, the SNR recorded at the latest cut.
func (t *transmission) rxSNR(tbl *LinkTable, dst NodeID) float64 {
	if snr, ok := tbl.snr(t.src, dst); ok {
		return snr
	}
	for i := len(t.cuts) - 1; i >= 0; i-- {
		if t.cuts[i].dst == dst {
			return t.cuts[i].snrdB
		}
	}
	panic(fmt.Sprintf("medium: frame from %d delivered to %d over a link cut with no record", t.src, dst))
}

// addInterf marks dst's copy of this transmission as overlapped by an
// interferer: any overlap destroys the frame there.
func (t *transmission) addInterf(dst NodeID) {
	if !t.collided[dst] {
		t.collided[dst] = true
		t.marked = append(t.marked, dst)
	}
}

// Event is one observable channel event, for tracing.
type Event struct {
	At   time.Duration
	Kind string // "tx-ctrl", "tx-agg", "rx-ctrl", "rx-agg", "collision", "ctrl-noise", "half-duplex"
	Src  NodeID
	Dst  NodeID // -1 for transmissions (broadcast medium)
	Dur  time.Duration
	Info string
}

// Observer receives channel events as they happen.
type Observer func(Event)

// Stats counts channel-level events.
type Stats struct {
	ControlTx    int
	AggregateTx  int
	ForeignTx    int // transmissions replayed from another shard's medium
	Collisions   int // receptions destroyed by overlap
	HalfDuplex   int // receptions missed because the receiver was transmitting
	CorruptCtrl  int // control frames destroyed by noise
	AirtimeTotal time.Duration
}

// Add accumulates o's counters into s; the parallel mesh path sums its
// shard media into one channel-wide view.
func (s *Stats) Add(o Stats) {
	s.ControlTx += o.ControlTx
	s.AggregateTx += o.AggregateTx
	s.ForeignTx += o.ForeignTx
	s.Collisions += o.Collisions
	s.HalfDuplex += o.HalfDuplex
	s.CorruptCtrl += o.CorruptCtrl
	s.AirtimeTotal += o.AirtimeTotal
}

// ForeignFrame describes a locally-launched transmission in the form the
// sharded engine replays into neighboring shards' media. Body (the marshaled
// aggregate, nil for control frames) and Spans both alias the live
// transmission's pooled buffers, which the medium reuses once the frame
// ends, so a boundary hook that keeps the frame past its own return MUST
// copy both. InjectForeign delivers the hook's copy of Body read-only and
// never writes into it or reuses it; it trusts that copy's FCSs as it
// trusts its own clean bodies, so the copy must be byte-exact.
type ForeignFrame struct {
	Src        NodeID
	Start, End sim.Time
	IsControl  bool
	Control    frame.Control
	Hdr        frame.PHYHeader
	Body       []byte
	Spans      []frame.Span
}

// Medium is the shared channel.
type Medium struct {
	sched  *sim.Scheduler
	params phy.Params
	errs   *phy.ErrorCache

	radios []Radio
	busy   []int // energy-detect refcount per node
	// onAir[src] heads the chain, linked through nextOnAir, of src's own
	// frames on the air (nil when src is silent: half duplex reads it), so
	// collision marking reaches an in-neighbor's frames directly.
	onAir []*transmission
	// tbl holds the neighbor lists and their SNRs. Normally private to this
	// medium; shard media share one read-only table (see LinkTable).
	tbl *LinkTable
	// boundary, when set, observes every locally-originated transmission at
	// launch so the sharded engine can replay it into neighboring shards.
	boundary func(ForeignFrame)

	active []*transmission
	txFree []*transmission // recycled transmissions (pooled arrays)
	// corrupt is the scratch copy a corrupted receiver is handed, and
	// corruptDec its decoded view; delivery is synchronous and one receiver
	// at a time, so one pair per medium suffices.
	corrupt    []byte
	corruptDec frame.DecodedAggregate
	stats      Stats
	observer   Observer
}

// New creates a medium for up to n nodes, fully connected at params.SNRdB.
func New(sched *sim.Scheduler, params phy.Params, n int) *Medium {
	m := newMedium(sched, params, n)
	m.tbl.connectFull()
	return m
}

// NewUnconnected creates a medium for up to n nodes with every link cut
// (SNR defaults to params.SNRdB once connected). Topology generators wire
// sparse meshes onto it with SetConnected/SetSNR; starting empty keeps
// construction O(E) instead of tearing down O(N²) default links.
func NewUnconnected(sched *sim.Scheduler, params phy.Params, n int) *Medium {
	return newMedium(sched, params, n)
}

// NewOnTable creates a medium that shares an existing link table instead of
// owning one. The sharded engine gives every shard's medium the same table,
// so one set of neighbor lists serves the whole run; see LinkTable for the
// sharing contract.
func NewOnTable(sched *sim.Scheduler, params phy.Params, tbl *LinkTable) *Medium {
	n := tbl.N()
	return &Medium{
		sched:  sched,
		params: params,
		errs:   phy.NewErrorCache(params),
		radios: make([]Radio, n),
		busy:   make([]int, n),
		onAir:  make([]*transmission, n),
		tbl:    tbl,
	}
}

func newMedium(sched *sim.Scheduler, params phy.Params, n int) *Medium {
	return &Medium{
		sched:  sched,
		params: params,
		errs:   phy.NewErrorCache(params),
		radios: make([]Radio, n),
		busy:   make([]int, n),
		onAir:  make([]*transmission, n),
		tbl:    NewLinkTable(params, n),
	}
}

// getTx pops a pooled transmission (or makes the pool's next one). The
// collided entries were already reset by putTx via the dirty-mark
// list, so acquisition is O(1) regardless of network size.
func (m *Medium) getTx() *transmission {
	var t *transmission
	if n := len(m.txFree); n > 0 {
		t = m.txFree[n-1]
		m.txFree = m.txFree[:n-1]
	} else {
		t = &transmission{collided: make([]bool, len(m.radios))}
		t.finishFn = func() { m.finish(t) }
	}
	return t
}

// putTx recycles a finished transmission, clearing only the collision
// entries the run actually marked. Its buf goes back with it for the next
// launch to marshal into: receivers only borrowed the body for the length
// of their RxAggregate call, and the boundary hook copied it.
func (m *Medium) putTx(t *transmission) {
	t.body = nil
	t.decoded = false
	t.spans = t.spans[:0]
	t.audience = t.audience[:0]
	for _, id := range t.marked {
		t.collided[id] = false
	}
	t.marked = t.marked[:0]
	t.cuts = t.cuts[:0]
	t.control = frame.Control{}
	t.hdr = frame.PHYHeader{}
	m.txFree = append(m.txFree, t)
}

// Params returns the PHY constants the medium applies.
func (m *Medium) Params() phy.Params { return m.params }

// Stats returns a snapshot of channel counters.
func (m *Medium) Stats() Stats { return m.stats }

// SetObserver installs a channel-event observer (nil disables tracing).
func (m *Medium) SetObserver(o Observer) { m.observer = o }

func (m *Medium) emit(ev Event) {
	if m.observer != nil {
		ev.At = time.Duration(m.sched.Now())
		m.observer(ev)
	}
}

// Attach registers the radio for id. It panics on reuse: double-attachment
// is a wiring bug.
func (m *Medium) Attach(id NodeID, r Radio) {
	if m.radios[id] != nil {
		panic(fmt.Sprintf("medium: node %d attached twice", id))
	}
	m.radios[id] = r
}

// SetConnected cuts or restores the bidirectional link between a and b.
func (m *Medium) SetConnected(a, b NodeID, connected bool) {
	m.SetConnectedDirected(a, b, connected)
	m.SetConnectedDirected(b, a, connected)
}

// SetConnectedDirected cuts or restores only the from→to direction
// (asymmetric links; useful for failure injection). The from-node's
// out-neighbor list and the to-node's in-neighbor list are updated in
// place, O(deg); a restored link starts at the default SNR. A cut records
// the link's SNR on each of from's frames on the air, which are delivered
// at it.
func (m *Medium) SetConnectedDirected(from, to NodeID, connected bool) {
	if !connected && m.onAir[from] != nil {
		if snr, ok := m.tbl.snr(from, to); ok {
			for t := m.onAir[from]; t != nil; t = t.nextOnAir {
				t.cuts = append(t.cuts, cutLink{to, snr})
			}
		}
	}
	m.tbl.setConnectedDirected(from, to, connected)
}

// SetSNR sets the SNR of the bidirectional link between a and b. A cut
// direction keeps no SNR, so the write skips it: raise a link first, then
// set its SNR.
func (m *Medium) SetSNR(a, b NodeID, snrdB float64) {
	m.tbl.setSNRDirected(a, b, snrdB)
	m.tbl.setSNRDirected(b, a, snrdB)
}

// Table returns the medium's link table, for sharing with NewOnTable.
func (m *Medium) Table() *LinkTable { return m.tbl }

// Connected reports whether b can hear a.
func (m *Medium) Connected(a, b NodeID) bool {
	_, ok := m.tbl.find(a, b)
	return ok
}

// SNR returns the configured SNR of the a→b link in dB, or 0 when the link
// is cut (mobility tests use it to audit refreshes).
func (m *Medium) SNR(a, b NodeID) float64 {
	snr, _ := m.tbl.snr(a, b)
	return snr
}

// Neighbors returns the nodes that can hear src, in ascending id order.
// The slice is the medium's live index: callers must not modify it and must
// not retain it across connectivity changes.
func (m *Medium) Neighbors(src NodeID) []NodeID { return m.tbl.nbrs[src] }

// Degree returns how many nodes can hear src.
func (m *Medium) Degree(src NodeID) int { return len(m.tbl.nbrs[src]) }

// SetBoundary installs the sharded engine's hook: it observes every
// locally-originated transmission at launch (after local collision marking
// and energy detect) so the engine can replay it into neighboring shards.
// See ForeignFrame for the aliasing rules. nil disables.
func (m *Medium) SetBoundary(post func(ForeignFrame)) {
	m.boundary = post
}

// InjectForeign replays a transmission that originated in another shard's
// medium over the same LinkTable. The local clock must be within
// [ff.Start, ff.End]: carrier-busy and collision marking take effect from
// now (the engine injects at Start + lookahead, so at most the first
// lookahead window of overlap is missed locally — the source shard marks
// its own receivers exactly), while delivery to in-range attached radios
// happens at exactly ff.End, byte-identical to a local reception.
func (m *Medium) InjectForeign(ff ForeignFrame) {
	now := m.sched.Now()
	if now < ff.Start || now > ff.End {
		panic(fmt.Sprintf("medium: InjectForeign at %v outside frame window [%v, %v]", now, ff.Start, ff.End))
	}
	t := m.getTx()
	t.src, t.start, t.end = ff.Src, ff.Start, ff.End
	t.isControl, t.control, t.hdr = ff.IsControl, ff.Control, ff.Hdr
	t.body = ff.Body
	t.spans = append(t.spans[:0], ff.Spans...)
	m.stats.ForeignTx++
	m.enter(t)
}

// CarrierBusy reports whether node id currently senses energy from others.
func (m *Medium) CarrierBusy(id NodeID) bool { return m.busy[id] > 0 }

// Transmitting reports whether node id is itself on the air.
func (m *Medium) Transmitting(id NodeID) bool { return m.onAir[id] != nil }

// ControlAirtime is the on-air time of a control frame: preamble plus its
// bytes at the control rate.
func (m *Medium) ControlAirtime(c *frame.Control) time.Duration {
	return m.params.PreamblePLCP + phy.Airtime(c.WireSize(), m.params.ControlRate)
}

// AggregateAirtime is the on-air time of an aggregate: preamble, the extra
// broadcast descriptor when present, then each portion at its own rate.
func (m *Medium) AggregateAirtime(agg *frame.Aggregate) time.Duration {
	d := m.params.PreamblePLCP + m.params.BroadcastDescDuration(agg.HasBroadcast())
	if n := agg.BroadcastBytes(); n > 0 {
		d += phy.Airtime(n, agg.BroadcastRate)
	}
	if n := agg.UnicastBytes(); n > 0 {
		d += phy.Airtime(n, agg.UnicastRate)
	}
	return d
}

// TransmitControl puts a control frame on the air and returns its airtime.
func (m *Medium) TransmitControl(src NodeID, c frame.Control) time.Duration {
	d := m.ControlAirtime(&c)
	t := m.getTx()
	t.src, t.start, t.end = src, m.sched.Now(), m.sched.Now()+d
	t.isControl, t.control = true, c
	m.stats.ControlTx++
	if m.observer != nil {
		m.emit(Event{Kind: "tx-ctrl", Src: src, Dst: -1, Dur: d, Info: c.Type.String()})
	}
	m.launch(t)
	return d
}

// TransmitAggregate marshals and puts an aggregate on the air, returning
// its airtime. The body is marshaled exactly once, into the pooled
// transmission's own buffer, and decoded at most once; clean receivers all
// borrow both (see Radio.RxAggregate).
func (m *Medium) TransmitAggregate(src NodeID, agg *frame.Aggregate) time.Duration {
	d := m.AggregateAirtime(agg)
	t := m.getTx()
	t.src, t.start, t.end = src, m.sched.Now(), m.sched.Now()+d
	t.isControl = false
	t.hdr = agg.Header()
	t.buf, t.spans = agg.AppendMarshal(t.buf[:0], t.spans[:0])
	t.body = t.buf
	m.stats.AggregateTx++
	if m.observer != nil {
		m.emit(Event{Kind: "tx-agg", Src: src, Dst: -1, Dur: d,
			Info: fmt.Sprintf("%db+%du %dB @%v", len(agg.Broadcast), len(agg.Unicast), agg.Bytes(), agg.UnicastRate)})
	}
	m.launch(t)
	return d
}

// captureAudience fills t.audience with every attached radio in range of
// t.src, ascending by node id, by walking the neighbor list: O(deg).
func (m *Medium) captureAudience(t *transmission) {
	t.audience = t.audience[:0]
	for _, nid := range m.tbl.nbrs[t.src] {
		if m.radios[nid] != nil {
			t.audience = append(t.audience, nid)
		}
	}
}

func (m *Medium) launch(t *transmission) {
	m.stats.AirtimeTotal += t.end - t.start
	m.enter(t)
	if m.boundary != nil {
		m.boundary(ForeignFrame{
			Src: t.src, Start: t.start, End: t.end,
			IsControl: t.isControl, Control: t.control,
			Hdr: t.hdr, Body: t.body, Spans: t.spans,
		})
	}
}

// enter puts t on the air: audience capture, mutual collision marking
// (through the in-neighbor lists and the per-sender on-air chains), energy
// detect, and the scheduled finish. Shared by local launches (where
// t.start == now) and foreign injections (where t.start is up to the engine
// lookahead in the past).
func (m *Medium) enter(t *transmission) {
	m.captureAudience(t)

	// Mark collisions both ways against transmissions already on the air.
	// A frame whose end is not after t's start (its finish event has not
	// run yet) does not overlap t. Nothing needs doing on an empty channel.
	if len(m.active) > 0 {
		// Half duplex: the new transmitter deafens itself to every reception
		// in progress there, wherever its sender is — one flag write per
		// frame on the air.
		for _, other := range m.active {
			if other.end > t.start {
				other.addInterf(t.src)
			}
		}
		// Shared receivers: only a node in t's audience can hear t, so each
		// such node walks the senders it hears (its in-list) and their frames
		// on the air: Σ in-degree over the audience. Nodes with no radio
		// attached are not in the audience, so they are skipped outright.
		// The in-lists are the table as it stands now, not another frame's
		// launch-time audience, so links cut or raised under a frame in
		// flight count as they stand.
		in := m.tbl.in
		for _, nid := range t.audience {
			for _, s := range in[nid] {
				for other := m.onAir[s]; other != nil; other = other.nextOnAir {
					if other.end > t.start {
						// nid hears both transmitters: both frames are
						// damaged there.
						t.addInterf(nid)
						other.addInterf(nid)
					}
				}
			}
		}
	}
	t.activeIdx = len(m.active)
	m.active = append(m.active, t)
	t.nextOnAir = m.onAir[t.src]
	m.onAir[t.src] = t

	// Energy detect at every node in range.
	for _, nid := range t.audience {
		m.busy[nid]++
		if m.busy[nid] == 1 {
			m.radios[nid].CarrierBusy()
		}
	}

	m.sched.After(t.end-m.sched.Now(), "medium:txEnd", t.finishFn)
}

func (m *Medium) finish(t *transmission) {
	// Unlink from the sender's on-air chain (rarely longer than one).
	p := &m.onAir[t.src]
	for *p != t {
		p = &(*p).nextOnAir
	}
	*p = t.nextOnAir
	t.nextOnAir = nil
	// O(1) removal from the active list: swap the tail into our slot.
	last := len(m.active) - 1
	if i := t.activeIdx; i != last {
		m.active[i] = m.active[last]
		m.active[i].activeIdx = i
	}
	m.active[last] = nil
	m.active = m.active[:last]

	// Deliver to the audience captured at launch, then release carrier.
	// Delivery happens before idle notifications so MACs see the frame
	// before they resume backoff. Using the launch-time audience keeps the
	// busy refcount balanced even if connectivity changed mid-flight (the
	// seed re-evaluated the matrix here and could leak a refcount).
	for _, nid := range t.audience {
		m.deliver(t, nid)
	}
	for _, nid := range t.audience {
		m.busy[nid]--
		if m.busy[nid] == 0 {
			m.radios[nid].CarrierIdle()
		}
	}
	m.putTx(t)
}

func (m *Medium) deliver(t *transmission, dst NodeID) {
	if m.onAir[dst] != nil {
		// Half duplex: a node on the air cannot decode. (Sufficient
		// because every transmission that overlapped ours in any way is
		// still counted busy at our end time only if it is still active;
		// any earlier overlap marked us collided at shared receivers, and
		// our own TX overlapping the tail of this reception is exactly
		// this case.)
		m.stats.HalfDuplex++
		m.emit(Event{Kind: "half-duplex", Src: t.src, Dst: dst})
		return
	}
	if t.collided[dst] {
		m.stats.Collisions++
		m.emit(Event{Kind: "collision", Src: t.src, Dst: dst})
		return
	}
	snr := t.rxSNR(m.tbl, dst)
	shift := snr - m.params.SNRdB // per-link adjustment

	if t.isControl {
		// Control frames end within the coherence budget; apply the flat
		// error probability for their size.
		end := m.params.Samples(m.params.PreamblePLCP + phy.Airtime(t.control.WireSize(), m.params.ControlRate))
		p := m.shiftedChunkErr(t.control.WireSize(), m.params.ControlRate, end, shift)
		if m.sched.Rand().Float64() < p {
			m.stats.CorruptCtrl++
			m.emit(Event{Kind: "ctrl-noise", Src: t.src, Dst: dst})
			return
		}
		m.emit(Event{Kind: "rx-ctrl", Src: t.src, Dst: dst, Info: t.control.Type.String()})
		m.radios[dst].RxControl(t.src, t.control, snr)
		return
	}

	// Preamble/PLCP failure loses the whole frame.
	preEnd := m.params.Samples(m.params.PreamblePLCP)
	if p := m.shiftedChunkErr(frame.PHYHeaderLen, m.params.ControlRate, preEnd, shift); m.sched.Rand().Float64() < p {
		return
	}

	// Corrupt individual subframes according to their airtime offsets.
	// The leading portion's airtime offsets the trailing portion's clock;
	// which portion leads depends on the header's Trailing flag.
	body := t.body
	copied := false
	prefix := m.params.PreamblePLCP + m.params.BroadcastDescDuration(t.hdr.BroadcastLen > 0)
	leadLen, leadRate := t.hdr.BroadcastLen, t.hdr.BroadcastRate
	if t.hdr.Trailing {
		leadLen, leadRate = t.hdr.UnicastLen, t.hdr.UnicastRate
	}
	leadEnd := prefix + phy.Airtime(leadLen, leadRate)
	for _, sp := range t.spans {
		rate := t.hdr.UnicastRate
		if sp.Broadcast {
			rate = t.hdr.BroadcastRate
		}
		var endT time.Duration
		if sp.Off < leadLen {
			endT = prefix + phy.Airtime(sp.Off+sp.Size, rate)
		} else {
			endT = leadEnd + phy.Airtime(sp.Off+sp.Size-leadLen, rate)
		}
		p := m.shiftedChunkErr(sp.Size, rate, m.params.Samples(endT), shift)
		if m.sched.Rand().Float64() >= p {
			continue
		}
		// Copy-on-corrupt: the shared clean body stays immutable; a
		// receiver whose copy of the air was damaged gets the medium's
		// scratch copy, which the next corrupted delivery overwrites.
		if !copied {
			m.corrupt = append(m.corrupt[:0], t.body...)
			body = m.corrupt
			copied = true
		}
		corruptSpan(body[sp.Off:sp.Off+sp.Size], m.sched)
	}
	if m.observer != nil {
		info := "clean"
		if copied {
			info = "corrupted"
		}
		m.emit(Event{Kind: "rx-agg", Src: t.src, Dst: dst, Info: info})
	}
	var dec *frame.DecodedAggregate
	if copied {
		if frame.DecodeAggregateInto(&m.corruptDec, t.hdr, body) == nil {
			dec = &m.corruptDec
		}
	} else {
		if !t.decoded {
			// The clean body is what TransmitAggregate marshaled, so
			// its FCSs match by construction; a corrupted copy above
			// keeps the full check, because flips can cancel and a
			// flipped length field misaligns the walk.
			t.decOK = frame.DecodeMarshaledInto(&t.dec, t.hdr, body) == nil
			t.decoded = true
		}
		if t.decOK {
			dec = &t.dec
		}
	}
	m.radios[dst].RxAggregate(t.src, t.hdr, body, dec)
}

// shiftedChunkErr applies a per-link SNR shift on top of the global params,
// memoized through the medium's phy.ErrorCache (experiments hit a tiny set
// of {size, rate, offset, shift} keys).
func (m *Medium) shiftedChunkErr(nBytes int, r phy.Rate, endSample int64, snrShift float64) float64 {
	return m.errs.ChunkErrorProb(nBytes, r, endSample, snrShift)
}

// corruptSpan flips a few bits inside the span so the subframe's FCS (or
// its delineation) fails at decode time, exactly as on real hardware.
func corruptSpan(b []byte, sched *sim.Scheduler) {
	rng := sched.Rand()
	flips := 1 + rng.Intn(3)
	for i := 0; i < flips; i++ {
		bit := rng.Intn(len(b) * 8)
		b[bit/8] ^= 1 << (bit % 8)
	}
}
