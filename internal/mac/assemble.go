package mac

import "aggmac/internal/frame"

// assemble builds the next aggregate from the two queues, implementing the
// §4.2.3 transmit process: broadcast subframes first, then unicast frames
// bound for the destination at the head of the unicast queue, up to the
// maximum aggregation size. Later unicast frames for the same destination
// aggregate past interleaved frames for other destinations (skip-over
// scan). It returns nil when nothing is queued.
func (m *MAC) assemble() *frame.Aggregate {
	s := m.opts.Scheme
	unicastRate := m.opts.UnicastRate
	maxBytes := m.opts.MaxAggBytes
	if m.opts.AutoAggSize {
		if b := m.med.Params().MaxBytesWithinCoherence(unicastRate); b < maxBytes {
			maxBytes = b
		}
	}
	// Recycle the scratch aggregate: the previous bundle is fully dead by
	// the time assemble runs again (the medium copied its bytes on
	// transmit, and m.current was cleared by ack/drop). Reserve the
	// subframe slab up front — appends must not reallocate mid-assembly or
	// the *Subframe pointers already stored in the portions would go stale.
	agg := &m.aggScratch
	agg.BroadcastRate = m.opts.BroadcastRate
	agg.UnicastRate = unicastRate
	agg.BroadcastTrailing = m.opts.BroadcastLast
	agg.Broadcast = agg.Broadcast[:0]
	agg.Unicast = agg.Unicast[:0]
	if need := len(m.bq) + len(m.uq); cap(m.sfScratch) < need {
		m.sfScratch = make([]frame.Subframe, 0, need)
	} else {
		m.sfScratch = m.sfScratch[:0]
	}
	size := 0

	mkSub := func(out *Outgoing) *frame.Subframe {
		m.sfScratch = append(m.sfScratch, frame.Subframe{Addr1: out.Dst, Addr2: m.addr, Addr3: out.Src, Payload: out.Payload})
		return &m.sfScratch[len(m.sfScratch)-1]
	}

	takeBroadcast := func(limit int) {
		n := 0
		for n < len(m.bq) && (limit <= 0 || len(agg.Broadcast) < limit) {
			sf := mkSub(&m.bq[n])
			w := sf.WireSize()
			if size > 0 && size+w > maxBytes {
				break
			}
			n++
			agg.Broadcast = append(agg.Broadcast, sf)
			size += w
		}
		// Shift the rest down instead of reslicing past the taken head,
		// so the queue keeps its capacity and Enqueue need not regrow it.
		m.bq = m.bq[:copy(m.bq, m.bq[n:])]
	}

	if !s.AggregateBroadcast {
		// Without broadcast aggregation, frames leave one at a time in
		// arrival order across the two queues.
		if len(m.bq) > 0 && (len(m.uq) == 0 || m.bq[0].seq < m.uq[0].seq) {
			takeBroadcast(1)
			m.currentUni = 0
			return agg
		}
	} else {
		limit := 0
		if s.DisableForwardAggregation {
			limit = 1
		}
		takeBroadcast(limit)
	}

	if len(m.uq) > 0 {
		limit := 1
		if s.AggregateUnicast && !s.DisableForwardAggregation {
			limit = int(^uint(0) >> 1)
		}
		dst := m.uq[0].Dst
		for i := 0; i < len(m.uq) && len(agg.Unicast) < limit; {
			out := &m.uq[i]
			if out.Dst != dst {
				if m.opts.HeadOnlyGather {
					break
				}
				i++
				continue
			}
			sf := mkSub(out)
			w := sf.WireSize()
			if size > 0 && size+w > maxBytes {
				break
			}
			m.uq = append(m.uq[:i], m.uq[i+1:]...)
			agg.Unicast = append(agg.Unicast, sf)
			size += w
		}
	}
	if agg.Subframes() == 0 {
		return nil
	}
	m.currentUni = len(agg.Unicast)
	return agg
}
