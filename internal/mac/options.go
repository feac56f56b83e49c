package mac

import (
	"fmt"
	"strings"
	"time"

	"aggmac/internal/phy"
)

// Scheme selects which of the paper's aggregation techniques are active.
type Scheme struct {
	// AggregateUnicast enables unicast aggregation (§3.1): several frames
	// for one receiver share a PHY frame and one link-level ACK.
	AggregateUnicast bool
	// AggregateBroadcast enables broadcast aggregation (§3.2): broadcast
	// subframes are prepended to the unicast portion.
	AggregateBroadcast bool
	// ClassifyTCPAcks treats pure TCP ACKs as broadcast frames (§3.3).
	// The classifier itself lives in the network layer; this flag tells it
	// whether to route ACKs to the broadcast queue.
	ClassifyTCPAcks bool
	// DelayMinFrames, when >1, holds the floor request until that many
	// frames are queued (§6.4.3, delayed BA). Applied per node; the
	// experiment runner sets it on relays only.
	DelayMinFrames int
	// DisableForwardAggregation limits both portions to one subframe each,
	// isolating backward (data+ACK) aggregation (§6.4.4).
	DisableForwardAggregation bool
}

// The paper's four configurations.
var (
	// NA: no aggregation.
	NA = Scheme{}
	// UA: unicast aggregation only.
	UA = Scheme{AggregateUnicast: true}
	// BA: unicast + broadcast aggregation with TCP ACKs as broadcasts.
	BA = Scheme{AggregateUnicast: true, AggregateBroadcast: true, ClassifyTCPAcks: true}
	// DBA: BA plus a 3-frame minimum at relays.
	DBA = Scheme{AggregateUnicast: true, AggregateBroadcast: true, ClassifyTCPAcks: true, DelayMinFrames: 3}
)

// SchemeByName resolves the paper's abbreviation (case-insensitive) to its
// scheme — the single resolver the CLIs share. The scenario schema
// validates names against traffic.SchemeNames, which must list exactly
// the names accepted here (enforced by a test in internal/core).
func SchemeByName(name string) (Scheme, error) {
	switch strings.ToLower(name) {
	case "na":
		return NA, nil
	case "ua":
		return UA, nil
	case "ba":
		return BA, nil
	case "dba":
		return DBA, nil
	}
	return Scheme{}, fmt.Errorf("unknown scheme %q (na|ua|ba|dba)", name)
}

// Name returns the paper's abbreviation for the scheme.
func (s Scheme) Name() string {
	switch {
	case s.DelayMinFrames > 1:
		return "DBA"
	case s.AggregateBroadcast:
		return "BA"
	case s.AggregateUnicast:
		return "UA"
	default:
		return "NA"
	}
}

// Options configure one node's MAC.
type Options struct {
	Scheme Scheme

	// UnicastRate is the PHY rate for the unicast portion (and for NA/UA
	// transmissions of every kind). It is fixed, as in the paper's
	// experiments (§5).
	UnicastRate phy.Rate
	// BroadcastRate is the rate for the broadcast portion. The paper
	// evaluates both a fixed broadcast rate (Fig. 10) and
	// broadcast-at-unicast-rate (Fig. 11 onward).
	BroadcastRate phy.Rate

	// MaxAggBytes caps the summed wire size of all subframes in one
	// aggregate. The paper settles on 5 KB (§6.1).
	MaxAggBytes int
	// AutoAggSize, when set, additionally caps the aggregate so its
	// airtime fits the channel-coherence budget at the current rate
	// (the paper's §7 rate-adaptive aggregation extension).
	AutoAggSize bool

	// UseRTSCTS gates the RTS/CTS exchange for transmissions with a
	// unicast portion (the Hydra MAC always uses it).
	UseRTSCTS bool
	// BlockAck enables the §7 block-ACK extension: per-subframe bitmap
	// acknowledgements with selective retransmission.
	BlockAck bool
	// HeadOnlyGather restricts unicast assembly to a consecutive run at
	// the queue head instead of scanning past frames for other
	// destinations (ablation of the §4.2.3 "gathers" behaviour).
	HeadOnlyGather bool
	// BroadcastLast appends broadcast subframes after the unicast portion
	// instead of prepending them, exposing them to channel-estimate aging
	// (ablation of the paper's placement rationale, §4.2.3).
	BroadcastLast bool
	// DedupWindow, when > 0, suppresses duplicate deliveries of
	// retransmitted subframes by remembering the last N delivered frames.
	// Hydra's subframe header (Fig. 4) has no sequence-control field, so
	// the prototype could not dedup; this extension closes that gap using
	// a (transmitter, payload-CRC) cache consulted only for frames with
	// the Retry flag set.
	DedupWindow int

	// RetryLimit is the number of retransmission attempts for the unicast
	// portion before it is dropped.
	RetryLimit int
	// CWmin and CWmax bound the contention window (slots).
	CWmin, CWmax int
	// QueueLimit bounds each of the two transmit queues (frames).
	QueueLimit int

	// FlushTimeout bounds how long DelayMinFrames may hold traffic. The
	// paper does not describe its tail behaviour; without a flush the last
	// frames of a transfer would deadlock.
	FlushTimeout time.Duration

	// Timing parameters.
	Slot, SIFS, DIFS time.Duration
	// CTSTimeout and AckTimeout extra slack beyond the expected response
	// airtime.
	TimeoutSlack time.Duration
}

// DefaultOptions returns the calibrated Hydra-like MAC configuration at the
// given rate, with broadcasts sent at the unicast rate.
func DefaultOptions(s Scheme, rate phy.Rate) Options {
	return Options{
		Scheme:        s,
		UnicastRate:   rate,
		BroadcastRate: rate,
		MaxAggBytes:   5120,
		UseRTSCTS:     true,
		RetryLimit:    7,
		CWmin:         31,
		CWmax:         1023,
		QueueLimit:    50,
		FlushTimeout:  5 * time.Millisecond,
		Slot:          20 * time.Microsecond,
		SIFS:          10 * time.Microsecond,
		DIFS:          50 * time.Microsecond,
		TimeoutSlack:  60 * time.Microsecond,
	}
}
