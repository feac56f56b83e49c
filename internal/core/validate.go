// Config validation: every rule on which options a run accepts, and which
// of them combine, lives here. The Run entry points panic with these
// errors; callers that want the error instead call Validate first.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"aggmac/internal/phy"
	"aggmac/internal/traffic"
)

// Validate reports the first problem with the config: a negative file
// size, hop count or MaxAggBytes, a PHY rate the radio does not offer, or
// an unknown trace format. It never changes the config.
func (c *TCPConfig) Validate() error {
	return cmp.Or(nonNegative("FileBytes", c.FileBytes), checkChain(c.Hops, c.MaxAggBytes, c.Rate, c.TraceFormat))
}

// Validate reports the first problem with the config: a negative hop
// count, MaxAggBytes, Burst, Interval, FloodInterval, Duration or Warmup;
// a PHY rate the radio does not offer; an unknown trace format; or a
// Duration, after defaults, not longer than its Warmup, which would
// measure nothing. It never changes the config.
func (c *UDPConfig) Validate() error {
	if err := cmp.Or(
		checkChain(c.Hops, c.MaxAggBytes, c.Rate, c.TraceFormat),
		nonNegative("Burst", c.Burst),
		nonNegative("Interval", c.Interval),
		nonNegative("FloodInterval", c.FloodInterval),
		nonNegative("Duration", c.Duration),
		nonNegative("Warmup", c.Warmup),
	); err != nil {
		return err
	}
	if d, w := c.window(); d <= w {
		return fmt.Errorf("core: Duration %v must be longer than Warmup %v", d, w)
	}
	return nil
}

// checkChain holds the rules TCPConfig and UDPConfig share. Like every
// cmp.Or list of checks here, it reports the first error in list order.
func checkChain(hops, maxAggBytes int, rate phy.Rate, traceFormat string) error {
	return cmp.Or(nonNegative("Hops", hops), nonNegative("MaxAggBytes", maxAggBytes),
		checkRate(rate), checkTraceFormat(traceFormat))
}

// checkRate rejects a PHY rate outside the radio's rate table.
func checkRate(r phy.Rate) error {
	if !r.Valid() {
		return fmt.Errorf("core: unknown PHY rate %v", r)
	}
	return nil
}

// nonNegative rejects a negative count, quantity or duration.
func nonNegative[T int | float64 | time.Duration](name string, v T) error {
	if v < 0 {
		return fmt.Errorf("core: %s must be >= 0, got %v", name, v)
	}
	return nil
}

// Validate reports the first problem with the config: a negative Nodes,
// Flows, MinHops, FileBytes, MaxAggBytes or Speed; a PHY rate the radio
// does not offer; an unknown topology, mobility model or trace format; a
// grid or disk MinHops no route on its nodes can reach; an invalid fault
// config; Shards outside 0..MaxShards, or combined with mobility, faults
// or TraceTo. It never changes the config: results-store ids hash
// configs, and pool workers share them.
func (c *MeshTCPConfig) Validate() error {
	if err := cmp.Or(
		nonNegative("Nodes", c.Nodes),
		nonNegative("Flows", c.Flows),
		nonNegative("MinHops", c.MinHops),
		nonNegative("FileBytes", c.FileBytes),
		nonNegative("MaxAggBytes", c.MaxAggBytes),
		nonNegative("Speed", c.Speed),
		checkRate(c.Rate),
	); err != nil {
		return err
	}
	switch c.Topology {
	case "", MeshGrid, MeshDisk, MeshChains:
	default:
		return fmt.Errorf("core: unknown mesh topology %q (%s|%s|%s)", c.Topology, MeshGrid, MeshDisk, MeshChains)
	}
	// Grid and disk flows are sampled among pairs at least MinHops apart,
	// and no route on n nodes is longer than n-1 hops.
	if f := *c; f.Topology != MeshChains {
		f.fill()
		if n := f.meshNodes(); f.MinHops >= n {
			return fmt.Errorf("core: MinHops must be < the %d nodes of the %s, got %d", n, f.Topology, f.MinHops)
		}
	}
	switch c.Mobility {
	case "", MobilityWaypoint, MobilityDrift:
	default:
		return fmt.Errorf("core: unknown mobility model %q (%s|%s)", c.Mobility, MobilityWaypoint, MobilityDrift)
	}
	if err := checkTraceFormat(c.TraceFormat); err != nil {
		return err
	}
	// faults.Config.Validate normalizes in place: check a copy.
	if c.Faults != nil {
		if err := c.Faults.Clone().Validate(); err != nil {
			return err
		}
	}
	if c.Shards < 0 || c.Shards > MaxShards {
		return fmt.Errorf("core: Shards must be in 0..%d, got %d", MaxShards, c.Shards)
	}
	switch {
	case c.Shards == 0:
		return nil
	case c.Mobility != "":
		return errors.New("core: Shards supports static topologies only (unset Mobility)")
	case c.Faults.Enabled():
		return errors.New("core: fault injection needs the sequential engine (unset Faults or Shards)")
	case c.TraceTo != nil:
		return errors.New("core: channel tracing is unsupported with Shards (unset TraceTo)")
	}
	return nil
}

// Validate reports the first problem with the config: an invalid scenario
// (see traffic.Scenario.Validate), a PHY rate the radio does not offer, an
// invalid traffic mix or an unknown trace format. It checks a normalized
// copy of the scenario and never changes the config.
func (c *ScenarioConfig) Validate() error {
	_, _, _, err := c.resolve()
	return err
}

// resolve validates the config and returns what a run needs of its
// scenario: a normalized copy, the PHY rate and the traffic mix. The copy
// matters: one Scenario value is routinely fanned across pool workers (one
// run per scheme), so its shared Mix array and Mobility pointer must never
// be written here.
func (c *ScenarioConfig) resolve() (traffic.Scenario, phy.Rate, traffic.Mix, error) {
	sc := c.Scenario.Clone()
	if err := sc.Validate(); err != nil {
		return sc, 0, traffic.Mix{}, err
	}
	rate, err := phy.RateFromMbps(sc.RateMbps)
	if err != nil {
		return sc, 0, traffic.Mix{}, fmt.Errorf("core: scenario %q: %w", sc.Name, err)
	}
	mix, err := traffic.NewMix(sc.Traffic.Mix)
	if err != nil {
		return sc, 0, traffic.Mix{}, err
	}
	return sc, rate, mix, checkTraceFormat(c.TraceFormat)
}
