// Package core is the public experiment API of the reproduction: it wires
// topology, MAC scheme, PHY rates and traffic into runnable experiments and
// returns the metrics the paper reports — end-to-end throughput plus the
// per-node frame-size / transmission-count / overhead detail of its
// Tables 3–8.
package core

import (
	"cmp"
	"io"
	"time"

	"aggmac/internal/flood"
	"aggmac/internal/mac"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
	"aggmac/internal/tcp"
	"aggmac/internal/telemetry"
	"aggmac/internal/topology"
	"aggmac/internal/udp"
)

// PaperFileBytes is the paper's transfer size (§5: a 0.2 Mbyte file).
const PaperFileBytes = 200_000

// NodeReport captures one node's counters after a run.
type NodeReport struct {
	ID   int
	Role string
	MAC  mac.Counters
	Net  network.Stats
	// PreambleBytes is the preamble byte-equivalent used by the Table 3
	// size-overhead metric at this node's rate.
	PreambleBytes float64
}

// TCPConfig describes a TCP experiment.
type TCPConfig struct {
	Scheme mac.Scheme
	Rate   phy.Rate
	// FixedBroadcastRate pins the broadcast-portion rate (Figure 10);
	// nil means broadcast at the unicast rate (Figure 11 onward).
	FixedBroadcastRate *phy.Rate
	// Hops selects an N-hop linear chain; ignored when Star is set.
	Hops int
	// Star runs the two-session star topology instead.
	Star bool
	// FileBytes per session; defaults to PaperFileBytes.
	FileBytes int
	// MaxAggBytes caps aggregation; defaults to 5120 (§6.1).
	MaxAggBytes int
	// BlockAck / AutoAggSize enable the §7 extensions.
	BlockAck    bool
	AutoAggSize bool
	// Tweak, when set, adjusts every node's final MAC options — the hook
	// the ablation benches use (RTS off, head-only gather, ...).
	Tweak func(*mac.Options)
	// TraceTo, when set, streams the channel timeline (every control
	// frame, aggregate, collision) to the writer; TraceNodes restricts it
	// to events touching the listed nodes; TraceFormat selects TraceText
	// (default) or TraceJSONL.
	TraceTo     io.Writer
	TraceNodes  []int
	TraceFormat string
	// Metrics, when set, samples the telemetry catalog on simulated-time
	// ticks (see internal/telemetry). nil — the default — schedules
	// nothing, so the event sequence and golden hashes are untouched.
	Metrics *telemetry.Recorder
	// TCP overrides the transport config; zero value means defaults.
	TCP tcp.Config
	// Phy overrides the channel constants; nil means calibrated defaults.
	Phy *phy.Params
	// Seed makes runs reproducible; rows of a sweep should vary it.
	Seed int64
	// Deadline bounds simulated time (default 1200 s).
	Deadline time.Duration
}

// SessionReport describes one TCP session's outcome.
type SessionReport struct {
	Server, Client network.NodeID
	Mbps           float64
	Done           bool
	Finish         time.Duration
	Sender         tcp.Stats
	Receiver       tcp.Stats
}

// TCPResult is what a TCP experiment measures.
type TCPResult struct {
	// ThroughputMbps is end-to-end goodput; for the star it is the
	// worst-case session, matching §6.4.2.
	ThroughputMbps float64
	// SessionMbps lists each session's goodput.
	SessionMbps []float64
	// Sessions holds per-session detail including TCP counters.
	Sessions []SessionReport
	// Completed reports whether every session finished within Deadline.
	Completed bool
	// Elapsed is the slowest session's completion time.
	Elapsed time.Duration
	// EventsRun is the number of discrete events the scheduler executed;
	// the golden determinism tests pin it to catch any event-core change
	// that alters the run, not just ones that alter the metrics.
	EventsRun uint64
	// Nodes holds per-node counters (relay rows feed Tables 3–8).
	Nodes []NodeReport
}

func (c *TCPConfig) fill() {
	if c.FileBytes == 0 {
		c.FileBytes = PaperFileBytes
	}
	if c.MaxAggBytes == 0 {
		c.MaxAggBytes = 5120
	}
	if c.Deadline == 0 {
		c.Deadline = 1200 * time.Second
	}
	if c.Hops == 0 && !c.Star {
		c.Hops = 2
	}
}

// phyParams resolves a config's Phy override: nil means the calibrated
// defaults.
func phyParams(p *phy.Params) phy.Params {
	if p != nil {
		return *p
	}
	return phy.DefaultParams()
}

// macOptsFor builds per-node MAC options. DBA delays transmission at relay
// nodes only, as §6.4.3 describes.
func (c *TCPConfig) macOptsFor(relay func(i, n int) bool) func(i, n int) mac.Options {
	return func(i, n int) mac.Options {
		scheme := c.Scheme
		if scheme.DelayMinFrames > 1 && !relay(i, n) {
			scheme.DelayMinFrames = 0
		}
		opts := mac.DefaultOptions(scheme, c.Rate)
		opts.MaxAggBytes = c.MaxAggBytes
		opts.BlockAck = c.BlockAck
		opts.AutoAggSize = c.AutoAggSize
		if c.FixedBroadcastRate != nil {
			opts.BroadcastRate = *c.FixedBroadcastRate
		}
		if c.Tweak != nil {
			c.Tweak(&opts)
		}
		return opts
	}
}

// RunTCP executes the experiment: one file transfer down the chain, or the
// star's two concurrent transfers, wired and measured by the same flow code
// as the mesh runs. It panics with the Validate error on an invalid config.
func RunTCP(cfg TCPConfig) TCPResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.fill()

	var net *topology.Network
	var flows []*flow
	var role func(i, n int) string
	if cfg.Star {
		relay := func(i, n int) bool { return i == topology.StarCenter }
		net = topology.NewStar(topology.Config{Seed: cfg.Seed, Phy: phyParams(cfg.Phy), OptsFor: cfg.macOptsFor(relay)})
		for _, srv := range topology.StarServers() {
			flows = append(flows, &flow{server: srv, client: topology.StarClient, port: uint16(8000 + len(flows))})
		}
		role = func(i, n int) string { return topology.StarRole(i) }
	} else {
		net = topology.NewLinear(cfg.Hops, topology.Config{Seed: cfg.Seed, Phy: phyParams(cfg.Phy), OptsFor: cfg.macOptsFor(topology.IsRelay)})
		flows = []*flow{{server: 0, client: network.NodeID(cfg.Hops), port: 8000}}
		role = topology.LinearRole
	}

	attachTrace(net, cfg.TraceTo, cfg.TraceNodes, cfg.TraceFormat)
	stacks := newStacks(net, cfg.TCP)
	wireFlows(cfg.FileBytes, flows, stacks,
		func(network.NodeID) *sim.Scheduler { return net.Sched }, net.Sched.Halt)
	startMetrics(cfg.Metrics, 0, net, stacks, cfg.MaxAggBytes, cfg.Deadline, func(reg *telemetry.Registry) {
		registerSessionMetrics(reg, flows)
	})

	net.Sched.RunUntil(cfg.Deadline)

	mr := assembleMeshResult(flows, net.Nodes, role, Dynamics{}, net.Sched.EventsRun(), net.Sched.Now())
	res := TCPResult{ThroughputMbps: mr.MinMbps, Completed: mr.Completed, Elapsed: mr.Elapsed,
		EventsRun: mr.EventsRun, Nodes: mr.Nodes}
	for i, fr := range mr.Flows {
		f := flows[i]
		rep := SessionReport{Server: fr.Server, Client: fr.Client, Mbps: fr.Mbps, Done: fr.Done, Finish: fr.Finish}
		if f.snd != nil {
			rep.Sender = f.snd.Stats()
		}
		if f.rcv != nil {
			rep.Receiver = f.rcv.Stats()
		}
		res.SessionMbps = append(res.SessionMbps, fr.Mbps)
		res.Sessions = append(res.Sessions, rep)
	}
	return res
}

// UDPConfig describes a UDP experiment (with optional flooding).
type UDPConfig struct {
	Scheme mac.Scheme
	Rate   phy.Rate
	Hops   int
	// MaxAggBytes caps aggregation (the Figure 7 x-axis); default 5120.
	MaxAggBytes int
	// Burst and Interval select paced generation (Burst packets every
	// Interval); Burst==0 saturates the sender queue.
	Burst    int
	Interval time.Duration
	// FloodInterval, when >0, runs a flooding generator on every node
	// (Figure 9's x-axis).
	FloodInterval time.Duration
	// Duration and Warmup bound the measurement.
	Duration time.Duration
	Warmup   time.Duration
	Phy      *phy.Params
	Seed     int64
	// TraceTo streams the channel timeline to the writer; TraceNodes
	// restricts it to events touching the listed nodes; TraceFormat
	// selects TraceText (default) or TraceJSONL.
	TraceTo     io.Writer
	TraceNodes  []int
	TraceFormat string
	// Metrics samples the telemetry catalog on simulated-time ticks;
	// nil schedules nothing.
	Metrics *telemetry.Recorder
}

// UDPResult is what a UDP experiment measures.
type UDPResult struct {
	ThroughputMbps float64
	SinkPackets    int
	// Delay summarises one-way datagram latency over the measurement
	// window (a metric the paper leaves unreported; DBA trades it for
	// aggregation).
	Delay      udp.DelayStats
	FloodsSent int
	FloodsRcvd int
	// EventsRun is the number of discrete events the scheduler executed.
	EventsRun uint64
	Nodes     []NodeReport
}

// window returns the measurement's Duration and Warmup after defaults:
// 60 s and 2 s.
func (c *UDPConfig) window() (duration, warmup time.Duration) {
	return cmp.Or(c.Duration, 60*time.Second), cmp.Or(c.Warmup, 2*time.Second)
}

// RunUDP executes the experiment on a linear chain, node 0 → node Hops.
// It panics with the Validate error on an invalid config.
func RunUDP(cfg UDPConfig) UDPResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Hops == 0 {
		cfg.Hops = 2
	}
	if cfg.MaxAggBytes == 0 {
		cfg.MaxAggBytes = 5120
	}
	cfg.Duration, cfg.Warmup = cfg.window()
	optsFor := func(i, n int) mac.Options {
		opts := mac.DefaultOptions(cfg.Scheme, cfg.Rate)
		opts.MaxAggBytes = cfg.MaxAggBytes
		return opts
	}
	net := topology.NewLinear(cfg.Hops, topology.Config{Seed: cfg.Seed, Phy: phyParams(cfg.Phy), OptsFor: optsFor})
	attachTrace(net, cfg.TraceTo, cfg.TraceNodes, cfg.TraceFormat)

	eps := make([]*udp.Endpoint, len(net.Nodes))
	for i, node := range net.Nodes {
		eps[i] = udp.NewEndpoint(net.Sched, node)
	}
	sink := udp.NewSink(eps[cfg.Hops], 9000)
	sink.MeasureFrom(cfg.Warmup)
	sender := &udp.Sender{
		Endpoint: eps[0], Dst: network.NodeID(cfg.Hops),
		SrcPort: 9001, DstPort: 9000,
		Interval: cfg.Interval, Burst: cfg.Burst,
		Timestamp: true,
	}

	var gens []*flood.Generator
	var counters []*flood.Counter
	if cfg.FloodInterval > 0 {
		for _, node := range net.Nodes {
			gens = append(gens, flood.NewGenerator(net.Sched, node, cfg.FloodInterval))
			counters = append(counters, flood.NewCounter(node))
		}
	}

	net.Sched.After(0, "core:start", func() {
		sender.Start()
		for _, g := range gens {
			g.Start()
		}
	})
	startMetrics(cfg.Metrics, 0, net, nil, cfg.MaxAggBytes, cfg.Duration, nil)
	net.Sched.RunUntil(cfg.Duration)
	sender.Stop()
	for _, g := range gens {
		g.Stop()
	}

	res := UDPResult{
		ThroughputMbps: sink.ThroughputMbps(),
		SinkPackets:    sink.Packets,
		Delay:          sink.Delays(),
		EventsRun:      net.Sched.EventsRun(),
	}
	for _, g := range gens {
		res.FloodsSent += g.Sent
	}
	for _, c := range counters {
		res.FloodsRcvd += c.Received
	}
	res.Nodes = nodeReports(net.Nodes, topology.LinearRole)
	return res
}

// Relay returns the report of the first relay node (the paper's detail
// tables are measured at relays).
func Relay(nodes []NodeReport) NodeReport {
	for _, n := range nodes {
		if n.Role == "relay" || n.Role == "center" {
			return n
		}
	}
	return NodeReport{}
}
