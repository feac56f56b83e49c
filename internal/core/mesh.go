// Mesh experiments: many concurrent TCP flows over generated
// multi-collision-domain topologies (grid, random disk graph, parallel
// chains with cross traffic). This is the scenario family the paper's
// 9-node testbed could not reach and the neighbor-indexed medium exists
// for: per-transmission cost tracks node degree, so networks of hundreds
// of nodes simulate at the same per-event speed as the paper's chains.
//
// With Mobility set the topology itself becomes a function of time: a
// seeded motion model moves the nodes, links come and go with distance
// through the medium's incremental connectivity paths, and shortest-path
// routes are recomputed periodically with route-flap accounting — the
// regime where hidden-terminal and aggregate-length effects change
// character (Sharon's aggregation-scheduling work over rapidly varying
// channels, and TCP-over-mesh fragility generally).
package core

import (
	"io"
	"math"
	"math/rand"
	"time"

	"aggmac/internal/faults"
	"aggmac/internal/mac"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/routing"
	"aggmac/internal/sim"
	"aggmac/internal/tcp"
	"aggmac/internal/telemetry"
	"aggmac/internal/topology"
	"aggmac/internal/traffic"
)

// Mesh topology kinds.
const (
	MeshGrid   = "grid"   // k×k grid, unit spacing
	MeshDisk   = "disk"   // seeded uniform placement, disk connectivity
	MeshChains = "chains" // parallel linear chains, optional cross traffic
)

// Mobility model names, re-exported from internal/topology.
const (
	MobilityWaypoint = topology.MobilityWaypoint
	MobilityDrift    = topology.MobilityDrift
)

// MeshTCPConfig describes a many-flow TCP experiment on a generated mesh.
type MeshTCPConfig struct {
	Scheme mac.Scheme
	Rate   phy.Rate
	// Topology is MeshGrid (default), MeshDisk, or MeshChains.
	Topology string
	// Nodes is the node budget for grid/disk layouts (default 25). Grids
	// round down to the largest k×k that fits.
	Nodes int
	// Chains/ChainHops shape the MeshChains layout (defaults 4 chains of
	// 4 hops); Nodes is ignored there.
	Chains    int
	ChainHops int
	// RowSpacing separates the chains (0 = 1.0: adjacent chains share
	// spectrum and cross-chain links exist).
	RowSpacing float64
	// Flows is the number of concurrent TCP sessions (default max(2,
	// nodes/10)). Grid/disk flows are sampled seed-deterministically among
	// pairs at least MinHops apart; chains run one flow down each chain
	// (plus CrossFlows column flows).
	Flows int
	// CrossFlows adds vertical cross-traffic sessions on MeshChains.
	CrossFlows int
	// MinHops is the minimum route length for sampled flows (default 2).
	MinHops int
	// Radio overrides the distance-derived connectivity model.
	Radio topology.RadioModel
	// FileBytes per flow; defaults to PaperFileBytes.
	FileBytes int
	// MaxAggBytes caps aggregation; defaults to 5120.
	MaxAggBytes int
	// Shards selects the sharded parallel engine: the mesh is partitioned
	// into Shards contiguous spatial domains, each running its own event
	// loop, synchronized conservatively with lookahead ShardLookahead (see
	// mesh_parallel.go). 0 (default) runs the sequential engine. Shards: 1
	// is byte-identical to sequential; Shards > 1 is statistically
	// equivalent (cross-shard carrier sense inside the first lookahead
	// window of a frame is approximated) and deterministic for a given
	// shard count. At most MaxShards. Static topologies only: Validate
	// rejects Mobility, Faults and TraceTo.
	Shards int
	// Mobility selects a node-motion model: "" (static, the default),
	// MobilityWaypoint or MobilityDrift. Moving nodes change link
	// existence and SNR with distance; every MoveInterval the positions
	// advance, link state is reconciled through the medium's incremental
	// paths, and shortest-path routes are recomputed.
	Mobility string
	// Speed is node speed in spacing units per simulated second
	// (default 1).
	Speed float64
	// Pause is the waypoint model's dwell time at each target.
	Pause time.Duration
	// MoveInterval is the mobility tick interval (default 1 s). Faults
	// share it: one dynamics tick steps motion and failures together.
	MoveInterval time.Duration
	// Faults injects seeded failures (node crashes, link flaps, scheduled
	// partitions, SNR bursts; see internal/faults). nil injects nothing. A
	// crashed node's MAC is detached and reset, its TCP connections are
	// aborted in place, and flows terminating at it are marked killed;
	// links cut by faults reconcile through the same incremental paths
	// mobility uses. Sequential engine only: Validate rejects it with
	// Shards > 0.
	Faults *faults.Config
	// Tweak adjusts every node's final MAC options.
	Tweak func(*mac.Options)
	// TraceTo streams the channel timeline to the writer; TraceNodes
	// restricts it to events touching the listed nodes; TraceFormat
	// selects TraceText (default) or TraceJSONL.
	TraceTo     io.Writer
	TraceNodes  []int
	TraceFormat string
	// Metrics samples the telemetry catalog on simulated-time ticks —
	// per shard on parallel runs. nil schedules nothing, so the event
	// sequence and golden hashes are untouched.
	Metrics *telemetry.Recorder
	// TCP overrides the transport config; zero value means defaults.
	TCP tcp.Config
	// Phy overrides the channel constants; nil means calibrated defaults.
	Phy  *phy.Params
	Seed int64
	// Deadline bounds simulated time (default 1200 s).
	Deadline time.Duration
}

// MeshFlowReport is one flow's outcome.
type MeshFlowReport struct {
	Server, Client network.NodeID
	// Hops is the route length at setup time.
	Hops int
	Mbps float64
	Done bool
	// Finish is when the last payload byte arrived.
	Finish time.Duration
	// Killed marks a flow terminated by a fault at one of its endpoints.
	Killed bool
	// Stall is the flow's longest gap between payload progress events
	// (unfinished flows include the tail gap to the end of the run).
	Stall time.Duration
}

// MeshResult is what a mesh experiment measures.
type MeshResult struct {
	// AggregateMbps sums every flow's goodput (incomplete flows count 0).
	AggregateMbps float64
	// MinMbps/MeanMbps summarize per-flow goodput.
	MinMbps, MeanMbps float64
	// Flows holds per-flow detail.
	Flows []MeshFlowReport
	// FlowsDone counts sessions that finished within the deadline.
	FlowsDone int
	Completed bool
	// Elapsed is the slowest completed flow's finish time.
	Elapsed time.Duration
	// EventsRun pins the executed-event count for determinism tests (the
	// sum over shards on parallel runs).
	EventsRun uint64
	// Shards records the engine that produced the run: 0 for the
	// sequential scheduler, otherwise the parallel shard count.
	Shards int
	// Dynamics holds the topology shape, mobility churn and fault
	// counters.
	Dynamics
	// MaxFlowStall/MeanFlowStall summarize per-flow Stall values — how
	// long traffic froze while routes repaired around failures.
	MaxFlowStall, MeanFlowStall time.Duration
	// Nodes holds per-node counters (role is "server"/"client"/"relay" by
	// the node's part in the traffic, else "idle").
	Nodes []NodeReport
}

// Dynamics is the topology-dynamics outcome MeshResult and ScenarioResult
// both embed. Its fields encode inline: the JSON field names and their
// order are those the two results have always had.
type Dynamics struct {
	// Topology shape: NodeCount is fixed; LinkCount and AvgDegree are
	// measured at the end of the run (mobility churns them).
	NodeCount, LinkCount int
	AvgDegree            float64
	// Mobility churn (all zero on static runs): LinkUps/LinkDowns count
	// links that came into/fell out of radio range, RouteFlaps counts
	// route-table entries changed by the periodic recomputation, and
	// RouteRecomputes counts the recompute rounds that ran — ticks whose
	// link set did not change skip the BFS pass entirely.
	LinkUps, LinkDowns int
	RouteFlaps         int
	RouteRecomputes    int
	// Fault-injection outcome (all zero, with Availability 1, when no
	// faults are configured). NodeCrashes/NodeRecoveries count observed
	// node state changes; FaultLinkDowns/FaultLinkUps count link-flap
	// edges; PartitionsStarted/PartitionsHealed count partition windows
	// opening and closing; SNRBursts counts degradation bursts that began.
	NodeCrashes, NodeRecoveries         int
	FaultLinkDowns, FaultLinkUps        int
	PartitionsStarted, PartitionsHealed int
	SNRBursts                           int
	// FlowsKilledByFault counts flows whose endpoint crashed mid-transfer.
	FlowsKilledByFault int
	// Availability is the time-averaged fraction of nodes that were up.
	Availability float64
	// MeanHealLatency averages, over healed partitions, the delay between
	// the scheduled window end and the dynamics tick that restored links —
	// the reconnection latency the periodic reconcile imposes.
	MeanHealLatency time.Duration
}

func (c *MeshTCPConfig) fill() {
	if c.Topology == "" {
		c.Topology = MeshGrid
	}
	if c.Nodes == 0 {
		c.Nodes = 25
	}
	if c.Chains == 0 {
		c.Chains = 4
	}
	if c.ChainHops == 0 {
		c.ChainHops = 4
	}
	if c.MinHops == 0 {
		c.MinHops = 2
	}
	if c.FileBytes == 0 {
		c.FileBytes = PaperFileBytes
	}
	if c.MaxAggBytes == 0 {
		c.MaxAggBytes = 5120
	}
	if c.Deadline == 0 {
		c.Deadline = 1200 * time.Second
	}
}

// optsFor returns node i's MAC options (shared by the sequential build and
// the sharded rebuild, which must configure identical MACs).
func (c *MeshTCPConfig) optsFor(i, n int) mac.Options {
	opts := mac.DefaultOptions(c.Scheme, c.Rate)
	opts.MaxAggBytes = c.MaxAggBytes
	if c.Tweak != nil {
		c.Tweak(&opts)
	}
	return opts
}

// buildMesh constructs the configured topology.
func (c *MeshTCPConfig) buildMesh() *topology.Mesh {
	mcfg := topology.MeshConfig{
		Config: topology.Config{
			Seed:    c.Seed,
			Phy:     phyParams(c.Phy),
			OptsFor: c.optsFor,
		},
		Radio: c.Radio,
	}
	switch c.Topology {
	case MeshDisk:
		return topology.NewRandomDisk(c.Nodes, mcfg)
	case MeshChains:
		return topology.NewParallelChains(c.Chains, c.ChainHops, c.RowSpacing, mcfg)
	default: // MeshGrid; Validate rejects every other kind
		return topology.NewGrid(gridSide(c.Nodes), mcfg)
	}
}

// gridSide is the side of the grid a node budget builds: the largest k×k
// that fits, at least 2×2.
func gridSide(nodes int) int { return max(2, int(math.Sqrt(float64(nodes)))) }

// meshNodes is the node count a filled grid or disk config builds.
func (c *MeshTCPConfig) meshNodes() int {
	if c.Topology == MeshDisk {
		return c.Nodes
	}
	k := gridSide(c.Nodes)
	return k * k
}

// planFlows picks the experiment's sessions deterministically from the
// seed: chains get one flow along each chain plus CrossFlows column flows;
// grid/disk sample distinct multi-hop pairs from a placement-independent
// stream.
func (c *MeshTCPConfig) planFlows(m *topology.Mesh) []*flow {
	dist := m.HopDistance
	var flows []*flow
	addFlow := func(srv, cli int) {
		flows = append(flows, &flow{
			server: network.NodeID(srv),
			client: network.NodeID(cli),
			hops:   dist(srv, cli),
			port:   uint16(8000 + len(flows)),
		})
	}
	if c.Topology == MeshChains {
		n := c.Flows
		if n <= 0 || n > c.Chains {
			n = c.Chains
		}
		for i := 0; i < n; i++ {
			addFlow(topology.ChainNode(i, 0, c.ChainHops), topology.ChainNode(i, c.ChainHops, c.ChainHops))
		}
		cols := c.ChainHops + 1
		for x := 0; x < c.CrossFlows; x++ {
			col := (x * cols) / (c.CrossFlows + 1) % cols
			srv := topology.ChainNode(0, col, c.ChainHops)
			cli := topology.ChainNode(c.Chains-1, col, c.ChainHops)
			// A single chain has no "across", and chains spaced beyond
			// radio range have no vertical route: a flow that can never
			// connect would just burn the deadline, so skip it.
			if srv == cli || dist(srv, cli) < 1 {
				continue
			}
			addFlow(srv, cli)
		}
		return flows
	}

	n := len(m.Nodes)
	want := c.Flows
	if want <= 0 {
		want = n / 10
		if want < 2 {
			want = 2
		}
	}
	rng := rand.New(rand.NewSource(c.Seed ^ 0x666c6f77)) // "flow": decoupled from sim and placement streams
	used := make(map[[2]int]bool)
	for tries := 0; len(flows) < want && tries < 200*want; tries++ {
		srv, cli := rng.Intn(n), rng.Intn(n)
		if srv == cli || used[[2]int{srv, cli}] {
			continue
		}
		if d := dist(srv, cli); d < c.MinHops {
			continue
		}
		used[[2]int{srv, cli}] = true
		addFlow(srv, cli)
	}
	return flows
}

// startDynamics wires the topology-dynamics tick shared by RunMeshTCP and
// RunScenario, configured by cfg's Mobility, Speed, Pause, MoveInterval,
// Faults and Seed: a periodic event on the mesh's scheduler advances node
// positions and fault processes together, reconciles link state through
// the medium's incremental SetConnected/SetSNR paths, and recomputes
// shortest-path routes with flap accounting. With neither mobility nor
// faults configured it schedules nothing, so a static run's event
// sequence — and golden hash — is untouched; fault processes draw only
// from their private streams, so enabling them perturbs no other draw.
//
// A crashed node's MAC goes down and drops its queues, its TCP
// connections abort in place and kill marks the flows ending there; a
// recovered node's MAC comes back up. Both happen before the tick's link
// reconcile, so a crashed node's MAC and transport die in the same tick
// its links are cut.
//
// It returns the counters the ticks accumulate (finish completes them)
// and the fault set, nil without faults.
func startDynamics(m *topology.Mesh, cfg *MeshTCPConfig, stacks []*tcp.Stack,
	kill func(network.NodeID)) (*Dynamics, *faults.Set) {
	d := &Dynamics{}
	var mob topology.Model
	if cfg.Mobility != "" {
		var err error
		mob, err = topology.NewMobility(cfg.Mobility, m, cfg.Speed, cfg.Pause, cfg.Seed)
		if err != nil {
			panic(err) // Validate rejects unknown models first
		}
	}
	var set *faults.Set
	if cfg.Faults.Enabled() {
		set = faults.New(*cfg.Faults.Clone(), m, cfg.Seed)
		m.SetOverlay(set)
	}
	if mob == nil && set == nil {
		return d, nil
	}
	iv := cfg.MoveInterval
	if iv <= 0 {
		iv = time.Second
	}
	var tick func()
	tick = func() {
		now := m.Sched.Now()
		pos := m.Pos
		if mob != nil {
			pos = mob.Step(now)
		}
		if set != nil {
			fd := set.Step(now)
			d.NodeCrashes += len(fd.Crashed)
			d.NodeRecoveries += len(fd.Recovered)
			d.FaultLinkDowns += fd.FlapsDown
			d.FaultLinkUps += fd.FlapsUp
			d.PartitionsStarted += fd.PartitionsStarted
			d.PartitionsHealed += fd.PartitionsHealed
			d.MeanHealLatency += fd.HealLatency // a sum until finish
			d.SNRBursts += fd.BurstsStarted
			for _, i := range fd.Crashed {
				mc := m.Nodes[i].MAC()
				mc.SetDown(true)
				mc.Reset()
				stacks[i].Abort()
				kill(network.NodeID(i))
			}
			for _, i := range fd.Recovered {
				m.Nodes[i].MAC().SetDown(false)
			}
		}
		delta := m.UpdateLinks(pos)
		d.LinkUps += delta.Up
		d.LinkDowns += delta.Down
		// Hop-count routes only depend on link existence, and a
		// recompute over an unchanged graph provably changes nothing
		// (same BFS, same tie-breaks) — skip the O(N·(N+E)) pass on
		// ticks that moved nodes without crossing a range boundary.
		if delta.Up+delta.Down > 0 {
			d.RouteFlaps += routing.RecomputeShortestPaths(m.Nodes, m.Adjacency())
			d.RouteRecomputes++
		}
		m.Sched.After(iv, "mesh:mobility", tick)
	}
	m.Sched.After(iv, "mesh:mobility", tick)
	return d, set
}

// finish completes the dynamics of a run that ended at end: the mesh's
// final shape, the availability the fault set integrated (1 without
// faults) and the mean heal latency.
func (d *Dynamics) finish(m *topology.Mesh, set *faults.Set, end sim.Time) {
	d.NodeCount, d.LinkCount, d.AvgDegree = len(m.Nodes), m.LinkCount(), m.AvgDegree()
	d.Availability = 1
	if set != nil {
		d.Availability = set.Availability(end)
	}
	if d.PartitionsHealed > 0 {
		d.MeanHealLatency /= time.Duration(d.PartitionsHealed)
	}
}

// RunMeshTCP executes the experiment: build the mesh, start every flow
// (staggered a few hundred µs apart so the initial SYNs do not collide on
// identical backoff draws), run to completion or deadline. With Shards set
// the run executes on the sharded parallel engine instead of the
// sequential scheduler (see mesh_parallel.go). It panics with the
// Validate error on an invalid config.
func RunMeshTCP(cfg MeshTCPConfig) MeshResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.fill()
	if cfg.Shards > 0 {
		return runMeshTCPSharded(cfg)
	}

	m := cfg.buildMesh()
	attachTrace(m.Network, cfg.TraceTo, cfg.TraceNodes, cfg.TraceFormat)
	flows := cfg.planFlows(m)
	stacks := newStacks(m.Network, cfg.TCP)

	kill := wireFlows(cfg.FileBytes, flows, stacks,
		func(network.NodeID) *sim.Scheduler { return m.Sched }, m.Sched.Halt)
	dyn, set := startDynamics(m, &cfg, stacks, kill)
	startMetrics(cfg.Metrics, 0, m.Network, stacks, cfg.MaxAggBytes, cfg.Deadline, func(reg *telemetry.Registry) {
		registerFlowMetrics(reg, m.Sched, flows)
	})

	m.Sched.RunUntil(cfg.Deadline)

	dyn.finish(m, set, m.Sched.Now())
	return assembleMeshResult(flows, m.Nodes, trafficRoles(m.Nodes, flows),
		*dyn, m.Sched.EventsRun(), m.Sched.Now())
}

// wireFlows installs every planned flow as a transfer of fileBytes: the
// receive side on the client's scheduler now, and a staggered connect
// event on the server's that pumps the file as one chunk. onAllDone (when
// non-nil) fires as the last flow completes; parallel runs with more than
// one shard pass nil — flow completions land on different goroutines
// there, and the run drains to the deadline deterministically instead of
// halting early. The returned func is the crash hook: it kills every live
// flow terminating at the given node, and killed flows count toward
// onAllDone so a run whose remaining flows all die still halts early.
func wireFlows(fileBytes int, flows []*flow, stacks []*tcp.Stack,
	schedFor func(network.NodeID) *sim.Scheduler, onAllDone func()) func(network.NodeID) {
	remaining := len(flows)
	settle := func(*flow) {
		if onAllDone != nil {
			remaining--
			if remaining == 0 {
				onAllDone()
			}
		}
	}
	// Sized once, here: connect events on shard goroutines only read it.
	payload := make([]byte, fileBytes)
	file := traffic.Model{Kind: traffic.Bulk, Bytes: fileBytes}
	for i, f := range flows {
		f.size = fileBytes
		f.listen(stacks[f.client], schedFor(f.client), settle)
		// Stagger flow starts so simultaneous SYNs do not collide forever
		// on identical backoff draws.
		start := time.Duration(i) * 150 * time.Microsecond
		srv := schedFor(f.server)
		srv.After(start, "mesh:connect", func() {
			f.connect(stacks[f.server], srv, file.New(0), &payload)
		})
	}
	return func(node network.NodeID) { killAt(flows, node, settle) }
}

// assembleMeshResult turns the finished run's state into a MeshResult;
// shared by the sequential and sharded mesh paths and by RunTCP. role(i, n)
// names node i of n in the node reports; end is the run's final simulated
// time, used for tail-stall accounting.
func assembleMeshResult(flows []*flow, nodes []*network.Node,
	role func(i, n int) string, dyn Dynamics, eventsRun uint64, end sim.Time) MeshResult {
	res := MeshResult{Completed: true, EventsRun: eventsRun, Dynamics: dyn}
	res.MinMbps = math.Inf(1)
	for _, f := range flows {
		rep := MeshFlowReport{Server: f.server, Client: f.client, Hops: f.hops,
			Done: f.done, Killed: f.killed}
		if f.snd != nil && !f.done && !f.killed {
			// The tail gap — last progress to the end of the run — is a
			// stall too: a flow frozen by an unhealed failure shows up
			// here, not as a mid-run gap. (A killed flow stops accruing
			// stall at its endpoint's crash.)
			if gap := end - f.lastProgress; gap > f.maxStall {
				f.maxStall = gap
			}
		}
		rep.Stall = f.maxStall
		if rep.Stall > res.MaxFlowStall {
			res.MaxFlowStall = rep.Stall
		}
		res.MeanFlowStall += rep.Stall
		if f.killed {
			res.FlowsKilledByFault++
		}
		if f.done {
			rep.Finish = time.Duration(f.finish)
			rep.Mbps = float64(f.size) * 8 / rep.Finish.Seconds() / 1e6
			res.FlowsDone++
			if rep.Finish > res.Elapsed {
				res.Elapsed = rep.Finish
			}
		} else {
			res.Completed = false
		}
		res.AggregateMbps += rep.Mbps
		if rep.Mbps < res.MinMbps {
			res.MinMbps = rep.Mbps
		}
		res.Flows = append(res.Flows, rep)
	}
	if len(flows) > 0 {
		res.MeanFlowStall /= time.Duration(len(flows))
		res.MeanMbps = res.AggregateMbps / float64(len(flows))
	} else {
		res.MinMbps = 0
	}
	res.Nodes = nodeReports(nodes, role)
	return res
}
