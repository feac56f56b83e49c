// Sharded parallel execution of mesh TCP experiments.
//
// The mesh is partitioned into contiguous spatial strips (cell domains);
// each shard rebuilds its nodes, MACs and TCP stacks on a private scheduler
// and medium, with every medium sharing one read-only link table. The
// shards run concurrently under sim.ShardEngine, in barrier-synchronized
// windows one lookahead L = ShardLookahead wide (the minimum on-air time of
// any frame), and every locally-launched transmission whose source has
// neighbors in other shards is replayed there as a foreign frame.
//
// Correctness argument. A transmission starting at t cannot deliver before
// t+L (no frame is shorter than L on the air), so replaying it into a
// neighboring shard at exactly t+L preserves delivery times bit-exactly.
// What the replay approximates is the first L of carrier sense and
// collision overlap in the *receiving* shard: a foreign frame applies
// energy detect and collision marking from t+L rather than t. The source
// shard marks its own receivers exactly, so the approximation is bounded to
// cross-boundary receivers during one minimum-frame window (~492 µs at the
// calibrated PHY) per foreign frame.
//
// Determinism. Each shard's event order is a pure function of the config:
// same-instant boundary arrivals execute in (time, source shard, source
// sequence) order before local events, so a run's result depends only on
// (config, Shards) — not on GOMAXPROCS, goroutine scheduling or repetition.
// Shards: 1 reuses the sequential seed, construction order and early-halt
// semantics and is byte-identical to the sequential engine, golden hashes
// included. Shards > 1 drains to the deadline (an early cross-shard halt
// would race) and is statistically equivalent to sequential.
package core

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/mac"
	"aggmac/internal/medium"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/routing"
	"aggmac/internal/sim"
	"aggmac/internal/tcp"
	"aggmac/internal/topology"
	"aggmac/internal/traffic"
)

// MaxShards bounds the partition; foreign-shard sets are 64-bit masks.
const MaxShards = 64

// ShardLookahead returns the parallel engine's conservative lookahead for
// the given PHY: the PLCP preamble plus the smallest control frame (CTS/ACK,
// 14 bytes) at the control rate — the minimum time any frame spends on the
// air, and therefore the minimum delay between a transmission starting in
// one shard and any effect it can have in another.
func ShardLookahead(params phy.Params) time.Duration {
	return params.PreamblePLCP + phy.Airtime(frame.CTSLen, params.ControlRate)
}

// shardPartition assigns each node to one of k contiguous vertical strips
// of (nearly) equal population, ordered by x-position with node id as the
// tie-break. Strips keep cross-shard links between nearby shard indices on
// planar layouts, but correctness never depends on that: the engine
// connects exactly the shard pairs that share a radio link.
func shardPartition(m0 *topology.Mesh, k int) []int {
	n := len(m0.Nodes)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		pa, pb := m0.Pos[ids[a]], m0.Pos[ids[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		return ids[a] < ids[b]
	})
	owner := make([]int, n)
	for rank, id := range ids {
		owner[id] = rank * k / n
	}
	return owner
}

// shardSeed derives shard s's scheduler seed. Shard 0 keeps the run's base
// seed so a one-shard run replays the sequential engine's random stream
// draw for draw.
func shardSeed(base int64, s int) int64 {
	if s == 0 {
		return base
	}
	return traffic.DeriveSeed(base, fmt.Sprintf("shard:%d", s))
}

// runMeshTCPSharded runs a validated, filled config with Shards > 0.
func runMeshTCPSharded(cfg MeshTCPConfig) MeshResult {
	// m0 is a throwaway sequential build: it contributes node positions,
	// the link table, its route table (for flow planning) and the flow
	// plan, but never executes an event.
	m0 := cfg.buildMesh()
	flows := cfg.planFlows(m0)
	n := len(m0.Nodes)
	k := min(cfg.Shards, n)

	owner := shardPartition(m0, k)

	// foreign[i] is the set of shards other than i's own that contain a
	// neighbor of node i — the shards every transmission by i must be
	// replayed into. adj collects the induced shard adjacency.
	foreign := make([]uint64, n)
	adj := make([]uint64, k)
	for i := 0; i < n; i++ {
		for _, j := range m0.Medium.Neighbors(medium.NodeID(i)) {
			if owner[j] != owner[i] {
				foreign[i] |= 1 << owner[j]
				adj[owner[i]] |= 1 << owner[j]
			}
		}
	}

	params := phyParams(cfg.Phy)
	tbl := m0.Medium.Table()
	// shards[s] is shard s's own network: a scheduler, a medium on the
	// shared link table, and the nodes it owns in ascending id.
	scheds := make([]*sim.Scheduler, k)
	shards := make([]*topology.Network, k)
	for s := range scheds {
		scheds[s] = sim.NewScheduler(shardSeed(cfg.Seed, s))
		shards[s] = &topology.Network{Sched: scheds[s], Medium: medium.NewOnTable(scheds[s], params, tbl)}
	}

	// Rebuild nodes and MACs in ascending node id — the sequential
	// construction order — each on its owner shard's scheduler and medium.
	nodes := make([]*network.Node, n)
	for i := 0; i < n; i++ {
		sh := shards[owner[i]]
		node := network.NewNode(network.NodeID(i))
		mc := mac.New(sh.Sched, sh.Medium, medium.NodeID(i), cfg.optsFor(i, n), node.Bind())
		node.AttachMAC(mc)
		nodes[i] = node
		sh.Nodes = append(sh.Nodes, node)
	}
	// Fill every route column up front: a lookup that computed a column
	// would write the table shared by all shards' goroutines.
	routing.InstallShortestPaths(nodes, m0.Adjacency())

	stacks := make([]*tcp.Stack, n)
	shardStacks := make([][]*tcp.Stack, k)
	for s, sh := range shards {
		shardStacks[s] = newStacks(sh, cfg.TCP)
		for j, node := range sh.Nodes {
			stacks[node.ID()] = shardStacks[s][j]
		}
	}

	look := ShardLookahead(params)
	eng := sim.NewShardEngine(scheds, look)
	for s := 0; s < k; s++ {
		for rest := adj[s]; rest != 0; rest &= rest - 1 {
			if d := bits.TrailingZeros64(rest); d > s {
				eng.Connect(s, d)
			}
		}
	}
	for s := 0; s < k; s++ {
		if adj[s] == 0 {
			continue
		}
		s := s
		shards[s].Medium.SetBoundary(func(ff medium.ForeignFrame) {
			mask := foreign[ff.Src]
			if mask == 0 {
				return
			}
			// Body and Spans alias the pooled transmission; copy once,
			// shared read-only by every destination shard.
			ff.Body = append([]byte(nil), ff.Body...)
			ff.Spans = append([]frame.Span(nil), ff.Spans...)
			at := ff.Start + look
			for rest := mask; rest != 0; rest &= rest - 1 {
				dst := bits.TrailingZeros64(rest)
				eng.Post(s, dst, at, func() { shards[dst].Medium.InjectForeign(ff) })
			}
		})
	}

	// A single shard can halt as the last flow completes, exactly like the
	// sequential engine. With several shards an early halt would depend on
	// cross-goroutine timing, so the run drains to the deadline instead.
	var onAllDone func()
	if k == 1 {
		onAllDone = scheds[0].Halt
	}
	wireFlows(cfg.FileBytes, flows, stacks,
		func(id network.NodeID) *sim.Scheduler { return scheds[owner[id]] }, onAllDone)

	// One registry per shard, each sampled by its own scheduler and reading
	// only shard-owned state (medium, nodes, stacks), so sampling is
	// race-free and each shard's series is a pure function of (config,
	// Shards). Per-flow stall gauges are sequential-only: a flow's
	// endpoints may live on two shards.
	for s, sh := range shards {
		startMetrics(cfg.Metrics, s, sh, shardStacks[s], cfg.MaxAggBytes, cfg.Deadline, nil)
	}

	eng.Run(cfg.Deadline)

	var eventsRun uint64
	for _, s := range scheds {
		eventsRun += s.EventsRun()
	}
	var dyn Dynamics
	dyn.finish(m0, nil, cfg.Deadline)
	res := assembleMeshResult(flows, nodes, trafficRoles(nodes, flows), dyn, eventsRun, cfg.Deadline)
	res.Shards = k
	return res
}
