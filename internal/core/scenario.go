// The scenario engine: churning workloads on generated meshes. Where
// RunMeshTCP starts N identical flows at t=0 and measures steady-state
// goodput, RunScenario resolves a declarative traffic.Scenario — topology,
// mobility, a weighted mix of traffic models, an arrival discipline — and
// lets flows arrive, transfer and complete over simulated time. The
// headline metric moves from saturated goodput to flow-completion time
// (p50/p95/p99), the quantity that actually separates aggregation schemes
// under churn: a scheme that batches aggressively can move more bytes yet
// finish every short flow later.
//
// Determinism: the whole run is a pure function of (scenario, scheme,
// seed). Arrival gaps, model picks, endpoint pairs, think times and every
// per-flow chunk stream come from decoupled seeded streams derived via
// traffic.DeriveSeed, so no draw ever depends on completion order.
package core

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"aggmac/internal/faults"
	"aggmac/internal/mac"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
	"aggmac/internal/tcp"
	"aggmac/internal/telemetry"
	"aggmac/internal/topology"
	"aggmac/internal/traffic"
)

// ScenarioConfig binds a declarative scenario to one MAC scheme (a
// scenario file lists several; each becomes one run).
type ScenarioConfig struct {
	Scenario traffic.Scenario
	Scheme   mac.Scheme
	// Seed, when non-zero, overrides the scenario's own seed (sweep
	// replications derive per-run seeds here).
	Seed int64
	// TraceTo streams the channel timeline to the writer; TraceNodes
	// restricts it to events touching the listed nodes; TraceFormat
	// selects TraceText (default) or TraceJSONL.
	TraceTo     io.Writer
	TraceNodes  []int
	TraceFormat string
	// Metrics samples the telemetry catalog plus the engine's flow-churn
	// gauges on simulated-time ticks; nil schedules nothing.
	Metrics *telemetry.Recorder
	// TCP overrides the transport config; zero value means defaults.
	TCP tcp.Config
	// Phy overrides the channel constants; nil means calibrated defaults.
	Phy *phy.Params
}

// ScenarioFlowReport is one flow's outcome.
type ScenarioFlowReport struct {
	Server, Client network.NodeID
	// Model is the mix index of the flow's traffic model.
	Model int
	// Hops is the route length at arrival time.
	Hops int
	// Start is the flow's arrival time.
	Start time.Duration
	// Bytes is the payload delivered to the receiver.
	Bytes int64
	Done  bool
	// Killed marks a flow terminated by a fault at one of its endpoints.
	Killed bool
	// FCT is the flow completion time (last payload byte minus arrival).
	FCT time.Duration
}

// ScenarioModelReport aggregates one mix entry's flows.
type ScenarioModelReport struct {
	// Kind names the traffic model.
	Kind string
	// Flows arrived, FlowsDone completed.
	Flows, FlowsDone int
	// Bytes delivered across the model's flows.
	Bytes int64
	// GoodputMbps is the model's delivered bytes over the arrival window.
	GoodputMbps float64
	// FCT summarizes the model's completed flows.
	FCT traffic.FCTStats
}

// ScenarioResult is what a scenario run measures.
type ScenarioResult struct {
	// Name/Scheme identify the run.
	Name   string
	Scheme string
	// Flow churn: Started flows arrived, Completed finished, Abandoned
	// were still in flight at the deadline (flows killed by a fault count
	// in FlowsKilledByFault instead), Skipped arrivals found no eligible
	// endpoint pair (partitioned mobile meshes).
	FlowsStarted, FlowsCompleted int
	FlowsAbandoned, FlowsSkipped int
	// PeakActive is the high-water mark of concurrently active flows.
	PeakActive int
	// FCT summarizes completion times across every completed flow.
	FCT traffic.FCTStats
	// DeliveredBytes is total payload delivered to receivers, including
	// partial delivery of flows later abandoned; AggregateMbps normalizes
	// it over the scenario's arrival window.
	DeliveredBytes int64
	AggregateMbps  float64
	// PerModel breaks the workload down by mix entry, in mix order.
	PerModel []ScenarioModelReport
	// Flows holds per-flow detail, in arrival order.
	Flows []ScenarioFlowReport
	// Elapsed is the simulated time the run actually used (the deadline,
	// or earlier when every flow drained).
	Elapsed time.Duration
	// EventsRun pins the executed-event count for determinism tests.
	EventsRun uint64
	// Dynamics holds the topology shape, mobility churn and fault
	// counters, as in MeshResult.
	Dynamics
	// Nodes holds per-node counters (roles by traffic part, as in mesh).
	Nodes []NodeReport
}

// scenarioEngine holds a run's mutable state.
type scenarioEngine struct {
	sc     traffic.Scenario
	seed   int64
	m      *topology.Mesh
	stacks []*tcp.Stack
	mix    traffic.Mix

	flows        []*flow
	active       int
	peakActive   int
	completed    int
	skipped      int
	faults       *faults.Set // nil without a faults section
	arrivalsOpen bool        // open loop: more arrivals may come
	liveUsers    int         // closed loop: users still cycling

	halted bool     // the engine drained before the deadline
	haltAt sim.Time // when it drained (may legitimately be 0)

	payload []byte // the zero send buffer every flow shares
}

// RunScenario executes one (scenario, scheme) run. It panics with the
// Validate error on an invalid config — CLIs validate at load time, so a
// panic here is a programming error, consistent with the other Run entry
// points.
func RunScenario(cfg ScenarioConfig) ScenarioResult {
	sc, rate, mix, err := cfg.resolve()
	if err != nil {
		panic(err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = sc.Seed
	}

	// The mesh build and dynamics are the ones RunMeshTCP uses, driven by
	// the scenario's topology/radio, mobility and faults blocks.
	mcfg := MeshTCPConfig{
		Scheme: cfg.Scheme, Rate: rate,
		Topology: sc.Topology.Kind, Nodes: sc.Topology.Nodes,
		Chains: sc.Topology.Chains, ChainHops: sc.Topology.ChainHops,
		RowSpacing:  sc.Topology.RowSpacing,
		MaxAggBytes: sc.MaxAggBytes,
		Faults:      scenarioFaultConfig(sc.Faults),
		Phy:         cfg.Phy,
		Seed:        seed,
	}
	if r := sc.Topology.Radio; r != nil {
		mcfg.Radio = topology.RadioModel{Range: r.Range, RefSNRdB: r.RefSNRdB, Exponent: r.Exponent}
	}
	if mob := sc.Mobility; mob != nil {
		mcfg.Mobility, mcfg.Speed = mob.Model, mob.Speed
		mcfg.Pause = time.Duration(mob.PauseS * float64(time.Second))
		mcfg.MoveInterval = time.Duration(mob.MoveIntervalS * float64(time.Second))
	}
	mcfg.fill()
	m := mcfg.buildMesh()
	attachTrace(m.Network, cfg.TraceTo, cfg.TraceNodes, cfg.TraceFormat)

	// Engine and stacks first: the dynamics' crash hook needs them.
	e := &scenarioEngine{
		sc: sc, seed: seed, m: m, mix: mix,
		stacks: newStacks(m.Network, cfg.TCP),
	}
	dyn, set := startDynamics(m, &mcfg, e.stacks, func(node network.NodeID) {
		killAt(e.flows, node, e.settle)
	})
	e.faults = set

	switch sc.Traffic.Mode {
	case traffic.ModeOpen:
		e.startOpenLoop()
	case traffic.ModeClosed:
		e.startClosedLoop()
	}

	startMetrics(cfg.Metrics, 0, m.Network, e.stacks, mcfg.MaxAggBytes, sc.Deadline(), func(reg *telemetry.Registry) {
		reg.Gauge("scn.active_flows", func() float64 { return float64(e.active) })
		reg.Gauge("scn.flows_started", func() float64 { return float64(len(e.flows)) })
		reg.Gauge("scn.flows_completed", func() float64 { return float64(e.completed) })
	})

	// An open-loop run whose first arrival already falls past the window
	// halts synchronously above; RunUntil resets the scheduler's halt
	// flag on entry, so it must not run at all in that case.
	if !e.halted {
		m.Sched.RunUntil(sc.Deadline())
	}

	return e.assemble(cfg, dyn)
}

// scenarioFaultConfig maps the scenario schema's faults section onto the
// fault engine's config. nil in, nil out.
func scenarioFaultConfig(sf *traffic.Faults) *faults.Config {
	if sf == nil {
		return nil
	}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	c := &faults.Config{
		CrashMTBF:    sec(sf.CrashMTBFS),
		CrashMTTR:    sec(sf.CrashMTTRS),
		FlapMTBF:     sec(sf.FlapMTBFS),
		FlapMTTR:     sec(sf.FlapMTTRS),
		SNRBurstMTBF: sec(sf.SNRBurstMTBFS),
		SNRBurstMTTR: sec(sf.SNRBurstMTTRS),
		SNRBurstDB:   sf.SNRBurstDB,
	}
	for _, p := range sf.Partitions {
		c.Partitions = append(c.Partitions, faults.Partition{
			Start:    sec(p.StartS),
			Duration: sec(p.DurationS),
			Axis:     p.Axis,
			At:       p.At,
		})
	}
	return c
}

// settle releases a flow that completed or was killed by a fault. A
// closed-loop user whose flow ends either way resumes its think cycle (a
// crash kills the user's request, not the user).
func (e *scenarioEngine) settle(f *flow) {
	e.active--
	if f.done {
		e.completed++
	}
	if f.onComplete != nil {
		f.onComplete()
	}
	e.maybeHalt()
}

// maybeHalt stops the scheduler once no flow can arrive or progress.
// RunUntil advances the clock to the deadline even on an early halt, so
// the halt time is captured here for the Elapsed metric.
func (e *scenarioEngine) maybeHalt() {
	if e.active == 0 && !e.arrivalsOpen && e.liveUsers == 0 {
		e.halted = true
		e.haltAt = e.m.Sched.Now()
		e.m.Sched.Halt()
	}
}

// startOpenLoop schedules Poisson flow arrivals over the arrival window.
func (e *scenarioEngine) startOpenLoop() {
	arr := traffic.NewOpenLoop(e.sc.Traffic.ArrivalRate, traffic.DeriveSeed(e.seed, "scn/arrivals"))
	pick := rand.New(rand.NewSource(traffic.DeriveSeed(e.seed, "scn/pick")))
	e.arrivalsOpen = true
	var schedule func()
	schedule = func() {
		gap := arr.Next()
		due := time.Duration(e.m.Sched.Now()) + gap
		if due > e.sc.Duration() || len(e.flows) >= e.flowCap() {
			e.arrivalsOpen = false
			e.maybeHalt()
			return
		}
		e.m.Sched.After(gap, "scn:arrival", func() {
			mi := e.mix.Pick(pick)
			srv, cli, ok := e.sampleEndpoints(pick)
			if ok {
				e.launch(mi, srv, cli, nil)
			} else {
				e.skipped++
			}
			schedule()
		})
	}
	schedule()
}

// startClosedLoop launches the think-time user population. Each user owns
// decoupled random streams (model picks, endpoints, think times), so one
// user's pace never perturbs another's draws.
func (e *scenarioEngine) startClosedLoop() {
	e.liveUsers = e.sc.Traffic.Users
	think := time.Duration(e.sc.Traffic.ThinkS * float64(time.Second))
	for u := 0; u < e.sc.Traffic.Users; u++ {
		u := u
		rng := rand.New(rand.NewSource(traffic.DeriveSeed(e.seed, fmt.Sprintf("scn/user/%d", u))))
		th := traffic.NewThink(think, traffic.DeriveSeed(e.seed, fmt.Sprintf("scn/think/%d", u)))
		var next func()
		next = func() {
			if time.Duration(e.m.Sched.Now()) >= e.sc.Duration() || len(e.flows) >= e.flowCap() {
				e.liveUsers--
				e.maybeHalt()
				return
			}
			mi := e.mix.Pick(rng)
			srv, cli, ok := e.sampleEndpoints(rng)
			if !ok {
				// No eligible pair right now (partitioned mobile mesh):
				// think and retry rather than spinning.
				e.skipped++
				e.m.Sched.After(th.Next(), "scn:think", next)
				return
			}
			e.launch(mi, srv, cli, func() {
				e.m.Sched.After(th.Next(), "scn:think", next)
			})
		}
		// Stagger user starts so initial SYNs do not collide on identical
		// backoff draws (the same trick the mesh runner uses).
		e.m.Sched.After(time.Duration(u)*150*time.Microsecond, "scn:user", next)
	}
}

// flowCap is the validated per-run flow-start bound; the schema caps it at
// traffic.MaxFlowsLimit, which keeps every listener port (1 + flow index)
// below the stacks' ephemeral range.
func (e *scenarioEngine) flowCap() int { return e.sc.Traffic.MaxFlows }

// sampleEndpoints draws a server/client pair at least MinHops apart on the
// current topology. ok=false when no eligible pair turns up.
func (e *scenarioEngine) sampleEndpoints(rng *rand.Rand) (srv, cli int, ok bool) {
	n := len(e.m.Nodes)
	for tries := 0; tries < 200; tries++ {
		srv, cli = rng.Intn(n), rng.Intn(n)
		if srv == cli {
			continue
		}
		if e.faults != nil && (e.faults.NodeDown(srv) || e.faults.NodeDown(cli)) {
			continue
		}
		if d := e.m.HopDistance(srv, cli); d < e.sc.Traffic.MinHops {
			continue
		}
		return srv, cli, true
	}
	return 0, 0, false
}

// launch starts one flow: listener on the client, a paced source on the
// server.
func (e *scenarioEngine) launch(modelIdx, srv, cli int, onComplete func()) {
	id := len(e.flows)
	f := &flow{
		server: network.NodeID(srv), client: network.NodeID(cli),
		hops:       e.m.HopDistance(srv, cli),
		port:       uint16(1 + id), // 1..9999: below the ephemeral range
		model:      modelIdx,
		onComplete: onComplete,
	}
	e.flows = append(e.flows, f)
	e.active++
	if e.active > e.peakActive {
		e.peakActive = e.active
	}
	f.listen(e.stacks[cli], e.m.Sched, e.settle)
	src := e.mix.Model(modelIdx).New(traffic.DeriveSeed(e.seed, fmt.Sprintf("scn/flow/%d", id)))
	f.connect(e.stacks[srv], e.m.Sched, src, &e.payload)
}

// assemble builds the result after the scheduler stops. Each completed
// flow's FCT is its finish minus its arrival.
func (e *scenarioEngine) assemble(cfg ScenarioConfig, dyn *Dynamics) ScenarioResult {
	sc := e.sc
	var fct traffic.FCT
	perModel := make([]ScenarioModelReport, e.mix.Len())
	fctByModel := make([]traffic.FCT, e.mix.Len())
	var flows []ScenarioFlowReport
	for _, f := range e.flows {
		rep := ScenarioFlowReport{
			Server: f.server, Client: f.client,
			Model: f.model, Hops: f.hops,
			Start: time.Duration(f.start),
			Bytes: f.got, Done: f.done, Killed: f.killed,
		}
		pm := &perModel[f.model]
		pm.Flows++
		pm.Bytes += f.got
		if f.done {
			rep.FCT = time.Duration(f.finish - f.start)
			fct.Record(rep.FCT)
			fctByModel[f.model].Record(rep.FCT)
			pm.FlowsDone++
		}
		if f.killed {
			dyn.FlowsKilledByFault++
		}
		flows = append(flows, rep)
	}

	res := ScenarioResult{
		Name:           sc.Name,
		Scheme:         cfg.Scheme.Name(),
		FlowsStarted:   len(e.flows),
		FlowsCompleted: fct.Count(),
		FlowsSkipped:   e.skipped,
		PeakActive:     e.peakActive,
		FCT:            fct.Stats(),
		Flows:          flows,
		Elapsed:        time.Duration(e.m.Sched.Now()),
		EventsRun:      e.m.Sched.EventsRun(),
	}
	if e.halted {
		// RunUntil advances the clock to the deadline even when the engine
		// halted early; report the drain time instead.
		res.Elapsed = time.Duration(e.haltAt)
	}
	dyn.finish(e.m, e.faults, res.Elapsed)
	res.Dynamics = *dyn
	res.FlowsAbandoned = res.FlowsStarted - res.FlowsCompleted - res.FlowsKilledByFault

	for i := range perModel {
		perModel[i].Kind = e.mix.Model(i).Kind
		perModel[i].FCT = fctByModel[i].Stats()
		perModel[i].GoodputMbps = float64(perModel[i].Bytes) * 8 / sc.DurationS / 1e6
		res.DeliveredBytes += perModel[i].Bytes
	}
	res.AggregateMbps = float64(res.DeliveredBytes) * 8 / sc.DurationS / 1e6
	res.PerModel = perModel

	res.Nodes = nodeReports(e.m.Nodes, trafficRoles(e.m.Nodes, e.flows))
	return res
}
