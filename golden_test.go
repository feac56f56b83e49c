// Golden determinism tests: for one TCP and one UDP configuration per MAC
// scheme, the full result of a seeded run — every throughput float (exact
// bits), every per-node counter, and the scheduler's executed-event count —
// is hashed and pinned in testdata/golden.json.
//
// Any change to the event core, the PHY error model, or the channel that
// alters a single RNG draw, FIFO tie-break, or delivered byte changes these
// hashes. Performance PRs (pooled schedulers, memoized error models,
// zero-copy delivery) must keep them byte-identical; regenerate with
//
//	go test -run TestGolden -update
//
// only when an intentional behaviour change is being made, and say so in the
// commit message.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/faults"
	"aggmac/internal/mac"
	"aggmac/internal/phy"
	"aggmac/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current implementation")

const goldenPath = "testdata/golden.json"

type goldenEntry struct {
	Hash      string `json:"hash"`
	EventsRun uint64 `json:"events_run"`
}

// hexFloat renders a float64 exactly (hex mantissa), so two runs hash equal
// only when every bit of every metric is equal.
func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func hashNodes(w *strings.Builder, nodes []core.NodeReport) {
	for _, n := range nodes {
		fmt.Fprintf(w, "node=%d role=%s mac=%+v net=%+v pre=%s\n",
			n.ID, n.Role, n.MAC, n.Net, hexFloat(n.PreambleBytes))
	}
}

// tcpGolden hashes a seeded TCP run over an N-hop chain, or over the
// two-session star when star is set (hops is then ignored).
func tcpGolden(scheme mac.Scheme, hops int, star bool) (string, uint64) {
	res := core.RunTCP(core.TCPConfig{
		Scheme: scheme, Rate: phy.Rate2600k, Hops: hops, Star: star,
		FileBytes: 30_000, Seed: 1,
	})
	var w strings.Builder
	fmt.Fprintf(&w, "tcp scheme=%s completed=%v elapsed=%d events=%d\n",
		scheme.Name(), res.Completed, int64(res.Elapsed), res.EventsRun)
	fmt.Fprintf(&w, "throughput=%s\n", hexFloat(res.ThroughputMbps))
	for _, m := range res.SessionMbps {
		fmt.Fprintf(&w, "session=%s\n", hexFloat(m))
	}
	for _, s := range res.Sessions {
		fmt.Fprintf(&w, "sess %d->%d done=%v finish=%d snd=%+v rcv=%+v\n",
			int(s.Server), int(s.Client), s.Done, int64(s.Finish), s.Sender, s.Receiver)
	}
	hashNodes(&w, res.Nodes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(w.String()))), res.EventsRun
}

func udpGolden(scheme mac.Scheme) (string, uint64) {
	res := core.RunUDP(core.UDPConfig{
		Scheme: scheme, Rate: phy.Rate2600k, Hops: 2,
		Duration: 5 * time.Second, Warmup: 1 * time.Second, Seed: 1,
	})
	var w strings.Builder
	fmt.Fprintf(&w, "udp scheme=%s packets=%d events=%d\n",
		scheme.Name(), res.SinkPackets, res.EventsRun)
	fmt.Fprintf(&w, "throughput=%s\n", hexFloat(res.ThroughputMbps))
	fmt.Fprintf(&w, "delay n=%d mean=%d p50=%d p95=%d max=%d\n",
		res.Delay.Count, int64(res.Delay.Mean), int64(res.Delay.P50),
		int64(res.Delay.P95), int64(res.Delay.Max))
	hashNodes(&w, res.Nodes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(w.String()))), res.EventsRun
}

// meshGolden pins large-topology determinism the same way: the full result
// of a seeded many-flow mesh run — per-flow goodput bits, per-node
// counters, event count — hashed. Grid and random-disk layouts are both
// covered so generator placement, bridging, and shortest-path routing stay
// deterministic too.
func meshGolden(topo string, scheme mac.Scheme) (string, uint64) {
	res := core.RunMeshTCP(core.MeshTCPConfig{
		Scheme: scheme, Rate: phy.Rate2600k,
		Topology: topo, Nodes: 16, Flows: 3,
		FileBytes: 15_000, Seed: 1,
	})
	var w strings.Builder
	fmt.Fprintf(&w, "mesh topo=%s scheme=%s nodes=%d links=%d deg=%s completed=%v elapsed=%d events=%d\n",
		topo, scheme.Name(), res.NodeCount, res.LinkCount, hexFloat(res.AvgDegree),
		res.Completed, int64(res.Elapsed), res.EventsRun)
	fmt.Fprintf(&w, "agg=%s min=%s mean=%s done=%d\n",
		hexFloat(res.AggregateMbps), hexFloat(res.MinMbps), hexFloat(res.MeanMbps), res.FlowsDone)
	for _, f := range res.Flows {
		fmt.Fprintf(&w, "flow %d->%d hops=%d done=%v finish=%d mbps=%s\n",
			int(f.Server), int(f.Client), f.Hops, f.Done, int64(f.Finish), hexFloat(f.Mbps))
	}
	hashNodes(&w, res.Nodes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(w.String()))), res.EventsRun
}

// meshParallelGolden pins the sharded engine: a K-shard run is documented as
// a pure function of (config, K), so its full result hashes just like a
// sequential mesh run. These entries catch any change that perturbs the
// shard partition, boundary replay order, or per-shard RNG streams.
func meshParallelGolden(topo string, scheme mac.Scheme, shards int) (string, uint64) {
	res := core.RunMeshTCP(core.MeshTCPConfig{
		Scheme: scheme, Rate: phy.Rate2600k,
		Topology: topo, Nodes: 36, Flows: 4,
		FileBytes: 8_000, Seed: 1, Shards: shards,
		Deadline: 300 * time.Second,
	})
	var w strings.Builder
	fmt.Fprintf(&w, "mesh-par topo=%s scheme=%s shards=%d nodes=%d links=%d deg=%s completed=%v elapsed=%d events=%d\n",
		topo, scheme.Name(), res.Shards, res.NodeCount, res.LinkCount, hexFloat(res.AvgDegree),
		res.Completed, int64(res.Elapsed), res.EventsRun)
	fmt.Fprintf(&w, "agg=%s min=%s mean=%s done=%d\n",
		hexFloat(res.AggregateMbps), hexFloat(res.MinMbps), hexFloat(res.MeanMbps), res.FlowsDone)
	for _, f := range res.Flows {
		fmt.Fprintf(&w, "flow %d->%d hops=%d done=%v finish=%d mbps=%s\n",
			int(f.Server), int(f.Client), f.Hops, f.Done, int64(f.Finish), hexFloat(f.Mbps))
	}
	hashNodes(&w, res.Nodes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(w.String()))), res.EventsRun
}

// mobilityGolden pins the full time-varying pipeline: a seeded mobile-mesh
// run — waypoint or drift motion, delta link reconciliation, periodic
// route recomputation — hashed like meshGolden plus the churn counters
// (link ups/downs, route flaps, recompute rounds).
func mobilityGolden(kind string, scheme mac.Scheme, speed float64) (string, uint64) {
	res := core.RunMeshTCP(core.MeshTCPConfig{
		Scheme: scheme, Rate: phy.Rate2600k,
		Topology: core.MeshGrid, Nodes: 16, Flows: 3,
		FileBytes: 15_000, Seed: 1,
		Mobility: kind, Speed: speed,
		Pause: time.Second, MoveInterval: 500 * time.Millisecond,
		Deadline: 300 * time.Second,
	})
	var w strings.Builder
	fmt.Fprintf(&w, "mobility kind=%s scheme=%s speed=%s nodes=%d links=%d completed=%v elapsed=%d events=%d\n",
		kind, scheme.Name(), hexFloat(speed), res.NodeCount, res.LinkCount,
		res.Completed, int64(res.Elapsed), res.EventsRun)
	fmt.Fprintf(&w, "churn ups=%d downs=%d flaps=%d recomputes=%d\n",
		res.LinkUps, res.LinkDowns, res.RouteFlaps, res.RouteRecomputes)
	fmt.Fprintf(&w, "agg=%s min=%s mean=%s done=%d\n",
		hexFloat(res.AggregateMbps), hexFloat(res.MinMbps), hexFloat(res.MeanMbps), res.FlowsDone)
	for _, f := range res.Flows {
		fmt.Fprintf(&w, "flow %d->%d hops=%d done=%v finish=%d mbps=%s\n",
			int(f.Server), int(f.Client), f.Hops, f.Done, int64(f.Finish), hexFloat(f.Mbps))
	}
	hashNodes(&w, res.Nodes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(w.String()))), res.EventsRun
}

// faultGolden pins the fault-injection pipeline: a seeded faulty mesh run —
// crash/recover hooks, flap and partition link cuts through the overlay,
// killed-flow classification, stall and availability accounting — hashed
// like meshGolden plus every fault counter and degradation metric.
func faultGolden(kind string, scheme mac.Scheme) (string, uint64) {
	cfg := core.MeshTCPConfig{
		Scheme: scheme, Rate: phy.Rate2600k,
		Topology: core.MeshGrid, Nodes: 16, Flows: 3,
		FileBytes: 15_000, Seed: 1,
		Deadline: 300 * time.Second,
	}
	switch kind {
	case "crash":
		cfg.Faults = &faults.Config{CrashMTBF: 20 * time.Second, CrashMTTR: 5 * time.Second}
	case "flap":
		cfg.Faults = &faults.Config{FlapMTBF: 10 * time.Second, FlapMTTR: 2 * time.Second}
	case "partition":
		cfg.Faults = &faults.Config{Partitions: []faults.Partition{
			{Start: 2 * time.Second, Duration: 10 * time.Second, Axis: faults.AxisX, At: 1.5},
		}}
	default:
		panic("unknown fault golden kind " + kind)
	}
	res := core.RunMeshTCP(cfg)
	var w strings.Builder
	fmt.Fprintf(&w, "faults kind=%s scheme=%s nodes=%d links=%d completed=%v elapsed=%d events=%d\n",
		kind, scheme.Name(), res.NodeCount, res.LinkCount,
		res.Completed, int64(res.Elapsed), res.EventsRun)
	fmt.Fprintf(&w, "churn ups=%d downs=%d flaps=%d recomputes=%d\n",
		res.LinkUps, res.LinkDowns, res.RouteFlaps, res.RouteRecomputes)
	fmt.Fprintf(&w, "faults crashes=%d recoveries=%d flapdowns=%d flapups=%d parts=%d/%d bursts=%d\n",
		res.NodeCrashes, res.NodeRecoveries, res.FaultLinkDowns, res.FaultLinkUps,
		res.PartitionsStarted, res.PartitionsHealed, res.SNRBursts)
	fmt.Fprintf(&w, "degradation killed=%d avail=%s heal=%d maxstall=%d meanstall=%d\n",
		res.FlowsKilledByFault, hexFloat(res.Availability), int64(res.MeanHealLatency),
		int64(res.MaxFlowStall), int64(res.MeanFlowStall))
	fmt.Fprintf(&w, "agg=%s min=%s mean=%s done=%d\n",
		hexFloat(res.AggregateMbps), hexFloat(res.MinMbps), hexFloat(res.MeanMbps), res.FlowsDone)
	for _, f := range res.Flows {
		fmt.Fprintf(&w, "flow %d->%d hops=%d done=%v killed=%v finish=%d stall=%d mbps=%s\n",
			int(f.Server), int(f.Client), f.Hops, f.Done, f.Killed,
			int64(f.Finish), int64(f.Stall), hexFloat(f.Mbps))
	}
	hashNodes(&w, res.Nodes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(w.String()))), res.EventsRun
}

// goldenScenario is the seeded scenario a scenario golden runs. kind is a
// traffic mode; "faults" is an open-loop run with a crash + flap +
// partition faults section (as in examples/scenarios/faulty-mesh.json);
// "closed-faults" is a closed-loop run with crash and flap faults, whose
// killed flows hand their users back to the think cycle.
func goldenScenario(kind string) traffic.Scenario {
	mode := kind
	switch kind {
	case "faults":
		mode = traffic.ModeOpen
	case "closed-faults":
		mode = traffic.ModeClosed
	}
	sc := traffic.Scenario{
		Version:   traffic.SchemaVersion,
		Name:      "golden-" + kind,
		Seed:      1,
		DurationS: 20,
		DeadlineS: 60,
		Schemes:   []string{"na", "ua", "ba", "dba"},
		RateMbps:  2.6,
		Topology:  traffic.Topology{Kind: "grid", Nodes: 16},
		Traffic: traffic.Traffic{
			Mode:        mode,
			ArrivalRate: 0.5,
			Users:       3,
			ThinkS:      1,
			Mix: []traffic.WeightedModel{
				{Model: traffic.Model{Kind: traffic.Pareto, Bytes: 8_000, MaxBytes: 80_000}, Weight: 2},
				{Model: traffic.Model{Kind: traffic.CBR, RateMbps: 0.05, PacketBytes: 600, DurationS: 3}, Weight: 1},
			},
		},
	}
	switch kind {
	case "faults":
		sc.Faults = &traffic.Faults{
			CrashMTBFS: 20, CrashMTTRS: 8,
			FlapMTBFS: 20, FlapMTTRS: 2,
			Partitions: []traffic.PartitionSpec{{StartS: 5, DurationS: 6, Axis: "x", At: 1.5}},
		}
	case "closed-faults":
		sc.Seed = 3
		sc.Traffic.Users = 4
		sc.Faults = &traffic.Faults{
			CrashMTBFS: 15, CrashMTTRS: 6,
			FlapMTBFS: 20, FlapMTTRS: 2,
		}
	}
	return sc
}

// scenarioGolden pins the workload engine: a seeded scenario run (see
// goldenScenario) — flow arrivals, per-flow traffic sources, FCT
// accounting — hashed over every per-flow outcome (endpoints, model,
// arrival time, delivered bytes, FCT bits), the aggregate and per-model
// summaries, churn counters and per-node counters. The faulted kinds add
// every fault counter, the degradation metrics and each flow's killed
// flag.
func scenarioGolden(kind string, scheme mac.Scheme) (string, uint64) {
	sc := goldenScenario(kind)
	faulted := sc.Faults != nil
	res := core.RunScenario(core.ScenarioConfig{Scenario: sc, Scheme: scheme})
	var w strings.Builder
	fmt.Fprintf(&w, "scenario mode=%s scheme=%s nodes=%d links=%d deg=%s elapsed=%d events=%d\n",
		kind, res.Scheme, res.NodeCount, res.LinkCount, hexFloat(res.AvgDegree),
		int64(res.Elapsed), res.EventsRun)
	fmt.Fprintf(&w, "churn started=%d done=%d abandoned=%d skipped=%d peak=%d\n",
		res.FlowsStarted, res.FlowsCompleted, res.FlowsAbandoned, res.FlowsSkipped, res.PeakActive)
	fmt.Fprintf(&w, "agg=%s delivered=%d fct mean=%d p50=%d p95=%d p99=%d max=%d n=%d\n",
		hexFloat(res.AggregateMbps), res.DeliveredBytes,
		int64(res.FCT.Mean), int64(res.FCT.P50), int64(res.FCT.P95),
		int64(res.FCT.P99), int64(res.FCT.Max), res.FCT.Count)
	for _, pm := range res.PerModel {
		fmt.Fprintf(&w, "model %s flows=%d done=%d bytes=%d mbps=%s p99=%d\n",
			pm.Kind, pm.Flows, pm.FlowsDone, pm.Bytes, hexFloat(pm.GoodputMbps), int64(pm.FCT.P99))
	}
	for _, f := range res.Flows {
		fmt.Fprintf(&w, "flow %d->%d model=%d hops=%d start=%d bytes=%d done=%v fct=%d\n",
			int(f.Server), int(f.Client), f.Model, f.Hops, int64(f.Start), f.Bytes, f.Done, int64(f.FCT))
	}
	if faulted {
		fmt.Fprintf(&w, "churn ups=%d downs=%d flaps=%d recomputes=%d\n",
			res.LinkUps, res.LinkDowns, res.RouteFlaps, res.RouteRecomputes)
		fmt.Fprintf(&w, "faults crashes=%d recoveries=%d flapdowns=%d flapups=%d parts=%d/%d bursts=%d\n",
			res.NodeCrashes, res.NodeRecoveries, res.FaultLinkDowns, res.FaultLinkUps,
			res.PartitionsStarted, res.PartitionsHealed, res.SNRBursts)
		fmt.Fprintf(&w, "degradation killed=%d avail=%s heal=%d\n",
			res.FlowsKilledByFault, hexFloat(res.Availability), int64(res.MeanHealLatency))
		for _, f := range res.Flows {
			fmt.Fprintf(&w, "killed=%v\n", f.Killed)
		}
	}
	hashNodes(&w, res.Nodes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(w.String()))), res.EventsRun
}

func goldenSchemes() []mac.Scheme {
	return []mac.Scheme{mac.NA, mac.UA, mac.BA, mac.DBA}
}

func runGoldens() map[string]goldenEntry {
	got := make(map[string]goldenEntry)
	for _, s := range goldenSchemes() {
		h, ev := tcpGolden(s, 2, false)
		got["tcp/"+s.Name()] = goldenEntry{Hash: h, EventsRun: ev}
		h, ev = udpGolden(s)
		got["udp/"+s.Name()] = goldenEntry{Hash: h, EventsRun: ev}
	}
	// The star and a chain with three relays pin the topology builders'
	// routes beyond the 2-hop chain above.
	h, ev := tcpGolden(mac.BA, 0, true)
	got["tcp-star/BA"] = goldenEntry{Hash: h, EventsRun: ev}
	h, ev = tcpGolden(mac.DBA, 4, false)
	got["tcp-4hop/DBA"] = goldenEntry{Hash: h, EventsRun: ev}
	for _, s := range []mac.Scheme{mac.NA, mac.UA, mac.BA} {
		h, ev := meshGolden(core.MeshGrid, s)
		got["mesh-grid/"+s.Name()] = goldenEntry{Hash: h, EventsRun: ev}
		h, ev = meshGolden(core.MeshDisk, s)
		got["mesh-disk/"+s.Name()] = goldenEntry{Hash: h, EventsRun: ev}
	}
	for _, pc := range []struct {
		topo   string
		scheme mac.Scheme
		shards int
	}{
		{core.MeshGrid, mac.BA, 2},
		{core.MeshGrid, mac.BA, 4},
		{core.MeshDisk, mac.UA, 2},
	} {
		h, ev := meshParallelGolden(pc.topo, pc.scheme, pc.shards)
		got[fmt.Sprintf("mesh-par%d-%s/%s", pc.shards, pc.topo, pc.scheme.Name())] = goldenEntry{Hash: h, EventsRun: ev}
	}
	for _, mc := range []struct {
		kind   string
		scheme mac.Scheme
		speed  float64
	}{
		{core.MobilityWaypoint, mac.BA, 2},
		{core.MobilityWaypoint, mac.NA, 1},
		{core.MobilityDrift, mac.UA, 4},
	} {
		h, ev := mobilityGolden(mc.kind, mc.scheme, mc.speed)
		got[fmt.Sprintf("mobility-%s/%s", mc.kind, mc.scheme.Name())] = goldenEntry{Hash: h, EventsRun: ev}
	}
	for _, fg := range []struct {
		kind   string
		scheme mac.Scheme
	}{
		{"crash", mac.NA},
		{"crash", mac.BA},
		{"flap", mac.UA},
		{"flap", mac.BA},
		{"partition", mac.NA},
		{"partition", mac.UA},
	} {
		h, ev := faultGolden(fg.kind, fg.scheme)
		got[fmt.Sprintf("faults-%s/%s", fg.kind, fg.scheme.Name())] = goldenEntry{Hash: h, EventsRun: ev}
	}
	for _, sg := range []struct {
		mode   string
		scheme mac.Scheme
	}{
		{traffic.ModeOpen, mac.BA},
		{traffic.ModeClosed, mac.UA},
		{"faults", mac.BA},
		{"closed-faults", mac.UA},
	} {
		h, ev := scenarioGolden(sg.mode, sg.scheme)
		got[fmt.Sprintf("scenario-%s/%s", sg.mode, sg.scheme.Name())] = goldenEntry{Hash: h, EventsRun: ev}
	}
	return got
}

func TestGoldenDeterminism(t *testing.T) {
	got := runGoldens()

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenPath, len(got))
		return
	}

	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: missing from run", name)
			continue
		}
		if g.EventsRun != w.EventsRun {
			t.Errorf("%s: EventsRun = %d, golden %d (the event sequence changed)",
				name, g.EventsRun, w.EventsRun)
		}
		if g.Hash != w.Hash {
			t.Errorf("%s: output hash %s, golden %s (output is no longer byte-identical)",
				name, g.Hash, w.Hash)
		}
	}
}

// TestGoldenClosedFaultsKillsFlows keeps the closed-faults golden on the
// path it exists for. Faults must kill more flows than there are users:
// a user whose flow died and that never resumed its think cycle could
// lose at most one flow, so the surplus shows killed users coming back.
// Each user runs one flow at a time, so at most one flow per user is
// left in flight at the deadline.
func TestGoldenClosedFaultsKillsFlows(t *testing.T) {
	sc := goldenScenario("closed-faults")
	res := core.RunScenario(core.ScenarioConfig{Scenario: sc, Scheme: mac.UA})
	if res.FlowsKilledByFault <= sc.Traffic.Users {
		t.Fatalf("FlowsKilledByFault = %d, want more than the %d users", res.FlowsKilledByFault, sc.Traffic.Users)
	}
	if res.FlowsAbandoned < 0 || res.FlowsAbandoned > sc.Traffic.Users {
		t.Errorf("FlowsAbandoned = %d, want 0..%d (one live flow per user)", res.FlowsAbandoned, sc.Traffic.Users)
	}
}
