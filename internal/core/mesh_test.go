package core

import (
	"reflect"
	"testing"
	"time"

	"aggmac/internal/mac"
	"aggmac/internal/phy"
)

func quickMeshCfg() MeshTCPConfig {
	return MeshTCPConfig{
		Scheme: mac.BA, Rate: phy.Rate2600k,
		Topology: MeshGrid, Nodes: 9, Flows: 2,
		FileBytes: 10_000, Seed: 1,
		Deadline: 600 * time.Second,
	}
}

func TestRunMeshTCPGrid(t *testing.T) {
	res := RunMeshTCP(quickMeshCfg())
	if res.NodeCount != 9 {
		t.Fatalf("grid built %d nodes, want 9", res.NodeCount)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("planned %d flows, want 2", len(res.Flows))
	}
	if !res.Completed || res.FlowsDone != 2 {
		t.Fatalf("flows incomplete: %+v", res.Flows)
	}
	if res.AggregateMbps <= 0 || res.MinMbps <= 0 {
		t.Fatalf("no goodput: agg=%v min=%v", res.AggregateMbps, res.MinMbps)
	}
	for _, f := range res.Flows {
		if f.Hops < 2 {
			t.Errorf("flow %d->%d has %d hops, want >= MinHops(2)", f.Server, f.Client, f.Hops)
		}
	}
	// Someone must have forwarded: these are multi-hop flows.
	relays := 0
	for _, n := range res.Nodes {
		if n.Role == "relay" {
			relays++
		}
	}
	if relays == 0 {
		t.Error("no relay nodes in a multi-hop mesh run")
	}
}

func TestRunMeshTCPDeterministic(t *testing.T) {
	a := RunMeshTCP(quickMeshCfg())
	b := RunMeshTCP(quickMeshCfg())
	if a.EventsRun != b.EventsRun {
		t.Fatalf("EventsRun diverged: %d vs %d", a.EventsRun, b.EventsRun)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical configs produced different results")
	}
}

func TestRunMeshTCPChainsWithCrossTraffic(t *testing.T) {
	res := RunMeshTCP(MeshTCPConfig{
		Scheme: mac.UA, Rate: phy.Rate2600k,
		Topology: MeshChains, Chains: 3, ChainHops: 3, CrossFlows: 1,
		FileBytes: 8_000, Seed: 2,
		Deadline: 600 * time.Second,
	})
	if res.NodeCount != 12 {
		t.Fatalf("chains built %d nodes, want 12", res.NodeCount)
	}
	if len(res.Flows) != 4 { // 3 per-chain + 1 cross
		t.Fatalf("planned %d flows, want 4", len(res.Flows))
	}
	cross := res.Flows[3]
	if cross.Hops != 2 {
		t.Errorf("cross flow spans %d hops, want 2 (3 chains)", cross.Hops)
	}
	if !res.Completed {
		t.Fatalf("chains run incomplete: %+v", res.Flows)
	}
}

func TestRunMeshTCPDisk(t *testing.T) {
	res := RunMeshTCP(MeshTCPConfig{
		Scheme: mac.NA, Rate: phy.Rate2600k,
		Topology: MeshDisk, Nodes: 16, Flows: 2,
		FileBytes: 6_000, Seed: 3,
		Deadline: 600 * time.Second,
	})
	if res.NodeCount != 16 {
		t.Fatalf("disk built %d nodes, want 16", res.NodeCount)
	}
	if len(res.Flows) != 2 || !res.Completed {
		t.Fatalf("disk run incomplete: %+v", res.Flows)
	}
}

func quickMobilityCfg() MeshTCPConfig {
	cfg := quickMeshCfg()
	cfg.Nodes = 16
	cfg.Mobility = MobilityWaypoint
	cfg.Speed = 3
	cfg.Pause = time.Second
	cfg.MoveInterval = 500 * time.Millisecond
	return cfg
}

// A mobile run is a pure function of its config: same seed, same events,
// same goodput bits, same churn counters.
func TestRunMeshTCPMobilityDeterministic(t *testing.T) {
	a := RunMeshTCP(quickMobilityCfg())
	b := RunMeshTCP(quickMobilityCfg())
	if a.EventsRun != b.EventsRun {
		t.Fatalf("EventsRun diverged: %d vs %d", a.EventsRun, b.EventsRun)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical mobile configs produced different results")
	}
}

// Mobility must actually churn the topology and the routing tables, and
// the counters must report it; a static run must report all zeros.
func TestRunMeshTCPMobilityCounters(t *testing.T) {
	res := RunMeshTCP(quickMobilityCfg())
	if res.RouteRecomputes == 0 {
		t.Fatal("no route recomputes on a mobile run")
	}
	if res.LinkUps+res.LinkDowns == 0 {
		t.Error("no link churn at speed 3 with 500 ms updates")
	}
	if res.RouteFlaps == 0 {
		t.Error("no route flaps despite link churn")
	}

	static := RunMeshTCP(quickMeshCfg())
	if static.LinkUps != 0 || static.LinkDowns != 0 || static.RouteFlaps != 0 || static.RouteRecomputes != 0 {
		t.Errorf("static run reported churn: %+v %+v %+v %+v",
			static.LinkUps, static.LinkDowns, static.RouteFlaps, static.RouteRecomputes)
	}
}

// Drift is the other model; it must run end to end too.
func TestRunMeshTCPMobilityDrift(t *testing.T) {
	cfg := quickMobilityCfg()
	cfg.Mobility = MobilityDrift
	res := RunMeshTCP(cfg)
	if res.RouteRecomputes == 0 {
		t.Fatal("drift run scheduled no mobility ticks")
	}
}

func TestRunMeshTCPMobilityUnknownModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mobility model did not panic")
		}
	}()
	cfg := quickMeshCfg()
	cfg.Mobility = "teleport"
	RunMeshTCP(cfg)
}
