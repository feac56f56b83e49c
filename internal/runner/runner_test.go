package runner

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/mac"
	"aggmac/internal/phy"
	"aggmac/internal/traffic"
)

// smallSweep is a cheap grid used across the tests: 8 TCP runs of the
// paper's file transfer.
func smallSweep() Sweep {
	return Sweep{
		Traffic:  "tcp",
		Schemes:  []mac.Scheme{mac.NA, mac.BA},
		Rates:    []phy.Rate{phy.Rate1300k, phy.Rate2600k},
		Hops:     []int{1, 2},
		BaseSeed: 42,
	}
}

func run(t *testing.T, workers int, specs []Spec) []Result {
	t.Helper()
	pool := Pool{Workers: workers}
	res, err := pool.Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res
}

// TestDeterministicAcrossWorkerCounts is the core contract: the same sweep
// must be bit-identical no matter how many workers execute it.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	specs := smallSweep().Specs()
	base := run(t, 1, specs)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(t, workers, specs)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(base))
		}
		for i := range base {
			if got[i].Key != base[i].Key || got[i].Index != base[i].Index {
				t.Errorf("workers=%d result %d: key %q idx %d, want %q %d",
					workers, i, got[i].Key, got[i].Index, base[i].Key, base[i].Index)
			}
			// Full structural equality of the sim outcome, not just the
			// headline metric (Wall is wall-clock and legitimately varies).
			if !reflect.DeepEqual(got[i].TCP, base[i].TCP) {
				t.Errorf("workers=%d result %d (%s): TCP result differs from 1-worker run",
					workers, i, got[i].Key)
			}
		}
	}
}

// TestResultsIndexedBySpecOrder pins that results land at their spec's
// index even though completion order is arbitrary.
func TestResultsIndexedBySpecOrder(t *testing.T) {
	specs := smallSweep().Specs()
	res := run(t, 4, specs)
	for i, r := range res {
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if r.Key != specs[i].Key {
			t.Errorf("result %d: key %q, want %q", i, r.Key, specs[i].Key)
		}
		if r.TCP == nil {
			t.Errorf("result %d (%s): missing payload", i, r.Key)
		}
	}
}

// TestCancellationMidSweep cancels after the first completion and checks
// that Run reports the context error, returns promptly, and marks the
// unstarted runs rather than fabricating results for them.
func TestCancellationMidSweep(t *testing.T) {
	sw := smallSweep()
	sw.Reps = 8 // 64 runs: plenty left to cancel
	specs := sw.Specs()

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	pool := Pool{Workers: 2, OnResult: func(Progress) { once.Do(cancel) }}

	start := time.Now()
	res, err := pool.Run(ctx, specs)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("cancellation took %v; pool did not stop early", wall)
	}
	if len(res) != len(specs) {
		t.Fatalf("%d results, want %d", len(res), len(specs))
	}
	finished, skipped := 0, 0
	for i, r := range res {
		switch {
		case r.TCP != nil:
			finished++
		case r.Err == context.Canceled:
			skipped++
			if r.Key != specs[i].Key {
				t.Errorf("skipped result %d: key %q, want %q", i, r.Key, specs[i].Key)
			}
		default:
			t.Errorf("result %d (%s): neither finished nor marked cancelled (err=%v)", i, r.Key, r.Err)
		}
	}
	if finished == 0 {
		t.Error("no run finished before cancellation")
	}
	if skipped == 0 {
		t.Error("cancellation skipped nothing; cancel came too late to test anything")
	}
}

func TestMalformedSpecs(t *testing.T) {
	tcp := &core.TCPConfig{Scheme: mac.NA, Rate: phy.Rate1300k, Seed: 1}
	udp := &core.UDPConfig{Scheme: mac.NA, Rate: phy.Rate1300k, Seed: 1, Duration: time.Second}
	mesh := &core.MeshTCPConfig{Scheme: mac.NA, Rate: phy.Rate1300k, Seed: 1}
	specs := []Spec{
		{Key: "both", TCP: tcp, UDP: udp},
		{Key: "neither"},
		{Key: "tcp+mesh", TCP: tcp, Mesh: mesh},
	}
	res := run(t, 2, specs)
	for i, r := range res {
		if r.Err == nil {
			t.Errorf("spec %d (%s): no error for malformed spec", i, r.Key)
		}
	}
}

// TestMeshSpec: a mesh spec runs through the pool and reports its
// aggregate goodput as the headline metric.
func TestMeshSpec(t *testing.T) {
	mesh := &core.MeshTCPConfig{
		Scheme: mac.BA, Rate: phy.Rate2600k,
		Topology: core.MeshGrid, Nodes: 9, Flows: 2,
		FileBytes: 8_000, Seed: 1,
	}
	res := run(t, 1, []Spec{{Key: "mesh", Mesh: mesh}})
	if res[0].Err != nil || res[0].Mesh == nil {
		t.Fatalf("mesh spec failed: %+v", res[0].Err)
	}
	if got := res[0].ThroughputMbps(); got != res[0].Mesh.AggregateMbps || got <= 0 {
		t.Errorf("headline metric %v, aggregate %v", got, res[0].Mesh.AggregateMbps)
	}
}

// TestMeshShardedSpec: the Shards knob rides through the runner into the
// parallel engine, and the result reports which engine ran.
func TestMeshShardedSpec(t *testing.T) {
	mesh := &core.MeshTCPConfig{
		Scheme: mac.BA, Rate: phy.Rate2600k,
		Topology: core.MeshGrid, Nodes: 16, Flows: 2,
		FileBytes: 8_000, Seed: 1, Shards: 2,
	}
	res := run(t, 1, []Spec{{Key: "mesh-par", Mesh: mesh}})
	if res[0].Err != nil || res[0].Mesh == nil {
		t.Fatalf("sharded mesh spec failed: %+v", res[0].Err)
	}
	if res[0].Mesh.Shards != 2 {
		t.Errorf("result ran on %d shards, want 2", res[0].Mesh.Shards)
	}
	if res[0].Mesh.FlowsDone != 2 {
		t.Errorf("flows done = %d, want 2", res[0].Mesh.FlowsDone)
	}
}

// TestScenarioSpec: a scenario spec runs through the pool and reports its
// aggregate goodput as the headline metric.
func TestScenarioSpec(t *testing.T) {
	sc := traffic.Scenario{
		Version:   traffic.SchemaVersion,
		Name:      "runner-test",
		DurationS: 20,
		Schemes:   []string{"ba"},
		Topology:  traffic.Topology{Kind: "grid", Nodes: 16},
		Traffic: traffic.Traffic{
			Mode:        traffic.ModeOpen,
			ArrivalRate: 0.5,
			Mix:         []traffic.WeightedModel{{Model: traffic.Model{Kind: traffic.Bulk, Bytes: 10_000}, Weight: 1}},
		},
	}
	spec := Spec{Key: "scn", Scenario: &core.ScenarioConfig{Scenario: sc, Scheme: mac.BA, Seed: 1}}
	res := run(t, 1, []Spec{spec})
	if res[0].Err != nil || res[0].Scenario == nil {
		t.Fatalf("scenario spec failed: %+v", res[0].Err)
	}
	if got := res[0].ThroughputMbps(); got != res[0].Scenario.AggregateMbps || got <= 0 {
		t.Errorf("headline metric %v, aggregate %v", got, res[0].Scenario.AggregateMbps)
	}
	if res[0].Scenario.FlowsCompleted == 0 {
		t.Error("no flow completed through the pool")
	}
}

// TestInvalidSpecReportsValidateError: an invalid config of any kind fails
// with its Validate reason, not as a panic.
func TestInvalidSpecReportsValidateError(t *testing.T) {
	tcpCfg := &core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Hops: -1, Seed: 1}
	udpCfg := &core.UDPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Hops: 1, TraceFormat: "xml", Seed: 1}
	mesh := &core.MeshTCPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Shards: -1, Seed: 1}
	scn := &core.ScenarioConfig{Scheme: mac.BA, Scenario: traffic.Scenario{Version: traffic.SchemaVersion}}
	pool := Pool{Workers: 1}
	res, err := pool.Run(context.Background(), []Spec{
		{Key: "t", TCP: tcpCfg}, {Key: "u", UDP: udpCfg}, {Key: "m", Mesh: mesh}, {Key: "s", Scenario: scn}})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range []interface{ Validate() error }{tcpCfg, udpCfg, mesh, scn} {
		r := res[i]
		want := `runner: spec "` + r.Key + `": ` + cfg.Validate().Error()
		if r.Err == nil || r.Err.Error() != want {
			t.Errorf("%s: error %v, want %q", r.Key, r.Err, want)
		}
	}
}

// TestPanicIsolated checks a run that panics (invalid PHY rate indexes out
// of the rate table) reports via Result.Err without sinking the sweep.
func TestPanicIsolated(t *testing.T) {
	good := &core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate1300k, Hops: 1, Seed: 1}
	bad := &core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate(99), Hops: 1, Seed: 1}
	res := run(t, 2, []Spec{{Key: "bad", TCP: bad}, {Key: "good", TCP: good}})
	if res[0].Err == nil {
		t.Error("panicking run reported no error")
	}
	if res[0].TCP != nil {
		t.Error("panicking run still carries a result")
	}
	if res[1].Err != nil || res[1].TCP == nil {
		t.Errorf("healthy run poisoned by neighbour: err=%v", res[1].Err)
	}
}

// TestNoRetryDeterministic: a failing run executes exactly once and keeps
// its original message. Runs are pure functions of their spec, so
// executing one again could only reproduce the same error.
func TestNoRetryDeterministic(t *testing.T) {
	execs := 0
	pool := Pool{
		Workers: 1,
		execute: func(i int, s Spec) Result {
			execs++
			return Result{Index: i, Key: s.Key, Err: errors.New("sim panicked: divide by zero")}
		},
	}
	res, err := pool.Run(context.Background(), []Spec{{Key: "cell"}})
	if err != nil {
		t.Fatal(err)
	}
	if execs != 1 {
		t.Errorf("executions = %d, want 1", execs)
	}
	if r := res[0]; r.Err == nil || r.Err.Error() != "sim panicked: divide by zero" {
		t.Errorf("error message not preserved: %v", r.Err)
	}
}

func TestDeriveSeedStable(t *testing.T) {
	if DeriveSeed(1, "a") != DeriveSeed(1, "a") {
		t.Error("DeriveSeed is not a pure function")
	}
	if DeriveSeed(1, "a") == DeriveSeed(1, "b") {
		t.Error("distinct keys produced the same seed")
	}
	if DeriveSeed(1, "a") == DeriveSeed(2, "a") {
		t.Error("distinct base seeds produced the same seed")
	}
	// Golden value: the derivation is part of the reproducibility contract,
	// so a silent change would invalidate recorded sweeps.
	if got := DeriveSeed(1, "tcp/BA/2hop/1.3Mbps/rep0"); got != -1472220571153441843 {
		t.Errorf("DeriveSeed golden value changed: %d", got)
	}
}

func TestSweepSpecsShape(t *testing.T) {
	sw := smallSweep()
	sw.Reps = 3
	specs := sw.Specs()
	if want := sw.Points() * 3; len(specs) != want {
		t.Fatalf("%d specs, want %d", len(specs), want)
	}
	seen := map[string]bool{}
	seeds := map[int64]int{}
	for _, s := range specs {
		if seen[s.Key] {
			t.Errorf("duplicate key %q", s.Key)
		}
		seen[s.Key] = true
		if s.TCP == nil {
			t.Fatalf("spec %q: tcp sweep produced no TCP config", s.Key)
		}
		if s.TCP.Seed != DeriveSeed(sw.BaseSeed, s.Key) {
			t.Errorf("spec %q: seed %d not derived from base seed", s.Key, s.TCP.Seed)
		}
		seeds[s.TCP.Seed]++
	}
	if len(seeds) != len(specs) {
		t.Errorf("seed collisions: %d distinct seeds for %d specs", len(seeds), len(specs))
	}
	// Enumeration order must itself be deterministic.
	again := sw.Specs()
	for i := range specs {
		if specs[i].Key != again[i].Key {
			t.Fatalf("enumeration order unstable at %d: %q vs %q", i, specs[i].Key, again[i].Key)
		}
	}
}

// TestSweepModifierFlags pins that scheme-level ablations and TCP
// extensions reach every generated spec (a silently-dropped modifier
// would yield plausible-looking but wrong sweep data).
func TestSweepModifierFlags(t *testing.T) {
	br := phy.Rate650k
	sw := smallSweep()
	sw.NoForwardAgg = true
	sw.BlockAck = true
	sw.AutoAggSize = true
	sw.FixedBroadcastRate = &br
	for _, s := range sw.Specs() {
		if !s.TCP.Scheme.DisableForwardAggregation {
			t.Errorf("spec %q: NoForwardAgg not applied", s.Key)
		}
		if !s.TCP.BlockAck || !s.TCP.AutoAggSize {
			t.Errorf("spec %q: extensions not applied", s.Key)
		}
		if s.TCP.FixedBroadcastRate == nil || *s.TCP.FixedBroadcastRate != br {
			t.Errorf("spec %q: FixedBroadcastRate not applied", s.Key)
		}
	}
	udp := sw
	udp.Traffic = "udp"
	udp.Duration = time.Second
	for _, s := range udp.Specs() {
		if !s.UDP.Scheme.DisableForwardAggregation {
			t.Errorf("udp spec %q: NoForwardAgg not applied", s.Key)
		}
	}
}

func TestProgressCounts(t *testing.T) {
	specs := smallSweep().Specs()
	var mu sync.Mutex
	var dones []int
	pool := Pool{Workers: 4, OnResult: func(p Progress) {
		mu.Lock()
		dones = append(dones, p.Done)
		if p.Total != len(specs) {
			t.Errorf("progress total %d, want %d", p.Total, len(specs))
		}
		mu.Unlock()
	}}
	if _, err := pool.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if len(dones) != len(specs) {
		t.Fatalf("%d progress callbacks for %d runs", len(dones), len(specs))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("Done sequence not monotone: %v", dones)
		}
	}
}

// TestMobileMeshSpecDeterministicAcrossWorkers: a mobility-enabled mesh
// spec — time-varying links, periodic route recomputation — is still a
// pure function of its config, bit-identical at any worker count.
func TestMobileMeshSpecDeterministicAcrossWorkers(t *testing.T) {
	specs := func() []Spec {
		var out []Spec
		for _, speed := range []float64{1, 4} {
			out = append(out, Spec{
				Key: "mob", Mesh: &core.MeshTCPConfig{
					Scheme: mac.BA, Rate: phy.Rate2600k,
					Topology: core.MeshGrid, Nodes: 16, Flows: 2,
					Mobility: core.MobilityWaypoint, Speed: speed,
					MoveInterval: 500 * time.Millisecond,
					FileBytes:    10_000, Seed: 1,
					Deadline: 600 * time.Second,
				},
			})
		}
		return out
	}
	base := run(t, 1, specs())
	got := run(t, 2, specs())
	for i := range base {
		if base[i].Err != nil || got[i].Err != nil {
			t.Fatalf("run %d failed: %v / %v", i, base[i].Err, got[i].Err)
		}
		if !reflect.DeepEqual(base[i].Mesh, got[i].Mesh) {
			t.Errorf("run %d: mobile mesh result differs between 1 and 2 workers", i)
		}
		if base[i].Mesh.RouteRecomputes == 0 {
			t.Errorf("run %d: mobility never ticked", i)
		}
	}
}
