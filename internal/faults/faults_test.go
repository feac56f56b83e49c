package faults

import (
	"testing"
	"time"

	"aggmac/internal/mac"
	"aggmac/internal/phy"
	"aggmac/internal/topology"
)

func testMesh(seed int64) *topology.Mesh {
	return topology.NewGrid(4, topology.MeshConfig{Config: topology.Config{
		Seed: seed,
		Phy:  phy.DefaultParams(),
		OptsFor: func(i, n int) mac.Options {
			return mac.DefaultOptions(mac.BA, phy.Rate1300k)
		},
	}})
}

func allFaults() Config {
	return Config{
		CrashMTBF: 5 * time.Second, CrashMTTR: 2 * time.Second,
		FlapMTBF: 3 * time.Second, FlapMTTR: time.Second,
		SNRBurstMTBF: 4 * time.Second, SNRBurstMTTR: time.Second, SNRBurstDB: 12,
		Partitions: []Partition{
			{Start: 10 * time.Second, Duration: 5 * time.Second, Axis: AxisX, At: 1.5},
		},
	}
}

// snapshot captures the externally observable fault state.
type snapshot struct {
	nodeDown []bool
	linkUp   map[[2]int]bool
	penalty  map[[2]int]float64
	avail    float64
}

func snap(s *Set, m *topology.Mesh, end time.Duration) snapshot {
	n := len(m.Nodes)
	sn := snapshot{
		nodeDown: make([]bool, n),
		linkUp:   make(map[[2]int]bool),
		penalty:  make(map[[2]int]float64),
		avail:    s.Availability(end),
	}
	for i := 0; i < n; i++ {
		sn.nodeDown[i] = s.NodeDown(i)
		for j := i + 1; j < n; j++ {
			sn.linkUp[[2]int{i, j}] = s.LinkUp(i, j)
			sn.penalty[[2]int{i, j}] = s.SNRPenaltyDB(i, j)
		}
	}
	return sn
}

func (a snapshot) equal(b snapshot) bool {
	for i := range a.nodeDown {
		if a.nodeDown[i] != b.nodeDown[i] {
			return false
		}
	}
	for k, v := range a.linkUp {
		if b.linkUp[k] != v {
			return false
		}
	}
	for k, v := range a.penalty {
		if b.penalty[k] != v {
			return false
		}
	}
	return a.avail == b.avail
}

// TestDeterminism: same (config, seed) replays the exact failure schedule;
// a different seed produces a different one.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) ([]Delta, snapshot) {
		m := testMesh(1)
		s := New(allFaults(), m, seed)
		var deltas []Delta
		for tick := 1; tick <= 30; tick++ {
			d := s.Step(time.Duration(tick) * time.Second)
			// Copy the reused slices before retaining.
			d.Crashed = append([]int(nil), d.Crashed...)
			d.Recovered = append([]int(nil), d.Recovered...)
			deltas = append(deltas, d)
		}
		return deltas, snap(s, m, 30*time.Second)
	}
	d1, s1 := run(7)
	d2, s2 := run(7)
	if !s1.equal(s2) {
		t.Fatal("same seed produced different final state")
	}
	for i := range d1 {
		if len(d1[i].Crashed) != len(d2[i].Crashed) ||
			d1[i].FlapsDown != d2[i].FlapsDown ||
			d1[i].BurstsStarted != d2[i].BurstsStarted {
			t.Fatalf("same seed diverged at tick %d: %+v vs %+v", i, d1[i], d2[i])
		}
	}
	_, s3 := run(8)
	if s1.equal(s3) {
		t.Error("different seeds produced identical fault state (suspicious)")
	}
}

// TestTickSizeInvariance: the fault state at time T does not depend on how
// the dynamics tick partitioned [0, T].
func TestTickSizeInvariance(t *testing.T) {
	const horizon = 60 * time.Second
	mF := testMesh(1)
	fine := New(allFaults(), mF, 42)
	for now := 100 * time.Millisecond; now <= horizon; now += 100 * time.Millisecond {
		fine.Step(now)
	}
	mC := testMesh(1)
	coarse := New(allFaults(), mC, 42)
	for now := 7 * time.Second; now < horizon; now += 7 * time.Second {
		coarse.Step(now)
	}
	coarse.Step(horizon)
	sf, sc := snap(fine, mF, horizon), snap(coarse, mC, horizon)
	for i := range sf.nodeDown {
		if sf.nodeDown[i] != sc.nodeDown[i] {
			t.Errorf("node %d: fine down=%v coarse down=%v", i, sf.nodeDown[i], sc.nodeDown[i])
		}
	}
	for k, v := range sf.linkUp {
		if sc.linkUp[k] != v {
			t.Errorf("link %v: fine up=%v coarse up=%v", k, v, sc.linkUp[k])
		}
	}
	for k, v := range sf.penalty {
		if sc.penalty[k] != v {
			t.Errorf("link %v: fine penalty=%v coarse penalty=%v", k, v, sc.penalty[k])
		}
	}
}

// TestStreamDecoupling: enabling one fault class does not perturb another's
// schedule.
func TestStreamDecoupling(t *testing.T) {
	crashOnly := Config{CrashMTBF: 5 * time.Second, CrashMTTR: 2 * time.Second}
	both := crashOnly
	both.FlapMTBF, both.FlapMTTR = 3*time.Second, time.Second

	m1, m2 := testMesh(1), testMesh(1)
	a, b := New(crashOnly, m1, 9), New(both, m2, 9)
	for tick := 1; tick <= 40; tick++ {
		now := time.Duration(tick) * time.Second
		a.Step(now)
		b.Step(now)
		for i := range m1.Nodes {
			if a.NodeDown(i) != b.NodeDown(i) {
				t.Fatalf("tick %d node %d: crash schedule perturbed by enabling flaps", tick, i)
			}
		}
	}
}

// TestPartitionWindow: the partition cuts exactly the crossing links inside
// its window, heals after it, and heal latency records the tick lag.
func TestPartitionWindow(t *testing.T) {
	m := testMesh(1)
	cfg := Config{Partitions: []Partition{
		{Start: 5 * time.Second, Duration: 4 * time.Second, Axis: AxisX, At: 1.5},
	}}
	s := New(cfg, m, 1)

	d := s.Step(4 * time.Second)
	if d.PartitionsStarted != 0 || !s.LinkUp(1, 2) {
		t.Fatalf("partition active before its window: %+v", d)
	}
	d = s.Step(5 * time.Second)
	if d.PartitionsStarted != 1 {
		t.Fatalf("partition did not start at its window: %+v", d)
	}
	// Grid columns 0..3 at x=0..3: the cut at x=1.5 separates columns 1|2.
	if s.LinkUp(1, 2) {
		t.Error("crossing link up during partition")
	}
	if !s.LinkUp(0, 1) || !s.LinkUp(2, 3) {
		t.Error("non-crossing link cut by partition")
	}
	// The next tick lands 2 s past the scheduled end: heal latency is 2 s.
	d = s.Step(11 * time.Second)
	if d.PartitionsHealed != 1 || d.HealLatency != 2*time.Second {
		t.Fatalf("heal: %+v, want 1 healed with 2s latency", d)
	}
	if !s.LinkUp(1, 2) {
		t.Error("crossing link still down after heal")
	}
}

// TestAvailabilityIntegral: availability integrates the observed down state
// over node-time, extrapolating from the last Step.
func TestAvailabilityIntegral(t *testing.T) {
	m := testMesh(1)
	s := New(Config{CrashMTBF: time.Hour, CrashMTTR: time.Hour}, m, 1)
	n := len(m.Nodes)

	if got := s.Availability(10 * time.Second); got != 1 {
		t.Fatalf("availability with no observed crash = %v, want 1", got)
	}
	// Force one node down through the internal state (the renewal streams
	// with hour-long means will not fire in a short window).
	s.Step(10 * time.Second)
	s.nodeDown[3] = true
	s.downCount++
	// Extrapolation before the next Step: the forced down state is assumed
	// to persist from the last observation (t=10 s) to end.
	want := 1 - 10.0/(20.0*float64(n))
	if got := s.Availability(20 * time.Second); !close(got, want) {
		t.Errorf("extrapolated availability = %v, want %v", got, want)
	}
	// The next Step first integrates the 10 s of down time, then samples the
	// renewal (up at hour-long means), observing the recovery.
	d := s.Step(20 * time.Second)
	if len(d.Recovered) != 1 || d.Recovered[0] != 3 {
		t.Fatalf("forced-down node not recovered on sample: %+v", d)
	}
	want = 1 - 10.0/(30.0*float64(n))
	if got := s.Availability(30 * time.Second); !close(got, want) {
		t.Errorf("post-recovery availability = %v, want %v", got, want)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

// TestLinkUpSymmetry: LinkUp and SNRPenaltyDB are symmetric in (a, b).
func TestLinkUpSymmetry(t *testing.T) {
	m := testMesh(1)
	s := New(allFaults(), m, 3)
	for tick := 1; tick <= 20; tick++ {
		s.Step(time.Duration(tick) * time.Second)
		for a := 0; a < len(m.Nodes); a++ {
			for b := a + 1; b < len(m.Nodes); b++ {
				if s.LinkUp(a, b) != s.LinkUp(b, a) {
					t.Fatalf("tick %d: LinkUp(%d,%d) != LinkUp(%d,%d)", tick, a, b, b, a)
				}
				if s.SNRPenaltyDB(a, b) != s.SNRPenaltyDB(b, a) {
					t.Fatalf("tick %d: SNRPenaltyDB asymmetric for (%d,%d)", tick, a, b)
				}
			}
		}
	}
}

// TestCrashRecoverCycle: with short MTBF/MTTR a long run observes both
// crashes and recoveries, down states match the deltas, and every managed
// link of a down node reports down.
func TestCrashRecoverCycle(t *testing.T) {
	m := testMesh(1)
	s := New(Config{CrashMTBF: 3 * time.Second, CrashMTTR: 2 * time.Second}, m, 5)
	crashes, recoveries := 0, 0
	down := make(map[int]bool)
	for tick := 1; tick <= 120; tick++ {
		d := s.Step(time.Duration(tick) * time.Second)
		for _, i := range d.Crashed {
			if down[i] {
				t.Fatalf("tick %d: node %d crashed while already down", tick, i)
			}
			down[i] = true
			crashes++
		}
		for _, i := range d.Recovered {
			if !down[i] {
				t.Fatalf("tick %d: node %d recovered while already up", tick, i)
			}
			down[i] = false
			recoveries++
		}
		for i := range m.Nodes {
			if s.NodeDown(i) != down[i] {
				t.Fatalf("tick %d: NodeDown(%d)=%v, delta replay says %v", tick, i, s.NodeDown(i), down[i])
			}
			if down[i] && s.LinkUp(i, (i+1)%len(m.Nodes)) {
				t.Fatalf("tick %d: link of down node %d reports up", tick, i)
			}
		}
	}
	if crashes == 0 || recoveries == 0 {
		t.Fatalf("120 s at MTBF 3s saw %d crashes, %d recoveries", crashes, recoveries)
	}
	if avail := s.Availability(120 * time.Second); avail <= 0 || avail >= 1 {
		t.Errorf("availability %v outside (0, 1) despite observed churn", avail)
	}
}

// TestValidate: the rejection surface.
func TestValidate(t *testing.T) {
	bad := []Config{
		{CrashMTBF: time.Microsecond},
		{CrashMTBF: time.Second, CrashMTTR: time.Microsecond},
		{FlapMTBF: 500 * time.Microsecond},
		{SNRBurstMTBF: time.Second, SNRBurstMTTR: time.Microsecond},
		{SNRBurstMTBF: 5 * time.Second, SNRBurstDB: -20},
		{Partitions: []Partition{{Start: 0, Duration: time.Second, Axis: "z"}}},
		{Partitions: []Partition{{Start: -time.Second, Duration: time.Second}}},
		{Partitions: []Partition{{Start: time.Second, Duration: 0}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v) validated", i, c)
		}
	}
	good := allFaults()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Normalize defaults MTTRs and the partition axis.
	c := Config{CrashMTBF: time.Minute, Partitions: []Partition{{Duration: time.Second}}}
	if err := c.Validate(); err != nil {
		t.Fatalf("defaulted config rejected: %v", err)
	}
	if c.CrashMTTR != 10*time.Second || c.Partitions[0].Axis != AxisX {
		t.Errorf("Normalize defaults wrong: MTTR=%v axis=%q", c.CrashMTTR, c.Partitions[0].Axis)
	}
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config reports enabled")
	}
}
