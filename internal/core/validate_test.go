package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"aggmac/internal/faults"
	"aggmac/internal/mac"
	"aggmac/internal/phy"
	"aggmac/internal/traffic"
)

// TestValidate covers every config rule: each case is a valid base config
// with one change, and want is a fragment of the expected error ("" for a
// config that must pass).
func TestValidate(t *testing.T) {
	mesh := func(mutate func(*MeshTCPConfig)) *MeshTCPConfig {
		cfg := quickMeshCfg()
		mutate(&cfg)
		return &cfg
	}
	scn := func(mutate func(*ScenarioConfig)) *ScenarioConfig {
		cfg := ScenarioConfig{Scenario: testScenario(traffic.ModeOpen), Scheme: mac.BA}
		mutate(&cfg)
		return &cfg
	}
	crash := &faults.Config{CrashMTBF: 20 * time.Second}
	cases := []struct {
		name string
		cfg  interface{ Validate() error }
		want string
	}{
		{"mesh default", mesh(func(c *MeshTCPConfig) {}), ""},
		{"mesh empty topology", mesh(func(c *MeshTCPConfig) { c.Topology = "" }), ""},
		{"mesh chains", mesh(func(c *MeshTCPConfig) { c.Topology = MeshChains }), ""},
		{"mesh mobility", mesh(func(c *MeshTCPConfig) { c.Mobility = MobilityDrift }), ""},
		{"mesh faults", mesh(func(c *MeshTCPConfig) { c.Faults = crash }), ""},
		{"mesh faults off", mesh(func(c *MeshTCPConfig) { c.Faults = &faults.Config{}; c.Shards = 2 }), ""},
		{"mesh jsonl trace", mesh(func(c *MeshTCPConfig) { c.TraceFormat = TraceJSONL }), ""},
		{"mesh max shards", mesh(func(c *MeshTCPConfig) { c.Shards = MaxShards }), ""},

		{"unknown topology", mesh(func(c *MeshTCPConfig) { c.Topology = "ring" }), `unknown mesh topology "ring"`},
		{"unknown mobility", mesh(func(c *MeshTCPConfig) { c.Mobility = "teleport" }), `unknown mobility model "teleport"`},
		{"unknown trace format", mesh(func(c *MeshTCPConfig) { c.TraceFormat = "xml" }), `unknown trace format "xml"`},
		{"negative fault mean", mesh(func(c *MeshTCPConfig) {
			c.Faults = &faults.Config{CrashMTBF: -5 * time.Second}
		}), "crash MTBF"},
		{"negative SNR burst penalty", mesh(func(c *MeshTCPConfig) {
			c.Faults = &faults.Config{SNRBurstMTBF: 5 * time.Second, SNRBurstDB: -20}
		}), "SNR burst penalty -20 dB is negative"},
		{"bad partition axis", mesh(func(c *MeshTCPConfig) {
			c.Faults = &faults.Config{Partitions: []faults.Partition{{Duration: time.Second, Axis: "z"}}}
		}), `axis "z"`},
		{"negative shards", mesh(func(c *MeshTCPConfig) { c.Shards = -1 }), "Shards must be in 0..64, got -1"},
		{"too many shards", mesh(func(c *MeshTCPConfig) { c.Shards = MaxShards + 1 }), "Shards must be in 0..64, got 65"},
		{"shards with mobility", mesh(func(c *MeshTCPConfig) { c.Shards = 2; c.Mobility = MobilityWaypoint }), "static topologies only"},
		{"shards with faults", mesh(func(c *MeshTCPConfig) { c.Shards = 2; c.Faults = crash }), "sequential engine"},
		{"shards with trace", mesh(func(c *MeshTCPConfig) { c.Shards = 2; c.TraceTo = &strings.Builder{} }), "channel tracing is unsupported"},
		{"mesh negative nodes", mesh(func(c *MeshTCPConfig) { c.Nodes = -4 }), "Nodes must be >= 0, got -4"},
		{"mesh negative flows", mesh(func(c *MeshTCPConfig) { c.Flows = -1 }), "Flows must be >= 0, got -1"},
		{"mesh negative min hops", mesh(func(c *MeshTCPConfig) { c.MinHops = -1 }), "MinHops must be >= 0, got -1"},
		{"grid min hops reachable", mesh(func(c *MeshTCPConfig) { c.Topology = MeshGrid; c.Nodes = 10; c.MinHops = 8 }), ""},
		{"grid min hops beyond nodes", mesh(func(c *MeshTCPConfig) { c.Topology = MeshGrid; c.Nodes = 10; c.MinHops = 9 }),
			"MinHops must be < the 9 nodes of the grid, got 9"},
		{"disk min hops beyond nodes", mesh(func(c *MeshTCPConfig) { c.Topology = MeshDisk; c.Nodes = 6; c.MinHops = 50 }),
			"MinHops must be < the 6 nodes of the disk, got 50"},
		{"disk default min hops on two nodes", mesh(func(c *MeshTCPConfig) { c.Topology = MeshDisk; c.Nodes = 2 }),
			"MinHops must be < the 2 nodes of the disk, got 2"},
		{"chains ignore min hops", mesh(func(c *MeshTCPConfig) { c.Topology = MeshChains; c.MinHops = 50 }), ""},
		{"mesh negative file", mesh(func(c *MeshTCPConfig) { c.FileBytes = -5 }), "FileBytes must be >= 0, got -5"},
		{"mesh negative speed", mesh(func(c *MeshTCPConfig) { c.Mobility = MobilityWaypoint; c.Speed = -3 }), "Speed must be >= 0, got -3"},
		{"mesh bad rate", mesh(func(c *MeshTCPConfig) { c.Rate = phy.Rate(99) }), "unknown PHY rate Rate(99)"},
		{"mesh negative agg", mesh(func(c *MeshTCPConfig) { c.MaxAggBytes = -5 }), "MaxAggBytes must be >= 0, got -5"},

		{"scenario default", scn(func(c *ScenarioConfig) {}), ""},
		{"scenario closed", scn(func(c *ScenarioConfig) { c.Scenario.Traffic.Mode = traffic.ModeClosed }), ""},
		{"scenario faults", scn(func(c *ScenarioConfig) { c.Scenario.Faults = &traffic.Faults{CrashMTBFS: 20, CrashMTTRS: 5} }), ""},
		{"scenario invalid", scn(func(c *ScenarioConfig) { c.Scenario.Traffic.Mode = "bogus" }), `unknown traffic mode "bogus"`},
		{"scenario v1 faults", scn(func(c *ScenarioConfig) {
			c.Scenario.Version = 1
			c.Scenario.Faults = &traffic.Faults{CrashMTBFS: 20}
		}), "faults section needs schema version >= 2"},
		{"scenario bad mix", scn(func(c *ScenarioConfig) { c.Scenario.Traffic.Mix[0].Weight = -1 }), "weight"},
		{"scenario negative agg", scn(func(c *ScenarioConfig) { c.Scenario.MaxAggBytes = -5 }), "max_agg_bytes must be >= 0, got -5"},
		{"scenario bad rate", scn(func(c *ScenarioConfig) { c.Scenario.RateMbps = 9.9 }), `scenario "engine-test"`},
		{"scenario trace format", scn(func(c *ScenarioConfig) { c.TraceFormat = "xml" }), `unknown trace format "xml"`},

		{"tcp chain", &TCPConfig{Hops: 2, TraceFormat: TraceJSONL}, ""},
		{"tcp star", &TCPConfig{Star: true}, ""},
		{"tcp negative hops", &TCPConfig{Hops: -1}, "Hops must be >= 0, got -1"},
		{"tcp trace format", &TCPConfig{Hops: 2, TraceFormat: "xml"}, `unknown trace format "xml"`},
		{"tcp bad rate", &TCPConfig{Hops: 2, Rate: phy.Rate(99)}, "unknown PHY rate Rate(99)"},
		{"tcp negative rate", &TCPConfig{Hops: 2, Rate: phy.Rate(-1)}, "unknown PHY rate Rate(-1)"},
		{"tcp negative file", &TCPConfig{Hops: 2, FileBytes: -5}, "FileBytes must be >= 0, got -5"},
		{"tcp negative agg", &TCPConfig{Hops: 1, MaxAggBytes: -5}, "MaxAggBytes must be >= 0, got -5"},
		{"udp default hops", &UDPConfig{}, ""},
		{"udp negative hops", &UDPConfig{Hops: -3}, "Hops must be >= 0, got -3"},
		{"udp trace format", &UDPConfig{Hops: 1, TraceFormat: "xml"}, `unknown trace format "xml"`},
		{"udp bad rate", &UDPConfig{Hops: 1, Rate: phy.Rate(99)}, "unknown PHY rate Rate(99)"},
		{"udp negative agg", &UDPConfig{Hops: 1, MaxAggBytes: -5}, "MaxAggBytes must be >= 0, got -5"},
		{"udp negative burst", &UDPConfig{Burst: -1}, "Burst must be >= 0, got -1"},
		{"udp negative interval", &UDPConfig{Interval: -time.Second}, "Interval must be >= 0, got -1s"},
		{"udp negative flood interval", &UDPConfig{FloodInterval: -time.Second}, "FloodInterval must be >= 0, got -1s"},
		{"udp negative duration", &UDPConfig{Duration: -time.Second}, "Duration must be >= 0, got -1s"},
		{"udp negative warmup", &UDPConfig{Warmup: -time.Second}, "Warmup must be >= 0, got -1s"},
		{"udp duration past default warmup", &UDPConfig{Duration: 3 * time.Second}, ""},
		{"udp duration within default warmup", &UDPConfig{Hops: 1, Duration: 2 * time.Second}, "Duration 2s must be longer than Warmup 2s"},
		{"udp warmup past default duration", &UDPConfig{Warmup: 90 * time.Second}, "Duration 1m0s must be longer than Warmup 1m30s"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted, want an error containing %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q, want it to contain %q", c.name, err, c.want)
		}
	}
}

// Validate checks normalized copies: the fault config and the scenario a
// caller passes in come back unchanged (results-store ids hash them, and
// pool workers share them).
func TestValidateLeavesConfigUnchanged(t *testing.T) {
	mesh := quickMeshCfg()
	mesh.Faults = &faults.Config{CrashMTBF: 20 * time.Second,
		Partitions: []faults.Partition{{Duration: time.Second}}}
	if err := mesh.Validate(); err != nil {
		t.Fatal(err)
	}
	if mesh.Faults.CrashMTTR != 0 || mesh.Faults.Partitions[0].Axis != "" {
		t.Errorf("Validate normalized the caller's fault config: %+v", *mesh.Faults)
	}

	sc := testScenario(traffic.ModeOpen)
	sc.Mobility = &traffic.Mobility{Model: MobilityWaypoint}
	sc.DeadlineS = 0
	cfg := ScenarioConfig{Scenario: sc.Clone(), Scheme: mac.BA}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.Scenario, sc) {
		t.Errorf("Validate normalized the caller's scenario:\n got %+v\nwant %+v", cfg.Scenario, sc)
	}
}

// The Run entry points keep their signatures and panic with the Validate
// error.
func TestRunPanicsWithValidateError(t *testing.T) {
	expect := func(name string, want error, run func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if err, ok := r.(error); !ok || err.Error() != want.Error() {
				t.Errorf("%s: panic %v, want the Validate error %q", name, r, want)
			}
		}()
		run()
	}
	mesh := quickMeshCfg()
	mesh.Shards = -1
	expect("RunMeshTCP", mesh.Validate(), func() { RunMeshTCP(mesh) })

	scn := ScenarioConfig{Scenario: testScenario(traffic.ModeOpen), Scheme: mac.BA}
	scn.Scenario.Traffic.Mode = "bogus"
	expect("RunScenario", scn.Validate(), func() { RunScenario(scn) })

	tcpCfg := TCPConfig{Scheme: mac.BA, Hops: -1}
	expect("RunTCP", tcpCfg.Validate(), func() { RunTCP(tcpCfg) })
	tcpCfg = TCPConfig{Scheme: mac.BA, Hops: 2, Rate: phy.Rate(99)}
	expect("RunTCP rate", tcpCfg.Validate(), func() { RunTCP(tcpCfg) })
	udpCfg := UDPConfig{Scheme: mac.BA, Hops: 1, TraceFormat: "xml"}
	expect("RunUDP", udpCfg.Validate(), func() { RunUDP(udpCfg) })
	udpCfg = UDPConfig{Scheme: mac.BA, Hops: 1, Rate: phy.Rate(99)}
	expect("RunUDP rate", udpCfg.Validate(), func() { RunUDP(udpCfg) })
}
