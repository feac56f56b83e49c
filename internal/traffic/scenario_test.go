package traffic

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const goodScenario = `{
  "version": 1,
  "name": "test-open",
  "seed": 7,
  "duration_s": 30,
  "schemes": ["na", "ba"],
  "topology": {"kind": "grid", "nodes": 16},
  "traffic": {
    "mode": "open",
    "arrival_rate": 0.5,
    "mix": [
      {"model": {"kind": "pareto", "bytes": 20000}, "weight": 3},
      {"model": {"kind": "bulk", "bytes": 100000}, "weight": 1}
    ]
  }
}`

func TestParseGoodScenario(t *testing.T) {
	s, err := Parse(strings.NewReader(goodScenario))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "test-open" || s.Seed != 7 || len(s.Schemes) != 2 {
		t.Errorf("fields not decoded: %+v", s)
	}
	// Defaults resolved by Normalize.
	if s.DeadlineS != 60 {
		t.Errorf("deadline default = %g, want 2×duration = 60", s.DeadlineS)
	}
	if s.RateMbps != 2.6 || s.MaxAggBytes != 5120 {
		t.Errorf("rate/agg defaults wrong: %g / %d", s.RateMbps, s.MaxAggBytes)
	}
	if s.Traffic.MinHops != 2 || s.Traffic.MaxFlows != MaxFlowsLimit {
		t.Errorf("traffic defaults wrong: %+v", s.Traffic)
	}
	if s.Traffic.Mix[0].Model.Shape != 1.5 {
		t.Errorf("mix model defaults not resolved: %+v", s.Traffic.Mix[0].Model)
	}
	if s.Duration().Seconds() != 30 || s.Deadline().Seconds() != 60 {
		t.Errorf("duration helpers wrong: %v / %v", s.Duration(), s.Deadline())
	}
}

// mutate parses the good scenario, applies f, and returns Validate's error.
func mutate(t *testing.T, f func(*Scenario)) error {
	t.Helper()
	s, err := Parse(strings.NewReader(goodScenario))
	if err != nil {
		t.Fatal(err)
	}
	f(&s)
	return s.Validate()
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Scenario)
	}{
		{"future version", func(s *Scenario) { s.Version = SchemaVersion + 1 }},
		{"zero version", func(s *Scenario) { s.Version = 0 }},
		{"no duration", func(s *Scenario) { s.DurationS = 0 }},
		{"deadline before duration", func(s *Scenario) { s.DeadlineS = 10 }},
		{"no schemes", func(s *Scenario) { s.Schemes = nil }},
		{"bad scheme", func(s *Scenario) { s.Schemes = []string{"xa"} }},
		{"negative aggregation cap", func(s *Scenario) { s.MaxAggBytes = -5 }},
		{"bad topology", func(s *Scenario) { s.Topology.Kind = "torus" }},
		{"tiny topology", func(s *Scenario) { s.Topology.Nodes = 2 }},
		{"bad mobility", func(s *Scenario) { s.Mobility = &Mobility{Model: "teleport"} }},
		{"open without rate", func(s *Scenario) { s.Traffic.ArrivalRate = 0 }},
		{"bad mode", func(s *Scenario) { s.Traffic.Mode = "ajar" }},
		{"closed without users", func(s *Scenario) { s.Traffic.Mode = ModeClosed; s.Traffic.Users = 0 }},
		{"empty mix", func(s *Scenario) { s.Traffic.Mix = nil }},
		{"bad mix model", func(s *Scenario) { s.Traffic.Mix[0].Model.Kind = "warp" }},
		{"max_flows over engine limit", func(s *Scenario) { s.Traffic.MaxFlows = MaxFlowsLimit + 1 }},
		{"faults on v1", func(s *Scenario) { s.Faults = &Faults{CrashMTBFS: 10} }},
		{"crash mtbf below minimum", func(s *Scenario) { s.Version = 2; s.Faults = &Faults{CrashMTBFS: 0.0001} }},
		{"flap mttr below minimum", func(s *Scenario) {
			s.Version = 2
			s.Faults = &Faults{FlapMTBFS: 10, FlapMTTRS: 0.0001}
		}},
		{"negative snr penalty", func(s *Scenario) {
			s.Version = 2
			s.Faults = &Faults{SNRBurstMTBFS: 10, SNRBurstDB: -1}
		}},
		{"bad partition axis", func(s *Scenario) {
			s.Version = 2
			s.Faults = &Faults{Partitions: []PartitionSpec{{StartS: 1, DurationS: 1, Axis: "z"}}}
		}},
		{"zero-duration partition", func(s *Scenario) {
			s.Version = 2
			s.Faults = &Faults{Partitions: []PartitionSpec{{StartS: 1}}}
		}},
		{"negative partition start", func(s *Scenario) {
			s.Version = 2
			s.Faults = &Faults{Partitions: []PartitionSpec{{StartS: -1, DurationS: 1}}}
		}},
	}
	for _, c := range cases {
		if err := mutate(t, c.f); err == nil {
			t.Errorf("%s: expected a validation error", c.name)
		}
	}
	// Valid tweaks must keep validating.
	if err := mutate(t, func(s *Scenario) { s.Mobility = &Mobility{Model: "waypoint", Speed: 2} }); err != nil {
		t.Errorf("waypoint mobility rejected: %v", err)
	}
	if err := mutate(t, func(s *Scenario) {
		s.Traffic.Mode = ModeClosed
		s.Traffic.Users = 4
	}); err != nil {
		t.Errorf("closed mode rejected: %v", err)
	}
	if err := mutate(t, func(s *Scenario) { s.Topology = Topology{Kind: "chains"} }); err != nil {
		t.Errorf("chains topology rejected: %v", err)
	}
	// Scheme names validate case-insensitively, like mac.SchemeByName.
	if err := mutate(t, func(s *Scenario) { s.Schemes = []string{"BA", "Na"} }); err != nil {
		t.Errorf("uppercase scheme names rejected: %v", err)
	}
	// A v2 faults section validates and its defaults resolve like the
	// faults package's own Normalize.
	s, err := Parse(strings.NewReader(goodScenario))
	if err != nil {
		t.Fatal(err)
	}
	s.Version = 2
	s.Faults = &Faults{CrashMTBFS: 30, FlapMTBFS: 20, SNRBurstMTBFS: 15,
		Partitions: []PartitionSpec{{StartS: 5, DurationS: 2, At: 1.5}}}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid v2 faults section rejected: %v", err)
	}
	if s.Faults.CrashMTTRS != 10 || s.Faults.FlapMTTRS != 2 ||
		s.Faults.SNRBurstMTTRS != 1 || s.Faults.SNRBurstDB != 10 {
		t.Errorf("faults MTTR/penalty defaults wrong: %+v", s.Faults)
	}
	if s.Faults.Partitions[0].Axis != "x" {
		t.Errorf("partition axis default = %q, want x", s.Faults.Partitions[0].Axis)
	}
	// Clone must deep-copy the faults section.
	c := s.Clone()
	c.Faults.Partitions[0].At = 99
	if s.Faults.Partitions[0].At == 99 {
		t.Error("Clone shares the partitions slice")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	bad := strings.Replace(goodScenario, `"seed": 7,`, `"sede": 7,`, 1)
	if _, err := Parse(strings.NewReader(bad)); err == nil {
		t.Fatal("typo'd field name parsed without error")
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(goodScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "test-open" {
		t.Errorf("loaded name %q", s.Name)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
	// A nameless scenario takes its path as the name.
	anon := strings.Replace(goodScenario, `"name": "test-open",`, ``, 1)
	path2 := filepath.Join(dir, "anon.json")
	if err := os.WriteFile(path2, []byte(anon), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(path2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name != path2 {
		t.Errorf("anonymous scenario name %q, want its path", s2.Name)
	}
}

func TestFCTStats(t *testing.T) {
	var f FCT
	if st := f.Stats(); st.Count != 0 || st.P99 != 0 {
		t.Errorf("empty FCT stats not zero: %+v", st)
	}
	for i := 100; i >= 1; i-- {
		f.Record(time.Duration(i) * time.Millisecond)
	}
	st := f.Stats()
	if st.Count != 100 {
		t.Fatalf("count %d", st.Count)
	}
	if st.Max != 100*time.Millisecond {
		t.Errorf("max %v", st.Max)
	}
	if st.P50 != 51*time.Millisecond || st.P95 != 96*time.Millisecond || st.P99 != 100*time.Millisecond {
		t.Errorf("percentiles p50=%v p95=%v p99=%v", st.P50, st.P95, st.P99)
	}
	if st.Mean != 50500*time.Microsecond {
		t.Errorf("mean %v", st.Mean)
	}
}
