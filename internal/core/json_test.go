package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"aggmac/internal/mac"
	"aggmac/internal/traffic"
)

// topLevelKeys returns the object keys of a JSON document in the order
// they were encoded.
func topLevelKeys(t *testing.T, v any) []string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestResultJSONKeyOrder pins the encoded field names and their order:
// aggsim -json, the results store's objects and the benchmark's
// reference digests are all these bytes.
func TestResultJSONKeyOrder(t *testing.T) {
	mesh := topLevelKeys(t, RunMeshTCP(quickMeshCfg()))
	wantMesh := []string{
		"AggregateMbps", "MinMbps", "MeanMbps", "Flows", "FlowsDone", "Completed",
		"Elapsed", "EventsRun", "Shards",
		"NodeCount", "LinkCount", "AvgDegree", "LinkUps", "LinkDowns", "RouteFlaps",
		"RouteRecomputes", "NodeCrashes", "NodeRecoveries", "FaultLinkDowns",
		"FaultLinkUps", "PartitionsStarted", "PartitionsHealed", "SNRBursts",
		"FlowsKilledByFault", "Availability", "MeanHealLatency",
		"MaxFlowStall", "MeanFlowStall", "Nodes",
	}
	if !reflect.DeepEqual(mesh, wantMesh) {
		t.Errorf("MeshResult keys:\n got %q\nwant %q", mesh, wantMesh)
	}

	scn := topLevelKeys(t, RunScenario(ScenarioConfig{Scenario: testScenario(traffic.ModeOpen), Scheme: mac.BA}))
	wantScn := []string{
		"Name", "Scheme", "FlowsStarted", "FlowsCompleted", "FlowsAbandoned",
		"FlowsSkipped", "PeakActive", "FCT", "DeliveredBytes", "AggregateMbps",
		"PerModel", "Flows", "Elapsed", "EventsRun",
		"NodeCount", "LinkCount", "AvgDegree", "LinkUps", "LinkDowns", "RouteFlaps",
		"RouteRecomputes", "NodeCrashes", "NodeRecoveries", "FaultLinkDowns",
		"FaultLinkUps", "PartitionsStarted", "PartitionsHealed", "SNRBursts",
		"FlowsKilledByFault", "Availability", "MeanHealLatency",
		"Nodes",
	}
	if !reflect.DeepEqual(scn, wantScn) {
		t.Errorf("ScenarioResult keys:\n got %q\nwant %q", scn, wantScn)
	}
}
