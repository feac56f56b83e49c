package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/mac"
	"aggmac/internal/phy"
	"aggmac/internal/runner"
)

// tinyPass runs two short TCP cells through a pool into an observer.
func tinyPass(t *testing.T) *observer {
	t.Helper()
	obs := newObserver()
	var specs []runner.Spec
	for _, s := range []mac.Scheme{mac.UA, mac.BA} {
		cfg := core.TCPConfig{Scheme: s, Rate: phy.Rate1300k, Hops: 2, FileBytes: 20_000, Seed: 3}
		specs = append(specs, runner.Spec{Key: "tcp/" + s.Name(), TCP: &cfg})
	}
	if err := poolPass(context.Background(), specs, 2, obs); err != nil {
		t.Fatal(err)
	}
	return obs
}

// refsFor builds a reference file whose every input set holds got.
func refsFor(t *testing.T, got map[string]string) refFile {
	t.Helper()
	dir := t.TempDir()
	sets := make([]map[string]string, inputSets)
	for i := range sets {
		sets[i] = got
	}
	if err := writeRefs(dir, "tiny", sets); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dir + "/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	var rf refFile
	if err := json.Unmarshal(b, &rf); err != nil {
		t.Fatal(err)
	}
	return rf
}

func failFrac(t *testing.T, rf refFile, obs *observer) (attempted, failed int) {
	t.Helper()
	a, f, err := checkPass(rf, 1, obs, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	return a, f
}

func TestPerturbedResultCountsAsFailed(t *testing.T) {
	obs := tinyPass(t)
	got, err := outputDigests(obs)
	if err != nil {
		t.Fatal(err)
	}
	rf := refsFor(t, got)
	if a, f := failFrac(t, rf, obs); a != 2 || f != 0 {
		t.Fatalf("unperturbed pass: %d of %d failed, want 0 of 2", f, a)
	}

	// One simulated counter off by one must be caught.
	obs.cells["tcp/BA"].result.TCP.EventsRun++
	if a, f := failFrac(t, rf, obs); a != 2 || f != 1 {
		t.Fatalf("perturbed pass: %d of %d failed, want 1 of 2", f, a)
	}

	// So must a cell that produced no result.
	obs.cells["tcp/BA"].ok = false
	if _, f := failFrac(t, rf, obs); f != 1 {
		t.Fatalf("missing cell: %d failed, want 1", f)
	}
}

func TestSameInputsGiveSameDigests(t *testing.T) {
	a, err := outputDigests(tinyPass(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := outputDigests(tinyPass(t))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: digest %s, then %s", k, v, b[k])
		}
	}
}

func TestCommittedRefsLoad(t *testing.T) {
	for _, w := range workloads {
		rf, err := loadRefs(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(rf.Keys) == 0 {
			t.Errorf("%s: no reference outputs", w.name)
		}
	}
}

func TestInputSetCoversEverySeed(t *testing.T) {
	for _, seed := range []int64{-17, -1, 0, 1, 15, 16, 17, 1 << 40} {
		if s := inputSet(seed); s < 1 || s > inputSets {
			t.Errorf("inputSet(%d) = %d", seed, s)
		}
	}
	if inputSet(1) == inputSet(2) {
		t.Error("consecutive seeds share an input set")
	}
}

func TestParseRawBucketsByLayer(t *testing.T) {
	const out = `PeriodType: cpu nanoseconds
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2 
          1   10000000: 3 4 
          1   10000000: 5 6 
Locations
     1: 0x4df9ba M=1 runtime.mapaccess2_fast64 /go/src/runtime/map_fast64.go:13:0 s=1
     2: 0x4e42a4 M=1 aggmac/internal/medium.(*LinkTable).snr /r/internal/medium/medium.go:190:0 s=189
             aggmac/internal/sim.(*Scheduler).Step /r/internal/sim/sim.go:219:0 s=205
     3: 0x42283d M=1 runtime.scanobject /go/src/runtime/mgcmark.go:1394:0 s=1381
     4: 0x42283e M=1 runtime.gcBgMarkWorker /go/src/runtime/mgc.go:1400:0 s=1300
     5: 0x516f15 M=1 aggmac/internal/topology.buildOn.(*Node).Bind.func1 /r/internal/network/network.go:212:0 s=212
     6: 0x516f16 M=1 main.digest /r/perfbench/refs.go:40:0 s=30
Mappings
1: 0x400000/0x58f000/0x0 /r/perfbench
`
	flat, cum, err := parseRaw(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]float64{"medium": 0.6, "go": 0.2, "network": 0.2, "sim": 0, "topology": 0} {
		if flat[k] != v {
			t.Errorf("%s flat share = %v, want %v", k, flat[k], v)
		}
	}
	for k, v := range map[string]float64{"medium": 0.6, "sim": 0.6, "network": 0.2, "go": 0} {
		if cum[k] != v {
			t.Errorf("%s cumulative share = %v, want %v", k, cum[k], v)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper", "--trace", "2"},
		{"--workload", "paper", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestLayerBenchesReportTheirMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an N=1600 cell twice")
	}
	m := runLayerBenches(layerBenches(3, 16, 1), newSpanLog(), 0)
	for k, v := range m {
		if v.Value < 0 || v.Unit == "" {
			t.Errorf("%s = %+v", k, v)
		}
	}
	for _, k := range []string{"sim.step_ns", "medium.tx_burst_ns", "frame.agg_decode_ns",
		"mac.subframe_ns", "routing.install_ms", "topology.update_links_us"} {
		if m[k].Value <= 0 {
			t.Errorf("%s = %v, want > 0", k, m[k].Value)
		}
	}
}

func TestSlotDropsTheSeedIndex(t *testing.T) {
	for key, want := range map[string]string{
		"s0/fig7":                 "fig7",
		"s12/ext-delay":           "ext-delay",
		"churn/s1/faults/BA/N400": "churn/faults/BA/N400",
		"static/grid/NA/N1600":    "static/grid/NA/N1600",
		"pool":                    "pool",
	} {
		if got := slotOf(key); got != want {
			t.Errorf("slotOf(%q) = %q, want %q", key, got, want)
		}
	}
}

func TestCellCPUIsRecorded(t *testing.T) {
	obs := tinyPass(t)
	for key, c := range obs.cells {
		if c.cpu <= 0 || c.cpu > c.wall+time.Millisecond {
			t.Errorf("%s: cpu %v, wall %v", key, c.cpu, c.wall)
		}
	}
	if len(obs.cpuAt) != 0 {
		t.Errorf("%d cell CPU clock(s) left running", len(obs.cpuAt))
	}
}
