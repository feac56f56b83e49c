package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"aggmac/internal/mac"
	"aggmac/internal/phy"
)

// TestRunMeshTCPSparseRoutesEquivalent pins the lazily filled route
// table: a sequential run, whose shared table holds only the destination
// columns the run looked up, is bit-identical to the same run on the
// sharded engine with one shard, which fills every column before the first
// event. BA is the scheme that stresses it — overheard broadcast ACKs are
// forwarded by any node with a route — and grid, disk and chains exercise
// all three flow-planning paths.
func TestRunMeshTCPSparseRoutesEquivalent(t *testing.T) {
	cases := []struct {
		name string
		cfg  MeshTCPConfig
	}{
		{"grid", MeshTCPConfig{
			Scheme: mac.BA, Rate: phy.Rate2600k,
			Topology: MeshGrid, Nodes: 25, Flows: 4,
			FileBytes: 8_000, Seed: 3,
			Deadline: 600 * time.Second,
		}},
		{"disk", MeshTCPConfig{
			Scheme: mac.BA, Rate: phy.Rate2600k,
			Topology: MeshDisk, Nodes: 30, Flows: 3,
			FileBytes: 6_000, Seed: 5,
			Deadline: 600 * time.Second,
		}},
		{"chains", MeshTCPConfig{
			Scheme: mac.UA, Rate: phy.Rate2600k,
			Topology: MeshChains, Chains: 3, ChainHops: 3, CrossFlows: 1,
			FileBytes: 6_000, Seed: 2,
			Deadline: 600 * time.Second,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lazy := RunMeshTCP(tc.cfg)
			cfg := tc.cfg
			cfg.Shards = 1
			eager := RunMeshTCP(cfg)
			if lazy.FlowsDone == 0 {
				t.Fatal("no flow completed: the runs compare nothing")
			}
			if lazy.EventsRun != eager.EventsRun {
				t.Fatalf("EventsRun diverged: lazy routes %d, eager routes %d", lazy.EventsRun, eager.EventsRun)
			}
			eager.Shards = lazy.Shards // the engine label is the one intended difference
			if !reflect.DeepEqual(lazy, eager) {
				t.Fatal("lazy-route and eager-route mesh runs diverged")
			}
		})
	}
}

// scaleGated skips t unless AGGMAC_SCALE is set: the large-N tests below
// take tens of seconds and real memory, so only the CI scale job (and
// explicit local runs) pay for them.
func scaleGated(t *testing.T) {
	if os.Getenv("AGGMAC_SCALE") == "" {
		t.Skip("set AGGMAC_SCALE=1 to run large-N scale tests")
	}
}

// TestMeshGrid400FullRunPinned is the scale job's full-run gate: one N=400
// scaling cell simulated end to end must reproduce, field for field, the
// result the sparse neighbor-indexed medium and the O(N) dense-scan oracle
// it replaced both produced. The digest is the SHA-256 of the result's %+v
// rendering, recorded before the oracle was removed.
func TestMeshGrid400FullRunPinned(t *testing.T) {
	scaleGated(t)
	res := RunMeshTCP(MeshTCPConfig{
		Scheme: mac.BA, Rate: phy.Rate2600k,
		Topology: MeshGrid, Nodes: 400, Flows: 33,
		FileBytes: 30_000, Seed: 1,
		Deadline: 1200 * time.Second,
	})
	if res.EventsRun != 1380541 {
		t.Fatalf("EventsRun = %d, want 1380541", res.EventsRun)
	}
	const want = "9a4e78cd962346d89ba22a2a0970f4158dec55bba7572cddaf5991fa16dc2201"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))); got != want {
		t.Fatalf("result digest = %s, want %s", got, want)
	}
}

// TestLargeGridSmoke is the acceptance smoke for the sparse table: an
// N=25600 grid mesh must construct and simulate with link-state memory
// O(N·degree). The interesting assertions are that it finishes at all
// (construction used to be O(N²) in both time and memory) and that the
// link store holds only real links — a grid's 8-neighborhood keeps the
// directed count under 8N where the dense matrix held N² entries.
func TestLargeGridSmoke(t *testing.T) {
	scaleGated(t)
	const n = 25600 // 160×160
	res := RunMeshTCP(MeshTCPConfig{
		Scheme: mac.BA, Rate: phy.Rate2600k,
		Topology: MeshGrid, Nodes: n, Flows: 4,
		FileBytes: 20_000, Seed: 1,
		Deadline: 600 * time.Second,
	})
	if res.NodeCount != n {
		t.Fatalf("built %d nodes, want %d", res.NodeCount, n)
	}
	if res.FlowsDone == 0 {
		t.Fatal("smoke sim completed no flows")
	}
	// 160×160 grid, radio range 1.5: interior nodes have degree 8, so the
	// bidirectional link count sits well under 4N.
	if res.LinkCount >= 4*n {
		t.Fatalf("grid wired %d links — not a sparse 8-neighborhood", res.LinkCount)
	}
}
