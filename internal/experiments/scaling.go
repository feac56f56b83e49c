package experiments

import (
	"fmt"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/mac"
	"aggmac/internal/phy"
)

// Scaling experiment defaults: the network sizes the paper's 9-node
// testbed could never reach, exercised on generated sparse meshes.
var (
	defaultMeshSizes = []int{25, 100, 400}
	defaultMeshTopos = []string{core.MeshGrid, core.MeshDisk}
)

func (o Options) meshSizes() []int {
	if len(o.MeshSizes) > 0 {
		return o.MeshSizes
	}
	return defaultMeshSizes
}

func (o Options) meshTopos() []string {
	if len(o.MeshTopos) > 0 {
		return o.MeshTopos
	}
	return defaultMeshTopos
}

// scalingFlows sizes the concurrent-flow population for an N-node mesh.
// The population grows with the mesh up to a cap of 512 concurrent flows:
// past that, more sessions measure scheduler pressure rather than spectrum
// behavior, and the per-flow route state would dominate large-N memory.
// The cap only binds above N=6144, so every size with committed goldens or
// bench baselines (N ≤ 1600) is untouched.
func scalingFlows(n int) int {
	f := n / 12
	if f < 4 {
		return 4
	}
	if f > 512 {
		return 512
	}
	return f
}

// ScalingMesh measures aggregate TCP goodput over generated sparse meshes
// as the network grows — N ∈ {25, 100, 400} by default — under all three
// base schemes. Each cell runs max(4, N/12) concurrent multi-hop flows
// (30 KB each) through the shared spectrum; the neighbor-indexed medium
// keeps per-transmission cost proportional to node degree, so the N=400
// cells simulate at the same per-event speed as the paper's 4-node chains.
func ScalingMesh(o Options) Table {
	sizes := o.meshSizes()
	t := Table{
		ID:    "Scaling",
		Title: "Mesh scaling: aggregate TCP goodput across concurrent flows (Mbps)",
		Notes: "flows per cell = max(4, N/12); grid is k x k at unit spacing, disk is seeded uniform placement (bridged if split); incomplete flows count 0 Mbps",
	}
	for _, n := range sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("N%d", n))
	}
	var p plan
	for _, topo := range o.meshTopos() {
		for _, scheme := range []mac.Scheme{mac.NA, mac.UA, mac.BA} {
			ri := len(t.Rows)
			t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%s %s", topo, scheme.Name())})
			for _, n := range sizes {
				p.mesh(fmt.Sprintf("scaling/%s/%s/N%d", topo, scheme.Name(), n),
					ScalingCell(topo, scheme, n, o.Seed),
					func(r core.MeshResult) {
						t.Rows[ri].Values = append(t.Rows[ri].Values, r.AggregateMbps)
					})
			}
		}
	}
	p.run(o)
	return t
}

// ScalingCell builds the mesh config of one scaling-experiment cell.
// bench_test.go and the perfbench module reuse it so their benchmarks
// measure exactly the experiment's configuration.
func ScalingCell(topo string, scheme mac.Scheme, n int, seed int64) core.MeshTCPConfig {
	return core.MeshTCPConfig{
		Scheme: scheme, Rate: phy.Rate2600k,
		Topology: topo, Nodes: n, Flows: scalingFlows(n),
		FileBytes: 30_000, Seed: seed,
		Deadline: 1200 * time.Second,
	}
}
