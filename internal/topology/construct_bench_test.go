package topology

import (
	"fmt"
	"testing"

	"aggmac/internal/mac"
	"aggmac/internal/phy"
)

// BenchmarkGridConstruct measures mesh construction alone — node/MAC
// assembly plus cell-binned link wiring — at sizes where the seed's O(N²)
// link matrix and all-pairs pair scan dominated startup. The acceptance
// shape: ns/op and B/op grow ~linearly in N (constant per-node cost at
// fixed degree), so the N=25600 row runs ~16× the N=1600 row, not ~256×.
// Routes are deferred (DeferRoutes), so no route table or adjacency
// snapshot is part of the measurement.
//
//	go test ./internal/topology -bench GridConstruct -benchtime 5x
func BenchmarkGridConstruct(b *testing.B) {
	for _, k := range []int{40, 80, 160} { // N = 1600, 6400, 25600
		b.Run(fmt.Sprintf("N%d", k*k), func(b *testing.B) {
			cfg := MeshConfig{
				Config: Config{
					Seed: 1,
					Phy:  phy.DefaultParams(),
					OptsFor: func(i, n int) mac.Options {
						return mac.DefaultOptions(mac.BA, phy.Rate2600k)
					},
				},
				DeferRoutes: true,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := NewGrid(k, cfg)
				if m.LinkCount() == 0 {
					b.Fatal("grid wired no links")
				}
			}
		})
	}
}
