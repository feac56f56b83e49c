package medium

import (
	"fmt"
	"testing"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// The medium scaling benches: per-transmission cost on a K×K grid mesh
// (4-neighborhood, degree ≤ 4 independent of N) under the neighbor-indexed
// medium. The acceptance shape: ns/op stays flat as N grows at fixed
// degree. The workload lives in TxBench (benchkit.go) so the benchmark
// module measures the identical workload; the CI bench gate compares these
// rows against BENCH_baseline.txt and also watches their B/op. The rows
// keep their "indexed" suffix so their names match the committed baseline.
//
//	go test ./internal/medium -bench MediumTx -benchtime 100000x
func benchMediumTx(b *testing.B, k int) {
	b.Helper()
	tb := NewTxBench(k, false)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		tb.Burst()
	}
	if wall := time.Since(start).Seconds(); wall > 0 {
		b.ReportMetric(tb.SimNow().Seconds()/wall, "simsec/sec")
	}
	b.ReportMetric(float64(tb.TxPerBurst()), "tx/op")
}

func BenchmarkMediumTx(b *testing.B) {
	for _, k := range []int{5, 10, 20} { // N = 25, 100, 400
		b.Run(fmt.Sprintf("N%d/indexed", k*k), func(b *testing.B) {
			benchMediumTx(b, k)
		})
	}
}

// BenchmarkMediumCrowded measures one launch, with its delivery and carrier
// release, on a busy large mesh: a 40×40 grid wired at the 8-neighborhood
// (the mesh generators' default 1.5 radio range), with launches from
// senders spread over the whole grid, spaced so that about one node in 16
// is on the air at any moment. Collision marking is the part of a launch
// that grows with the number of frames on the air. One op is one launch;
// "on-air/launch" reports how many frames were already on the air.
//
//	go test ./internal/medium -run '^$' -bench MediumCrowded
func BenchmarkMediumCrowded(b *testing.B) {
	const k = 40
	const n, busy = k * k, k * k / 16
	s := sim.NewScheduler(1)
	m := NewUnconnected(s, phy.DefaultParams(), n)
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			for _, d := range [][2]int{{0, 1}, {1, -1}, {1, 0}, {1, 1}} {
				nr, nc := r+d[0], c+d[1]
				if nr < k && nc >= 0 && nc < k {
					m.SetConnected(NodeID(r*k+c), NodeID(nr*k+nc), true)
				}
			}
			m.Attach(NodeID(r*k+c), nopRadio{})
		}
	}
	ctrl := frame.Control{Type: frame.TypeCTS, RA: frame.Broadcast}
	gap := m.ControlAirtime(&ctrl) / busy
	launched, seen := 0, 0
	var launch func()
	launch = func() {
		seen += len(m.active)
		// 997 is prime to n, so consecutive senders land far apart and
		// each node sends once per n launches.
		m.TransmitControl(NodeID(launched*997%n), ctrl)
		if launched++; launched < b.N {
			s.After(gap, "tx", launch)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.After(0, "tx", launch)
	s.Run()
	b.ReportMetric(float64(seen)/float64(b.N), "on-air/launch")
}
