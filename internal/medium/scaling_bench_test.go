package medium

import (
	"fmt"
	"testing"
	"time"
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
