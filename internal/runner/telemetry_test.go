package runner

import (
	"context"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"aggmac/internal/core"
)

// TestProgressElapsed: every progress report carries positive, monotone
// sweep-elapsed wall time.
func TestProgressElapsed(t *testing.T) {
	var mu sync.Mutex
	var elapsed []time.Duration
	pool := Pool{
		Workers: 2,
		OnResult: func(p Progress) {
			mu.Lock()
			elapsed = append(elapsed, p.Elapsed)
			mu.Unlock()
		},
		execute: func(i int, s Spec) Result {
			return Result{Index: i, Key: s.Key, TCP: &core.TCPResult{ThroughputMbps: 1}}
		},
	}
	specs := []Spec{{Key: "a"}, {Key: "b"}, {Key: "c"}}
	if _, err := pool.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if len(elapsed) != len(specs) {
		t.Fatalf("%d progress reports for %d specs", len(elapsed), len(specs))
	}
	for i, e := range elapsed {
		if e <= 0 {
			t.Fatalf("report %d: Elapsed = %v, want > 0", i, e)
		}
		if i > 0 && e < elapsed[i-1] {
			t.Fatalf("Elapsed not monotone under the progress lock: %v", elapsed)
		}
	}
}

// captureStderr runs fn with os.Stderr redirected to a pipe and returns
// what it wrote.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	defer func() { os.Stderr = old }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestStderrProgressFormats: the reporter keeps its historical line shape
// when Elapsed is zero and appends rate/ETA when the pool supplies it.
func TestStderrProgressFormats(t *testing.T) {
	p := Progress{Done: 2, Total: 8, Key: "cell", Wall: 120 * time.Millisecond}
	if got := captureStderr(t, func() { StderrProgress(p) }); got != "[2/8] cell (120ms)\n" {
		t.Errorf("no-elapsed line = %q", got)
	}
	p.Elapsed = 4 * time.Second
	got := captureStderr(t, func() { StderrProgress(p) })
	if want := "[2/8] cell (120ms) [0.5 runs/s, eta 12s]\n"; got != want {
		t.Errorf("rate line = %q, want %q", got, want)
	}
	p.Cached = true
	got = captureStderr(t, func() { StderrProgress(p) })
	if want := "[2/8] cell (cached) [0.5 runs/s, eta 12s]\n"; got != want {
		t.Errorf("cached line = %q, want %q", got, want)
	}
}
