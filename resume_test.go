// Crash-safety gate: a sweep SIGKILLed mid-matrix and re-run with -resume
// must produce output byte-identical to an uninterrupted run, serving the
// already-completed cells from the store. Exercises the real binaries as
// subprocesses — the kill has to land on a live process, not a test seam.
package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"
	"time"

	"aggmac/internal/store"
)

// buildBinary compiles a command for subprocess tests.
func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func countObjects(dir string) int {
	m, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("v%d", store.SpecVersion), "*.json"))
	return len(m)
}

var cachedRe = regexp.MustCompile(`(\d+) cell\(s\) cached`)

// TestKillAndResumeByteIdentical is the acceptance gate for crash-safe
// sweeps: reference run (no store), interrupted run (killed after at least
// two cells land durably), resumed run — whose stdout must equal the
// reference byte for byte, with at least one cell served from the cache.
func TestKillAndResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills subprocesses")
	}
	bin := buildBinary(t, "./cmd/aggbench")
	args := []string{"-quick", "-exp", "fig7", "-seed", "3", "-json"}

	ref, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	storeDir := filepath.Join(t.TempDir(), "results")
	withStore := append(append([]string{}, args...), "-store", storeDir, "-resume", "-parallel", "1")

	// Interrupted run: serial so cells land one at a time, killed as soon
	// as a couple of objects are durably on disk.
	victim := exec.Command(bin, withStore...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		if countObjects(storeDir) >= 2 {
			_ = victim.Process.Kill()
			killed = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = victim.Wait()
	if !killed {
		t.Fatal("sweep never landed two cells; nothing to interrupt")
	}
	landed := countObjects(storeDir)
	if landed < 2 {
		t.Fatalf("only %d objects on disk after the kill", landed)
	}

	// Resumed run: must finish cleanly, match the uninterrupted output
	// exactly, and report the surviving cells as cache hits.
	var stdout, stderr bytes.Buffer
	resumed := exec.Command(bin, withStore...)
	resumed.Stdout, resumed.Stderr = &stdout, &stderr
	if err := resumed.Run(); err != nil {
		t.Fatalf("resumed run failed: %v\nstderr: %s", err, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), ref) {
		t.Error("resumed run's stdout differs from the uninterrupted run")
	}
	m := cachedRe.FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no resume summary on stderr: %q", stderr.String())
	}
	if cached, _ := strconv.Atoi(m[1]); cached < 1 {
		t.Errorf("resume summary reports %d cached cells, want >= 1 (stderr: %s)", cached, stderr.String())
	}

	// A third run over the warm store executes nothing at all.
	stdout.Reset()
	stderr.Reset()
	warm := exec.Command(bin, withStore...)
	warm.Stdout, warm.Stderr = &stdout, &stderr
	if err := warm.Run(); err != nil {
		t.Fatalf("warm run failed: %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), ref) {
		t.Error("warm run's stdout differs from the uninterrupted run")
	}
	if m := cachedRe.FindStringSubmatch(stderr.String()); m == nil || m[1] == "0" {
		t.Errorf("warm run served nothing from cache: %s", stderr.String())
	}
}

var summaryRe = regexp.MustCompile(`(\d+) cell\(s\) cached, (\d+) executed`)

// TestAggsimSweepResumeSummary: an aggsim sweep or scenario run re-run on
// the store its first run filled serves every cell from the store,
// executes none, and prints byte-identical stdout.
func TestAggsimSweepResumeSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds subprocesses")
	}
	bin := buildBinary(t, "./cmd/aggsim")
	cases := []struct {
		name  string
		args  []string
		cells string
	}{
		{"sweep", []string{"-traffic", "tcp", "-scheme", "na,ba", "-hops", "1,2", "-file", "20000", "-json"}, "4"},
		{"scenario", []string{"-scenario", "examples/scenarios/web-open.json", "-json"}, "3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := slices.Concat(c.args, []string{"-store", filepath.Join(t.TempDir(), "results"), "-resume"})
			run := func() (stdout []byte, summary []string) {
				t.Helper()
				var out, errb bytes.Buffer
				cmd := exec.Command(bin, args...)
				cmd.Stdout, cmd.Stderr = &out, &errb
				if err := cmd.Run(); err != nil {
					t.Fatalf("aggsim %v: %v\nstderr: %s", args, err, errb.String())
				}
				m := summaryRe.FindStringSubmatch(errb.String())
				if m == nil {
					t.Fatalf("no store summary on stderr: %q", errb.String())
				}
				return out.Bytes(), m[1:]
			}

			cold, summary := run()
			if want := []string{"0", c.cells}; !slices.Equal(summary, want) {
				t.Errorf("cold run: cached/executed = %v, want %v", summary, want)
			}
			warm, summary := run()
			if want := []string{c.cells, "0"}; !slices.Equal(summary, want) {
				t.Errorf("warm run: cached/executed = %v, want %v", summary, want)
			}
			if !bytes.Equal(warm, cold) {
				t.Error("warm run's stdout differs from the cold run's")
			}
		})
	}
}

func exitCode(t *testing.T, bin string, args ...string) int {
	t.Helper()
	err := exec.Command(bin, args...).Run()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	t.Fatalf("%s %v: %v", bin, args, err)
	return -1
}

// TestUsageErrorsExitTwoWithoutTouchingStore pins the exit-code contract:
// flag/validation problems exit 2 and never create the store directory,
// keeping them distinguishable from run failures (exit 1) in scripts.
func TestUsageErrorsExitTwoWithoutTouchingStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds subprocesses")
	}
	bench := buildBinary(t, "./cmd/aggbench")
	sim := buildBinary(t, "./cmd/aggsim")
	storeDir := filepath.Join(t.TempDir(), "never-created")
	// A scenario file that loads but names a PHY rate the radio lacks.
	badRate := filepath.Join(t.TempDir(), "bad-rate.json")
	blob, err := os.ReadFile("examples/scenarios/web-open.json")
	if err != nil {
		t.Fatal(err)
	}
	blob = regexp.MustCompile(`"rate_mbps":\s*[0-9.]+`).ReplaceAll(blob, []byte(`"rate_mbps": 9.9`))
	if err := os.WriteFile(badRate, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		bin  string
		args []string
	}{
		{"bench unknown experiment", bench, []string{"-exp", "no-such-exp", "-store", storeDir, "-resume"}},
		{"bench resume without store", bench, []string{"-resume", "-exp", "fig7"}},
		{"bench json+csv", bench, []string{"-json", "-csv", "-store", storeDir}},
		{"bench negative parallel", bench, []string{"-quick", "-exp", "fig7", "-parallel", "-3", "-store", storeDir}},
		{"sim resume without store", sim, []string{"-resume"}},
		{"sim store on single run", sim, []string{"-store", storeDir}},
		{"sim store on mesh run", sim, []string{"-topo", "grid", "-store", storeDir}},
		{"sim store with trace", sim, []string{"-scheme", "na,ba", "-store", storeDir, "-trace"}},
		{"sim shards with mobility", sim, []string{"-topo", "grid", "-shards", "2", "-mobility", "waypoint"}},
		{"sim negative shards", sim, []string{"-topo", "grid", "-shards", "-1"}},
		{"sim scenario with bad rate", sim, []string{"-scenario", badRate, "-store", storeDir}},
		{"sim tcp negative agg", sim, []string{"-hops", "1", "-agg", "-5", "-file", "20000"}},
		{"sim tcp sweep negative agg", sim, []string{"-scheme", "na,ba", "-agg", "-5", "-store", storeDir}},
		{"sim udp negative agg", sim, []string{"-traffic", "udp", "-hops", "1", "-agg", "-5"}},
		{"sim mesh negative agg", sim, []string{"-topo", "grid", "-agg", "-5"}},
		{"sim udp duration within warmup", sim, []string{"-traffic", "udp", "-hops", "1", "-dur", "2s"}},
		{"sim udp sweep duration within warmup", sim, []string{"-traffic", "udp", "-hops", "1,2", "-dur", "2s", "-store", storeDir}},
		{"sim udp negative duration", sim, []string{"-traffic", "udp", "-dur", "-1s"}},
		{"sim udp negative flood", sim, []string{"-traffic", "udp", "-flood", "-1s"}},
		{"sim negative reps", sim, []string{"-reps", "-3", "-store", storeDir}},
		{"sim zero reps", sim, []string{"-reps", "0", "-store", storeDir}},
		{"sim negative parallel", sim, []string{"-scheme", "na,ba", "-parallel", "-1", "-store", storeDir}},
	}
	for _, c := range cases {
		if code := exitCode(t, c.bin, c.args...); code != 2 {
			t.Errorf("%s: exit code %d, want 2", c.name, code)
		}
	}
	if _, err := os.Stat(storeDir); !os.IsNotExist(err) {
		t.Error("a usage error created the store directory")
	}
}

// TestLockedStoreExitsOne: environment failures (another writer holds the
// store) are run failures, exit 1 — not usage errors.
func TestLockedStoreExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("builds subprocesses")
	}
	bench := buildBinary(t, "./cmd/aggbench")
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code := exitCode(t, bench, "-quick", "-exp", "fig7", "-store", dir); code != 1 {
		t.Errorf("locked store: exit code %d, want 1", code)
	}
}
