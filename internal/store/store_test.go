package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aggmac/internal/core"
	"aggmac/internal/mac"
	"aggmac/internal/phy"
	"aggmac/internal/runner"
)

// tcpSpec builds a cheap, cacheable TCP spec; vary seed for distinct cells.
func tcpSpec(seed int64) runner.Spec {
	return runner.Spec{
		Key: "tcp/test",
		TCP: &core.TCPConfig{
			Scheme: mac.BA, Rate: phy.Rate1300k, Hops: 1,
			FileBytes: 10000, MaxAggBytes: 5120, Seed: seed,
		},
	}
}

func tcpResult(mbps float64) runner.Result {
	return runner.Result{Key: "tcp/test", TCP: &core.TCPResult{ThroughputMbps: mbps}}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)

	spec := tcpSpec(7)
	if _, ok, err := s.Lookup(spec); err != nil || ok {
		t.Fatalf("fresh store Lookup = ok=%v err=%v, want miss", ok, err)
	}
	want := tcpResult(2.5)
	if err := s.Store(spec, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Lookup(spec)
	if err != nil || !ok {
		t.Fatalf("Lookup after Store = ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got.TCP, want.TCP) || got.Key != want.Key {
		t.Fatalf("Lookup returned %+v, want %+v", got, want)
	}
	if st := s.Stats(); st != (Stats{Hits: 1, Misses: 1, Stored: 1}) {
		t.Errorf("Stats = %+v, want 1 hit, 1 miss, 0 corrupt, 1 stored", st)
	}
	if got, want := s.Summary(), []string{"store " + dir + ": 1 cell(s) cached, 1 executed"}; !slices.Equal(got, want) {
		t.Errorf("Summary = %q, want %q", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A different seed occupies a different slot; reopening serves both.
	s2 := mustOpen(t, dir)
	if n := countObjects(t, dir, SpecVersion); n != 1 {
		t.Fatalf("reopened store holds %d objects, want 1", n)
	}
	if _, ok, _ := s2.Lookup(spec); !ok {
		t.Error("reopened store missed the stored cell")
	}
	if _, ok, _ := s2.Lookup(tcpSpec(8)); ok {
		t.Error("different seed hit the same slot")
	}
}

// TestStoreWritesEachCellOnce: storing a spec whose cell already has a
// verified file (the same spec under another display key) leaves the file
// in place but still counts as executed; a damaged file is replaced.
func TestStoreWritesEachCellOnce(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	first, second := tcpSpec(3), tcpSpec(3)
	second.Key = "tcp/duplicate"
	id, err := SpecID(first)
	if err != nil {
		t.Fatal(err)
	}
	path := s.path(id)
	stat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	if err := s.Store(first, tcpResult(1.5)); err != nil {
		t.Fatal(err)
	}
	before := stat()
	if err := s.Store(second, tcpResult(1.5)); err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, stat()) {
		t.Error("storing a spec already held rewrote its file")
	}
	if st := s.Stats(); st.Stored != 2 {
		t.Errorf("Stored = %d, want 2: a skipped write still counts as executed", st.Stored)
	}
	if got, ok, err := s.Lookup(second); err != nil || !ok || got.TCP.ThroughputMbps != 1.5 {
		t.Fatalf("Lookup under the second key = %+v ok=%v err=%v", got, ok, err)
	}

	if err := os.WriteFile(path, []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(second, tcpResult(1.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.read(id); err != nil {
		t.Errorf("a damaged file was not replaced: %v", err)
	}
}

func TestSpecIDIgnoresDisplayKey(t *testing.T) {
	a, b := tcpSpec(1), tcpSpec(1)
	b.Key = "renamed/cell"
	ida, err := SpecID(a)
	if err != nil {
		t.Fatal(err)
	}
	idb, err := SpecID(b)
	if err != nil {
		t.Fatal(err)
	}
	if ida != idb {
		t.Error("display key changed the content hash")
	}
	c := tcpSpec(1)
	c.TCP.MaxAggBytes = 8192
	if idc, _ := SpecID(c); idc == ida {
		t.Error("config change did not move the cell to a new slot")
	}
}

func TestSpecWithHookNotCacheable(t *testing.T) {
	spec := tcpSpec(1)
	spec.TCP.Tweak = func(*mac.Options) {}
	if _, err := SpecID(spec); err == nil || !strings.Contains(err.Error(), "not cacheable") {
		t.Fatalf("SpecID with a set hook = %v, want a not-cacheable error", err)
	}
	s := mustOpen(t, t.TempDir())
	if _, _, err := s.Lookup(spec); err == nil {
		t.Error("Lookup accepted an uncacheable spec")
	}
	if err := s.Store(spec, tcpResult(1)); err == nil {
		t.Error("Store accepted an uncacheable spec")
	}
}

func TestStoreRefusesFailedRun(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	r := tcpResult(1)
	r.Err = errors.New("boom")
	if err := s.Store(tcpSpec(1), r); err == nil {
		t.Fatal("Store accepted a failed result")
	}
	if n := countObjects(t, s.Dir(), SpecVersion); n != 0 || s.Stats().Stored != 0 {
		t.Errorf("failed result landed in the store: %d objects, %+v", n, s.Stats())
	}
}

func TestSecondWriterLockedOut(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := Open(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close = %v", err)
	}
	s2.Close()
}

func TestCorruptObjectQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	spec := tcpSpec(3)
	if err := s.Store(spec, tcpResult(3.3)); err != nil {
		t.Fatal(err)
	}
	id, _ := SpecID(spec)
	objPath := filepath.Join(dir, objectsDirName(), id+".json")
	if err := os.WriteFile(objPath, []byte(`{"id":"flipped bits`), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok, err := s.Lookup(spec); err != nil || ok {
		t.Fatalf("Lookup of corrupt object = ok=%v err=%v, want clean miss", ok, err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("Stats.Corrupt = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(objPath); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt object still among the objects")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, id+".json")); err != nil {
		t.Errorf("corrupt object not moved to quarantine/: %v", err)
	}
	if n := countObjects(t, dir, SpecVersion); n != 0 {
		t.Errorf("%d objects left after quarantine, want 0", n)
	}
	if got := s.Summary(); len(got) != 2 || got[1] != "store: quarantined 1 corrupt object(s)" {
		t.Errorf("Summary = %q, want a quarantine line", got)
	}

	// The slot is usable again: re-store and hit.
	if err := s.Store(spec, tcpResult(3.3)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Lookup(spec); !ok {
		t.Error("re-stored cell missed")
	}
}

// storeTwo populates a fresh store with two cells and closes it, returning
// the specs for later lookups.
func storeTwo(t *testing.T, dir string) [2]runner.Spec {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := [2]runner.Spec{tcpSpec(1), tcpSpec(2)}
	for i, sp := range specs {
		if err := s.Store(sp, tcpResult(float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestRebuildDiscardsTempAndForeignFiles: Open removes temp files left by
// interrupted writes, at the root and among the objects, and leaves names
// the store does not own alone.
func TestRebuildDiscardsTempAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	specs := storeTwo(t, dir)
	objects := filepath.Join(dir, objectsDirName())
	temps := []string{filepath.Join(dir, tmpPrefix+"index.json-1"), filepath.Join(objects, tmpPrefix+"leftover")}
	foreign := []string{filepath.Join(dir, "notes.txt"), filepath.Join(objects, "README.txt")}
	for _, p := range append(temps, foreign...) {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := mustOpen(t, dir)
	for _, p := range temps {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("temp leftover %s not removed by Open", filepath.Base(p))
		}
	}
	for _, p := range foreign {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("Open removed a file it does not own: %v", err)
		}
	}
	for _, sp := range specs {
		if _, ok, _ := s.Lookup(sp); !ok {
			t.Errorf("reopened store missed seed %d", sp.TCP.Seed)
		}
	}
}

// objectsDirName is the object directory of the current spec encoding.
func objectsDirName() string { return fmt.Sprintf("v%d", SpecVersion) }

// countObjects returns how many object files the store directory holds
// under spec encoding v.
func countObjects(t *testing.T, dir string, v int) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("v%d", v), "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// rootNames lists the names at the store root, sorted.
func rootNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// TestStoreDropsOtherSpecVersions: a store filled under spec encoding v
// and reopened under v+1 deletes v's object directory, which no v+1 spec
// can reach; after a re-run it holds only v+1 objects.
func TestStoreDropsOtherSpecVersions(t *testing.T) {
	dir := t.TempDir()
	specs := []runner.Spec{tcpSpec(1), tcpSpec(2)}
	fill := func(v int) {
		s, err := open(dir, v)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i, sp := range specs {
			if _, ok, _ := s.Lookup(sp); ok {
				continue
			}
			if err := s.Store(sp, tcpResult(float64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	const v = SpecVersion
	fill(v)
	if n := countObjects(t, dir, v); n != len(specs) {
		t.Fatalf("store filled under v holds %d objects, want %d", n, len(specs))
	}

	s, err := open(dir, v+1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if _, ok, _ := s.Lookup(sp); ok {
			t.Errorf("reopened under v+1: seed %d hit a v object", sp.TCP.Seed)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{lockName, quarantineDir, fmt.Sprintf("v%d", v+1)}
	slices.Sort(want)
	if got := rootNames(t, dir); !slices.Equal(got, want) {
		t.Errorf("reopened under v+1: root holds %v, want %v", got, want)
	}

	fill(v + 1)
	if n := countObjects(t, dir, v+1); n != len(specs) {
		t.Errorf("after the v+1 re-run: %d objects, want %d", n, len(specs))
	}
	s, err = open(dir, v+1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, sp := range specs {
		if _, ok, _ := s.Lookup(sp); !ok {
			t.Errorf("reopened v+1 store missed seed %d", sp.TCP.Seed)
		}
	}
}

// TestOpenDropsIndexedLayout: a store written in the earlier layout — an
// index.json beside objects/<id>.json — loses both names on Open, keeps a
// user file at its root, runs its cells once more and then serves them.
func TestOpenDropsIndexedLayout(t *testing.T) {
	dir := t.TempDir()
	specs := []runner.Spec{tcpSpec(1), tcpSpec(2)}
	old := filepath.Join(dir, "objects")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	entries := map[string]any{}
	for i, sp := range specs {
		id, err := SpecID(sp)
		if err != nil {
			t.Fatal(err)
		}
		blob := []byte(fmt.Sprintf(`{"id":%q,"spec_version":1,"key":"tcp/test","scheme":"BA","seed":%d,"tcp":{"ThroughputMbps":%d}}`,
			id, sp.TCP.Seed, i+1))
		if err := os.WriteFile(filepath.Join(old, id+".json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		entries[id] = map[string]any{"file": "objects/" + id + ".json", "sha256": hex.EncodeToString(sum[:]),
			"key": "tcp/test", "scheme": "BA", "seed": sp.TCP.Seed}
	}
	idx, err := json.Marshal(map[string]any{"version": 1, "spec_version": 1, "entries": entries})
	if err != nil {
		t.Fatal(err)
	}
	user := filepath.Join(dir, "my-notes.txt")
	for p, b := range map[string][]byte{filepath.Join(dir, "index.json"): idx, user: []byte("keep me")} {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	run := func() Stats {
		t.Helper()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		pool := runner.Pool{Workers: 2, Cache: s, Resume: true}
		results, err := pool.Run(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil || r.TCP == nil || r.TCP.ThroughputMbps <= 0 {
				t.Fatalf("cell %s: err %v, result %+v", r.Key, r.Err, r.TCP)
			}
		}
		return s.Stats()
	}
	if st := run(); st.Hits != 0 || st.Stored != len(specs) {
		t.Errorf("first run on the indexed layout: %+v, want 0 hits and %d stored", st, len(specs))
	}
	want := []string{lockName, "my-notes.txt", quarantineDir, objectsDirName()}
	slices.Sort(want)
	if got := rootNames(t, dir); !slices.Equal(got, want) {
		t.Errorf("store root holds %v, want %v", got, want)
	}
	if b, err := os.ReadFile(user); err != nil || string(b) != "keep me" {
		t.Errorf("user file changed: %q, %v", b, err)
	}
	if st := run(); st.Hits != len(specs) || st.Stored != 0 {
		t.Errorf("second run: %+v, want %d hits and 0 stored", st, len(specs))
	}
}

// specSchema renders the shape of every type a spec's canonical encoding
// reaches: struct field names with their types, recursively.
func specSchema(t reflect.Type, seen map[reflect.Type]bool) string {
	switch t.Kind() {
	case reflect.Pointer:
		return "*" + specSchema(t.Elem(), seen)
	case reflect.Slice:
		return "[]" + specSchema(t.Elem(), seen)
	case reflect.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), specSchema(t.Elem(), seen))
	case reflect.Map:
		return "map[" + specSchema(t.Key(), seen) + "]" + specSchema(t.Elem(), seen)
	case reflect.Struct:
		if seen[t] {
			return t.String()
		}
		seen[t] = true
		var b strings.Builder
		b.WriteString(t.String() + "{")
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Type.Kind() == reflect.Func {
				continue
			}
			b.WriteString(f.Name + " " + specSchema(f.Type, seen) + ";")
		}
		return b.String() + "}"
	}
	return t.String()
}

// TestSpecVersionPinsSchema: the config types that SpecID encodes have
// the shape SpecVersion was set for. When this fails, the spec encoding
// has changed: bump SpecVersion in key.go and record the new fingerprint
// here.
func TestSpecVersionPinsSchema(t *testing.T) {
	const version, fingerprint = 2, "d8d94fa5c7113846"
	sum := sha256.Sum256([]byte(specSchema(reflect.TypeOf(specEnvelope{}), map[reflect.Type]bool{})))
	got := hex.EncodeToString(sum[:8])
	if version != SpecVersion || got != fingerprint {
		t.Fatalf("spec encoding fingerprint %s at SpecVersion %d; pinned %s at %d: "+
			"bump SpecVersion and pin the new fingerprint", got, SpecVersion, fingerprint, version)
	}
}
