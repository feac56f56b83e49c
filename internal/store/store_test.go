package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Errorf("Stats = %+v, want 1 hit, 1 miss, 0 corrupt", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A different seed occupies a different slot; reopening serves both.
	s2 := mustOpen(t, dir)
	if s2.Len() != 1 {
		t.Fatalf("reopened store Len = %d, want 1", s2.Len())
	}
	if _, ok, _ := s2.Lookup(spec); !ok {
		t.Error("reopened store missed the stored cell")
	}
	if _, ok, _ := s2.Lookup(tcpSpec(8)); ok {
		t.Error("different seed hit the same slot")
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
	if s.Len() != 0 {
		t.Error("failed result landed in the index")
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
	objPath := filepath.Join(dir, objectsDir, id+".json")
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
		t.Error("corrupt object still in objects/")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, id+".json")); err != nil {
		t.Errorf("corrupt object not moved to quarantine/: %v", err)
	}
	if s.Len() != 0 {
		t.Error("corrupt entry still indexed")
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

func TestGarbageIndexRebuiltFromObjects(t *testing.T) {
	dir := t.TempDir()
	specs := storeTwo(t, dir)
	if err := os.WriteFile(filepath.Join(dir, indexName), []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if s.Len() != 2 {
		t.Fatalf("rebuilt store Len = %d, want 2", s.Len())
	}
	for _, sp := range specs {
		if _, ok, _ := s.Lookup(sp); !ok {
			t.Errorf("rebuilt store missed %v", sp.TCP.Seed)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, indexName)); err != nil {
		t.Errorf("damaged index not quarantined: %v", err)
	}
}

func TestWrongVersionIndexRebuilt(t *testing.T) {
	dir := t.TempDir()
	storeTwo(t, dir)
	if err := os.WriteFile(filepath.Join(dir, indexName),
		[]byte(`{"version": 99, "entries": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if s.Len() != 2 {
		t.Fatalf("store with future-version index Len = %d, want 2 after rebuild", s.Len())
	}
}

func TestMissingIndexRebuilt(t *testing.T) {
	dir := t.TempDir()
	specs := storeTwo(t, dir)
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if s.Len() != 2 {
		t.Fatalf("store without index Len = %d, want 2 after rebuild", s.Len())
	}
	if _, ok, _ := s.Lookup(specs[0]); !ok {
		t.Error("rebuilt store missed a cell")
	}
}

func TestRebuildDiscardsTempAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	storeTwo(t, dir)
	objects := filepath.Join(dir, objectsDir)
	// A temp file from an interrupted atomic write, a stray file, and an
	// object whose recorded ID disagrees with its name.
	if err := os.WriteFile(filepath.Join(objects, tmpPrefix+"leftover"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(objects, "README.txt"), []byte("not an object"), 0o644); err != nil {
		t.Fatal(err)
	}
	liar := strings.Repeat("ab", 32) + ".json"
	if err := os.WriteFile(filepath.Join(objects, liar), []byte(`{"id":"`+strings.Repeat("cd", 32)+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir)
	if s.Len() != 2 {
		t.Fatalf("rebuild indexed %d cells, want 2", s.Len())
	}
	if _, err := os.Stat(filepath.Join(objects, tmpPrefix+"leftover")); !errors.Is(err, os.ErrNotExist) {
		t.Error("temp leftover not removed by rebuild")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, liar)); err != nil {
		t.Errorf("lying object not quarantined: %v", err)
	}
}

func TestIndexEncodeParseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	storeTwo(t, dir)
	data, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ParseIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := idx.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("Encode(Parse(index)) is not byte-identical")
	}
}

func TestParseIndexRejectsEscapingPaths(t *testing.T) {
	id := strings.Repeat("ab", 32)
	sum := strings.Repeat("cd", 32)
	for _, file := range []string{
		"../../etc/passwd",
		"objects/../index.json",
		"/objects/" + id + ".json",
		"quarantine/x.json",
		`objects\evil.json`,
	} {
		doc := `{"version":1,"entries":{"` + id + `":{"file":"` + file +
			`","sha256":"` + sum + `","key":"k","scheme":"BA","seed":1}}}`
		if _, err := ParseIndex([]byte(doc)); err == nil {
			t.Errorf("ParseIndex accepted escaping path %q", file)
		}
	}
}

// countObjects returns how many object files the store directory holds.
func countObjects(t *testing.T, dir string) int {
	t.Helper()
	des, err := os.ReadDir(filepath.Join(dir, objectsDir))
	if err != nil {
		t.Fatal(err)
	}
	return len(des)
}

// TestStoreDropsOtherSpecVersions: a store filled under spec encoding v
// and reopened under v+1 drops the old index entries and deletes their
// objects, which no v+1 spec can reach; after a re-run it holds only v+1
// objects.
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
	if n := countObjects(t, dir); n != len(specs) {
		t.Fatalf("store filled under v holds %d objects, want %d", n, len(specs))
	}

	s, err := open(dir, v+1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("reopened under v+1: Len = %d, want 0", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := countObjects(t, dir); n != 0 {
		t.Errorf("reopened under v+1: %d objects left, want 0", n)
	}

	fill(v + 1)
	if n := countObjects(t, dir); n != len(specs) {
		t.Errorf("after the v+1 re-run: %d objects, want %d", n, len(specs))
	}
	data, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ParseIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	if idx.SpecVersion != v+1 || len(idx.Entries) != len(specs) {
		t.Errorf("index records spec version %d with %d entries, want %d with %d",
			idx.SpecVersion, len(idx.Entries), v+1, len(specs))
	}
	// Without its index, the store rebuilds from v+1 objects alone.
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	s, err = open(dir, v+1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, sp := range specs {
		if _, ok, _ := s.Lookup(sp); !ok {
			t.Errorf("rebuilt v+1 store missed seed %d", sp.TCP.Seed)
		}
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
	const version, fingerprint = 1, "dbbbac7fdbd6a910"
	sum := sha256.Sum256([]byte(specSchema(reflect.TypeOf(specEnvelope{}), map[reflect.Type]bool{})))
	got := hex.EncodeToString(sum[:8])
	if version != SpecVersion || got != fingerprint {
		t.Fatalf("spec encoding fingerprint %s at SpecVersion %d; pinned %s at %d: "+
			"bump SpecVersion and pin the new fingerprint", got, SpecVersion, fingerprint, version)
	}
}
