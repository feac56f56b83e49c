// Package store is the durable, content-addressed results store behind
// crash-safe sweeps: each completed simulation cell is persisted as it
// lands, keyed by the content hash of its full spec (config, scheme, seed),
// so a killed sweep re-run with -resume serves finished cells from disk and
// only executes the remainder — byte-identical to an uninterrupted run,
// because cells are pure functions of their spec and JSON round-trips of
// the result structs are lossless.
//
// Durability and integrity:
//
//   - Every write (object files and the index) goes through write-to-temp,
//     fsync, rename in the same directory, so a SIGKILL or crash leaves
//     either the old state or the new state, never a torn file.
//   - Every object records its SHA-256 in the index; reads verify it, and a
//     mismatch quarantines the file (moved into quarantine/, index entry
//     dropped) and reports a miss instead of serving corrupt data.
//   - The store root is guarded by an exclusive file lock; a second writer
//     fails fast with ErrLocked instead of interleaving index rewrites.
//   - An unreadable or wrong-version index is quarantined and rebuilt from
//     the objects themselves (each object is self-describing and
//     self-authenticating), so index damage costs a scan, not the cache.
//   - The index and every object record the spec encoding (SpecVersion)
//     they were stored under. Open deletes the objects of any other
//     encoding, which no current spec can reach, so a store does not grow
//     with every config change.
//
// Layout under the store root:
//
//	LOCK                    flock target, held for the store's lifetime
//	index.json              versioned index (see index.go)
//	objects/<id>.json       one completed cell per file, id = spec hash
//	quarantine/             corrupt files moved aside for post-mortem
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"aggmac/internal/core"
	"aggmac/internal/runner"
)

const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	indexName     = "index.json"
	lockName      = "LOCK"
)

// ErrLocked reports that another process holds the store's writer lock.
var ErrLocked = errors.New("store: already locked by another process")

// Stats counts cache traffic since Open.
type Stats struct {
	// Hits and Misses count Lookup outcomes.
	Hits, Misses int
	// Corrupt counts entries quarantined after failing verification.
	Corrupt int
}

// Store is a directory-backed results cache. It implements runner.Cache.
// All methods are safe for concurrent use by the worker pool.
type Store struct {
	dir  string
	lock *os.File
	// spec is the spec encoding this store keeps objects of: SpecVersion
	// outside tests.
	spec int

	mu    sync.Mutex
	idx   Index
	stats Stats
}

// object is the durable form of one completed run: self-describing (it
// repeats its ID and identity) so the index can be rebuilt from objects
// alone, and carrying exactly one result payload. Wall-clock time is
// deliberately not stored — a cached cell reports Wall 0 and Cached true.
type object struct {
	ID          string               `json:"id"`
	SpecVersion int                  `json:"spec_version"`
	Key         string               `json:"key"`
	Scheme      string               `json:"scheme"`
	Seed        int64                `json:"seed"`
	TCP         *core.TCPResult      `json:"tcp,omitempty"`
	UDP         *core.UDPResult      `json:"udp,omitempty"`
	Mesh        *core.MeshResult     `json:"mesh,omitempty"`
	Scenario    *core.ScenarioResult `json:"scenario,omitempty"`
}

// Open creates (if needed) and locks the store at dir. It fails fast with
// an error wrapping ErrLocked when another process holds the lock, and
// recovers from a damaged or wrong-version index by quarantining it and
// rebuilding from the object files. An index of another spec encoding is
// rebuilt too, which deletes the objects stored under that encoding.
func Open(dir string) (*Store, error) { return open(dir, SpecVersion) }

// open is Open keeping the objects of spec encoding spec.
func open(dir string, spec int) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, objectsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	lock, err := acquireLock(filepath.Join(dir, lockName))
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", dir, err)
	}
	s := &Store{dir: dir, lock: lock, spec: spec}

	data, err := os.ReadFile(filepath.Join(dir, indexName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh store (or one killed before its first flush): rebuild picks
		// up any objects that landed without an index update.
		if err := s.rebuild(); err != nil {
			releaseLock(lock)
			return nil, err
		}
	case err != nil:
		releaseLock(lock)
		return nil, fmt.Errorf("store: %w", err)
	default:
		idx, perr := ParseIndex(data)
		if perr != nil {
			// Damaged index: move it aside and recover from the objects.
			_ = os.Rename(filepath.Join(dir, indexName), filepath.Join(dir, quarantineDir, indexName))
			if err := s.rebuild(); err != nil {
				releaseLock(lock)
				return nil, err
			}
		} else if idx.SpecVersion != spec {
			// Stored under another spec encoding: no current spec can
			// reach these objects.
			if err := s.rebuild(); err != nil {
				releaseLock(lock)
				return nil, err
			}
		} else {
			s.idx = idx
		}
	}
	return s, nil
}

// Close releases the store's lock. The index and objects are already
// durable — every Put flushes synchronously — so Close has nothing to
// write.
func (s *Store) Close() error {
	if s.lock == nil {
		return nil
	}
	err := releaseLock(s.lock)
	s.lock = nil
	return err
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of cells currently indexed.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx.Entries)
}

// Stats returns cache-traffic counters since Open.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Lookup implements runner.Cache: it returns the stored result for the
// spec's cell, verifying the object's checksum first. Corrupt entries are
// quarantined and report a miss, so a damaged store degrades to re-running
// cells, never to serving wrong data.
func (s *Store) Lookup(spec runner.Spec) (runner.Result, bool, error) {
	id, err := SpecID(spec)
	if err != nil {
		return runner.Result{}, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.idx.Entries[id]
	if !ok {
		s.stats.Misses++
		return runner.Result{}, false, nil
	}
	blob, err := os.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil {
		s.quarantineLocked(id, e)
		return runner.Result{}, false, nil
	}
	sum := sha256.Sum256(blob)
	if hex.EncodeToString(sum[:]) != e.SHA256 {
		s.quarantineLocked(id, e)
		return runner.Result{}, false, nil
	}
	var obj object
	if err := json.Unmarshal(blob, &obj); err != nil || obj.ID != id {
		s.quarantineLocked(id, e)
		return runner.Result{}, false, nil
	}
	s.stats.Hits++
	return runner.Result{
		Key: obj.Key,
		TCP: obj.TCP, UDP: obj.UDP, Mesh: obj.Mesh, Scenario: obj.Scenario,
	}, true, nil
}

// Store implements runner.Cache: it durably persists a completed result
// (object file, then index, each via temp+fsync+rename) before returning,
// so a kill immediately after sees the cell on resume. Failed runs are
// never stored — an error result would otherwise mask a later success.
func (s *Store) Store(spec runner.Spec, r runner.Result) error {
	if r.Err != nil {
		return fmt.Errorf("store: refusing to store failed run %q: %v", spec.Key, r.Err)
	}
	id, err := SpecID(spec)
	if err != nil {
		return err
	}
	scheme, seed := specMeta(spec)
	obj := object{
		ID: id, SpecVersion: s.spec, Key: spec.Key, Scheme: scheme, Seed: seed,
		TCP: r.TCP, UDP: r.UDP, Mesh: r.Mesh, Scenario: r.Scenario,
	}
	blob, err := json.Marshal(obj)
	if err != nil {
		return fmt.Errorf("store: encode result %q: %w", spec.Key, err)
	}
	sum := sha256.Sum256(blob)
	rel := objectsDir + "/" + id + ".json"

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := atomicWrite(filepath.Join(s.dir, rel), blob); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.idx.Entries[id] = Entry{
		File: rel, SHA256: hex.EncodeToString(sum[:]),
		Key: spec.Key, Scheme: scheme, Seed: seed,
	}
	return s.writeIndexLocked()
}

// quarantineLocked moves a failed entry's file into quarantine/, drops it
// from the index and persists the index, best-effort: the caller already
// treats the entry as a miss, and the next Put will rewrite the index
// anyway.
func (s *Store) quarantineLocked(id string, e Entry) {
	s.stats.Corrupt++
	_ = os.Rename(filepath.Join(s.dir, e.File), filepath.Join(s.dir, quarantineDir, filepath.Base(e.File)))
	delete(s.idx.Entries, id)
	_ = s.writeIndexLocked()
}

// writeIndexLocked persists the in-memory index atomically.
func (s *Store) writeIndexLocked() error {
	b, err := s.idx.Encode()
	if err != nil {
		return err
	}
	if err := atomicWrite(filepath.Join(s.dir, indexName), b); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// rebuild reconstructs the index by scanning objects/: every well-formed,
// self-consistent object of the store's spec encoding becomes an entry
// (checksummed over its exact bytes); objects of another encoding are
// deleted, and anything else — temp leftovers, truncated writes, files
// whose recorded ID disagrees with their name — is quarantined or ignored.
func (s *Store) rebuild() error {
	dir := filepath.Join(s.dir, objectsDir)
	des, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: rebuild: %w", err)
	}
	s.idx = Index{Version: IndexVersion, SpecVersion: s.spec, Entries: map[string]Entry{}}
	for _, de := range des {
		name := de.Name()
		id, okName := strings.CutSuffix(name, ".json")
		if de.IsDir() || !okName || !isHex64(id) {
			// Temp files from interrupted writes and stray names are not
			// objects; remove temps, ignore the rest.
			if strings.HasPrefix(name, tmpPrefix) {
				_ = os.Remove(filepath.Join(dir, name))
			}
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		var obj object
		if json.Unmarshal(blob, &obj) != nil || obj.ID != id {
			s.stats.Corrupt++
			_ = os.Rename(filepath.Join(dir, name), filepath.Join(s.dir, quarantineDir, name))
			continue
		}
		if obj.SpecVersion != s.spec {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		sum := sha256.Sum256(blob)
		s.idx.Entries[id] = Entry{
			File: objectsDir + "/" + name, SHA256: hex.EncodeToString(sum[:]),
			Key: obj.Key, Scheme: obj.Scheme, Seed: obj.Seed,
		}
	}
	return s.writeIndexLocked()
}

const tmpPrefix = ".tmp-"

// atomicWrite lands data at path via a temp file in the same directory,
// fsync and rename, so concurrent readers and post-kill recovery see
// either the previous content or the new content in full.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tmpPrefix+filepath.Base(path)+"-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
