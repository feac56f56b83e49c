// Package store is the durable, content-addressed results store behind
// crash-safe sweeps: each completed simulation cell is persisted as it
// lands, keyed by the content hash of its full spec (config, scheme, seed),
// so a killed sweep re-run with -resume serves finished cells from disk and
// only executes the remainder — byte-identical to an uninterrupted run,
// because cells are pure functions of their spec and JSON round-trips of
// the result structs are lossless.
//
// A cell's spec hash names its file, and that file is the only record of
// the cell: there is no index to keep in step with the objects.
//
// Durability and integrity:
//
//   - Every object is written to a temp file, fsynced and renamed in the
//     same directory, so a SIGKILL or crash leaves either no object or the
//     whole object, never a torn file.
//   - Every object carries the SHA-256 of its own body (see encodeObject).
//     Lookup verifies it, decodes the body strictly and checks the id
//     against the file name; any failure moves the file into quarantine/
//     and reports a miss instead of serving corrupt data.
//   - The store root is guarded by an exclusive file lock; a second writer
//     fails fast with ErrLocked.
//   - Objects live in a directory named after the spec encoding
//     (SpecVersion) they were stored under. Open deletes the directories
//     of any other encoding, which no current spec can reach, so a store
//     does not grow with every config change.
//   - Every path is built from a hex digest; no path is read from a file.
//
// Layout under the store root:
//
//	LOCK                      flock target, held for the store's lifetime
//	v<SpecVersion>/<id>.json  one completed cell per file, id = spec hash
//	quarantine/               corrupt files moved aside for post-mortem
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"aggmac/internal/core"
	"aggmac/internal/runner"
)

const (
	quarantineDir = "quarantine"
	lockName      = "LOCK"
	tmpPrefix     = ".tmp-"
)

// ErrLocked reports that another process holds the store's writer lock.
var ErrLocked = errors.New("store: already locked by another process")

// Stats counts cache traffic since Open.
type Stats struct {
	// Hits and Misses count Lookup outcomes.
	Hits, Misses int
	// Corrupt counts objects quarantined after failing verification.
	Corrupt int
	// Stored counts results persisted by Store.
	Stored int
}

// Store is a directory-backed results cache. It implements runner.Cache.
// All methods are safe for concurrent use by the worker pool.
type Store struct {
	dir  string
	lock *os.File
	// objects is the directory holding this store's spec encoding:
	// v<SpecVersion> outside tests.
	objects string

	mu    sync.Mutex
	stats Stats
}

// object is the durable form of one completed run: it repeats its ID, so a
// file renamed or copied to another cell's name is caught, and carries
// exactly one result payload. Scheme and Seed identify the cell for humans
// reading the file. Wall-clock time is deliberately not stored — a cached
// cell reports Wall 0 and Cached true.
type object struct {
	ID       string               `json:"id"`
	Key      string               `json:"key"`
	Scheme   string               `json:"scheme"`
	Seed     int64                `json:"seed"`
	TCP      *core.TCPResult      `json:"tcp,omitempty"`
	UDP      *core.UDPResult      `json:"udp,omitempty"`
	Mesh     *core.MeshResult     `json:"mesh,omitempty"`
	Scenario *core.ScenarioResult `json:"scenario,omitempty"`
}

// Open creates (if needed) and locks the store at dir. It fails fast with
// an error wrapping ErrLocked when another process holds the lock. Under
// the lock it deletes the names the store owns but no longer uses: the
// index.json and objects/ of the indexed layout, the object directories of
// other spec encodings, and temp files left by interrupted writes. It
// lists directories but reads no object.
func Open(dir string) (*Store, error) { return open(dir, SpecVersion) }

// open is Open keeping the objects of spec encoding spec.
func open(dir string, spec int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := acquireLock(filepath.Join(dir, lockName))
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", dir, err)
	}
	s := &Store{dir: dir, lock: lock, objects: fmt.Sprintf("v%d", spec)}
	if err := s.removeStale(); err != nil {
		releaseLock(lock)
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// removeStale creates the object and quarantine directories and removes
// every stale name the store owns at the root and among the objects.
func (s *Store) removeStale() error {
	for _, d := range []string{s.objects, quarantineDir} {
		if err := os.MkdirAll(filepath.Join(s.dir, d), 0o755); err != nil {
			return err
		}
	}
	for _, sub := range []string{".", s.objects} {
		des, err := os.ReadDir(filepath.Join(s.dir, sub))
		if err != nil {
			return err
		}
		for _, de := range des {
			name := de.Name()
			stale := strings.HasPrefix(name, tmpPrefix)
			if sub == "." {
				stale = stale || name == "index.json" || name == "objects" ||
					(isVersionDir(name) && name != s.objects)
			}
			if stale {
				if err := os.RemoveAll(filepath.Join(s.dir, sub, name)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// isVersionDir reports whether name has the form v<digits>.
func isVersionDir(name string) bool {
	if len(name) < 2 || name[0] != 'v' {
		return false
	}
	for _, c := range name[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// Close releases the store's lock. Every Store is already durable, so
// Close has nothing to write.
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

// Stats returns cache-traffic counters since Open.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Summary returns the resume accounting since Open as lines for stderr:
// the cells served from the store and the cells executed and stored, then,
// when any object failed verification, how many were quarantined. Stdout
// stays byte-identical with and without a warm store.
func (s *Store) Summary() []string {
	st := s.Stats()
	lines := []string{fmt.Sprintf("store %s: %d cell(s) cached, %d executed", s.dir, st.Hits, st.Stored)}
	if st.Corrupt > 0 {
		lines = append(lines, fmt.Sprintf("store: quarantined %d corrupt object(s)", st.Corrupt))
	}
	return lines
}

// path returns the object file of the cell with spec hash id.
func (s *Store) path(id string) string {
	return filepath.Join(s.dir, s.objects, id+".json")
}

// Lookup implements runner.Cache: it returns the stored result for the
// spec's cell. A missing file is a miss; a file that cannot be read, fails
// its checksum, fails the strict decode or names another cell is
// quarantined and reports a miss, so a damaged store degrades to re-running
// cells, never to serving wrong data.
func (s *Store) Lookup(spec runner.Spec) (runner.Result, bool, error) {
	id, err := SpecID(spec)
	if err != nil {
		return runner.Result{}, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, err := s.read(id)
	if errors.Is(err, os.ErrNotExist) {
		s.stats.Misses++
		return runner.Result{}, false, nil
	}
	if err != nil {
		s.stats.Misses++
		s.stats.Corrupt++
		// Best-effort: the cell is a miss either way, and storing it again
		// replaces whatever is left at its path.
		_ = os.Rename(s.path(id), filepath.Join(s.dir, quarantineDir, id+".json"))
		return runner.Result{}, false, nil
	}
	s.stats.Hits++
	return runner.Result{
		Key: obj.Key,
		TCP: obj.TCP, UDP: obj.UDP, Mesh: obj.Mesh, Scenario: obj.Scenario,
	}, true, nil
}

// read reads and verifies the object file of the cell with spec hash id.
// The error wraps os.ErrNotExist when the cell has no file.
func (s *Store) read(id string) (object, error) {
	var obj object
	blob, err := os.ReadFile(s.path(id))
	if err != nil {
		return obj, err
	}
	if err := decodeObject(blob, &obj); err != nil {
		return obj, err
	}
	if obj.ID != id {
		return obj, fmt.Errorf("store: file %s.json holds cell %s", id, obj.ID)
	}
	return obj, nil
}

// Store implements runner.Cache: it durably persists a completed result
// (temp file, fsync, rename) before returning, so a kill immediately after
// sees the cell on resume. A cell whose file already verifies is not
// written again: a sweep that lists one spec under several keys writes it
// once. Failed runs are never stored — an error result would otherwise
// mask a later success.
func (s *Store) Store(spec runner.Spec, r runner.Result) error {
	if r.Err != nil {
		return fmt.Errorf("store: refusing to store failed run %q: %v", spec.Key, r.Err)
	}
	id, err := SpecID(spec)
	if err != nil {
		return err
	}
	scheme, seed := specMeta(spec)
	blob, err := encodeObject(object{
		ID: id, Key: spec.Key, Scheme: scheme, Seed: seed,
		TCP: r.TCP, UDP: r.UDP, Mesh: r.Mesh, Scenario: r.Scenario,
	})
	if err != nil {
		return fmt.Errorf("store: encode result %q: %w", spec.Key, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.read(id); err != nil {
		if err := atomicWrite(s.path(id), blob); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	s.stats.Stored++
	return nil
}

// encodeObject renders an object file: the lowercase hex SHA-256 of the
// JSON body, a newline, then the body. The digest covers every body byte
// and is compared as text, so a change to any byte of the file fails
// decodeObject.
func encodeObject(obj object) ([]byte, error) {
	body, err := json.Marshal(obj)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(body)
	out := make([]byte, 0, hex.EncodedLen(len(sum))+1+len(body))
	out = hex.AppendEncode(out, sum[:])
	out = append(out, '\n')
	return append(out, body...), nil
}

// decodeObject verifies an object file's checksum and strictly decodes its
// body into obj: unknown fields and trailing data are errors.
func decodeObject(blob []byte, obj *object) error {
	const n = 2 * sha256.Size
	if len(blob) <= n || blob[n] != '\n' {
		return errors.New("store: object has no checksum line")
	}
	body := blob[n+1:]
	sum := sha256.Sum256(body)
	if string(blob[:n]) != hex.EncodeToString(sum[:]) {
		return errors.New("store: object checksum mismatch")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(obj); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("store: trailing data after object")
	}
	return nil
}

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
