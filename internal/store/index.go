// Index file format for the on-disk results store.
//
// The index is one JSON document mapping entry IDs (the spec content hash)
// to the object file holding that cell's result plus its checksum and
// human-readable identity (runner key, scheme, seed). It is versioned so a
// future layout change fails loudly instead of silently misreading old
// stores, and the parser is strict — unknown fields, trailing garbage,
// malformed IDs, checksums, or escaping file paths are all rejected — so a
// half-written or tampered index can never direct reads outside the store
// or at the wrong object. FuzzStoreIndex pins the no-panic and
// parse/encode round-trip properties.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path"
	"strings"
)

// IndexVersion is the store layout generation this package reads and
// writes. Opening a store whose index declares another version fails (the
// index is quarantined and rebuilt from the objects themselves).
const IndexVersion = 1

// Index is the store's versioned table of contents. SpecVersion is the
// spec encoding (see SpecVersion in key.go) every entry was stored under;
// an index written before it was recorded reads 0.
type Index struct {
	Version     int              `json:"version"`
	SpecVersion int              `json:"spec_version"`
	Entries     map[string]Entry `json:"entries"`
}

// Entry locates and authenticates one stored result.
type Entry struct {
	// File is the object's path relative to the store root, always inside
	// objects/.
	File string `json:"file"`
	// SHA256 is the hex checksum of the object file's exact bytes.
	SHA256 string `json:"sha256"`
	// Key, Scheme and Seed identify the cell for humans; the map key (the
	// spec content hash) is what lookups use.
	Key    string `json:"key"`
	Scheme string `json:"scheme"`
	Seed   int64  `json:"seed"`
}

// isHex64 reports whether s is a 64-character lowercase hex string (a
// SHA-256 digest).
func isHex64(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// validEntryFile reports whether p is a clean relative path confined to the
// objects directory — the property that keeps a corrupted or hostile index
// from directing reads or quarantine renames outside the store.
func validEntryFile(p string) bool {
	if p == "" || strings.Contains(p, "\\") {
		return false
	}
	if path.Clean(p) != p {
		return false
	}
	return strings.HasPrefix(p, objectsDir+"/") && !strings.Contains(p, "..")
}

// ParseIndex decodes and validates an index document. It never panics on
// arbitrary input; any structural problem — wrong version, unknown fields,
// trailing data, malformed IDs, checksums or paths — is an error, so a
// damaged index is quarantined and rebuilt rather than trusted.
func ParseIndex(data []byte) (Index, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var idx Index
	if err := dec.Decode(&idx); err != nil {
		return Index{}, fmt.Errorf("store: index: %w", err)
	}
	if dec.More() {
		return Index{}, fmt.Errorf("store: index: trailing data after document")
	}
	if idx.Version != IndexVersion {
		return Index{}, fmt.Errorf("store: index version %d, this build reads version %d", idx.Version, IndexVersion)
	}
	if idx.Entries == nil {
		idx.Entries = map[string]Entry{}
	}
	for id, e := range idx.Entries {
		if !isHex64(id) {
			return Index{}, fmt.Errorf("store: index: entry ID %q is not a SHA-256 hex digest", id)
		}
		if !isHex64(e.SHA256) {
			return Index{}, fmt.Errorf("store: index: entry %s: checksum %q is not a SHA-256 hex digest", id[:12], e.SHA256)
		}
		if !validEntryFile(e.File) {
			return Index{}, fmt.Errorf("store: index: entry %s: file %q escapes the objects directory", id[:12], e.File)
		}
	}
	return idx, nil
}

// Encode renders the index deterministically (encoding/json sorts map
// keys), so identical stores produce identical index bytes.
func (ix Index) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(ix, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: encode index: %w", err)
	}
	return append(b, '\n'), nil
}
