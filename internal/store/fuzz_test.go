package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzStoreObject writes arbitrary bytes at a cell's object path and pins
// what Lookup makes of them: either a miss that moves the file into
// quarantine/, or a hit that returns exactly the result the store wrote.
// The seed corpus holds that stored file, copies with one byte changed,
// truncated or extended, and well-checksummed bodies that must still fail
// the strict decode or the id check. CI runs the seed corpus plus a short
// fuzz smoke; `go test -fuzz FuzzStoreObject ./internal/store` digs deeper
// locally.
func FuzzStoreObject(f *testing.F) {
	spec, want := tcpSpec(5), tcpResult(1.5)
	id, err := SpecID(spec)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := encodeObject(object{ID: id, Key: want.Key, Scheme: "BA", Seed: 5, TCP: want.TCP})
	if err != nil {
		f.Fatal(err)
	}
	other, err := encodeObject(object{ID: strings.Repeat("ab", 32), Key: want.Key, TCP: want.TCP})
	if err != nil {
		f.Fatal(err)
	}
	// withSum frames body with its correct checksum line.
	withSum := func(body string) []byte {
		sum := sha256.Sum256([]byte(body))
		return []byte(hex.EncodeToString(sum[:]) + "\n" + body)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 1
	upper := bytes.Clone(valid)
	copy(upper, bytes.ToUpper(upper[:64]))
	body := string(valid[65:])

	f.Add(valid)
	f.Add(flipped)
	f.Add(upper)
	f.Add(valid[:len(valid)-1])
	f.Add(append(bytes.Clone(valid), ' '))
	f.Add(valid[65:])
	f.Add(other)
	f.Add(withSum(strings.Replace(body, `"key"`, `"unknown":1,"key"`, 1)))
	f.Add(withSum(body + "}"))
	f.Add(withSum(body + body))
	f.Add(withSum("null"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := os.WriteFile(s.path(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := s.Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(data, valid) && !ok {
			t.Fatal("the file the store wrote missed")
		}
		if ok {
			if !reflect.DeepEqual(got.TCP, want.TCP) || got.Key != want.Key {
				t.Fatalf("hit returned %+v, want the stored %+v", got.TCP, want.TCP)
			}
			return
		}
		if _, err := os.Stat(s.path(id)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("missed object still at its cell's path: %v", err)
		}
		q, err := os.ReadFile(filepath.Join(dir, quarantineDir, id+".json"))
		if err != nil || !bytes.Equal(q, data) {
			t.Fatalf("missed object not quarantined intact: %v", err)
		}
		if st := s.Stats(); st.Corrupt != 1 {
			t.Fatalf("Stats.Corrupt = %d, want 1", st.Corrupt)
		}
	})
}
