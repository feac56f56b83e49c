package store

import (
	"strings"
	"testing"
)

// FuzzStoreIndex pins two properties of the index parser on arbitrary
// bytes: it never panics, and anything it accepts survives an encode/parse
// round trip unchanged — so a store can always rewrite the index it just
// read. CI runs the seed corpus plus a short fuzz smoke; `go test -fuzz
// FuzzStoreIndex ./internal/store` digs deeper locally.
func FuzzStoreIndex(f *testing.F) {
	id := strings.Repeat("ab", 32)
	sum := strings.Repeat("cd", 32)
	valid := `{"version":1,"entries":{"` + id + `":{"file":"objects/` + id +
		`.json","sha256":"` + sum + `","key":"tcp/BA/1hop","scheme":"BA","seed":42}}}`
	f.Add([]byte(valid))
	f.Add([]byte(`{"version":1,"entries":{}}`))
	f.Add([]byte(`{"version":99,"entries":{}}`))
	f.Add([]byte(`{"version":1,"entries":{"` + id + `":{"file":"../escape","sha256":"` + sum + `"}}}`))
	f.Add([]byte(`{"version":1,"entries":{"short":{"file":"objects/x.json","sha256":"` + sum + `"}}}`))
	f.Add([]byte(valid[:len(valid)/2])) // truncated write
	f.Add([]byte(valid + "trailing garbage"))
	f.Add([]byte(`{"version":1,"entries":{},"unknown":true}`))
	f.Add([]byte(""))
	f.Add([]byte("null"))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"version":1,"spec_version":1,"entries":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := ParseIndex(data)
		if err != nil {
			return
		}
		// Accepted documents must round-trip: encode, re-parse, compare.
		enc, err := idx.Encode()
		if err != nil {
			t.Fatalf("accepted index failed to encode: %v", err)
		}
		again, err := ParseIndex(enc)
		if err != nil {
			t.Fatalf("encoded index failed to re-parse: %v", err)
		}
		if again.Version != idx.Version || again.SpecVersion != idx.SpecVersion || len(again.Entries) != len(idx.Entries) {
			t.Fatalf("round trip changed the index: %+v vs %+v", again, idx)
		}
		for k, e := range idx.Entries {
			if again.Entries[k] != e {
				t.Fatalf("round trip changed entry %s: %+v vs %+v", k, again.Entries[k], e)
			}
		}
	})
}
