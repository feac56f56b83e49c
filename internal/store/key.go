// Cache keys: a cell is identified by the content of its spec — the full
// simulation config including scheme and seed — not by its position in a
// sweep or its display key. Two sweeps that enumerate the same (config,
// seed) cell therefore share one cache slot, and any config change (a
// different aggregation cap, an extra fault process, a new seed) moves the
// cell to a fresh slot instead of serving stale results.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"

	"aggmac/internal/core"
	"aggmac/internal/runner"
)

// SpecVersion is the generation of the canonical spec encoding that
// SpecID hashes. A change to the shape of any config type a spec reaches
// (a field added, removed, renamed or retyped) moves every SpecID, which
// leaves the objects stored under the old encoding unreachable; bump
// SpecVersion with it, and Open deletes their directory.
// TestSpecVersionPinsSchema fails until the bump is made.
const SpecVersion = 2

// specEnvelope is the shape that gets canonicalized and hashed. Exactly one
// of the config pointers is set; the field names distinguish the run kinds,
// so a TCP config and a UDP config with coincidentally equal bytes can
// never collide. Spec.Key is deliberately excluded: the key only matters
// through the seed it derived, and the seed is part of the config.
type specEnvelope struct {
	TCP      *core.TCPConfig
	UDP      *core.UDPConfig
	Mesh     *core.MeshTCPConfig
	Scenario *core.ScenarioConfig
}

// SpecID returns the content hash identifying a spec's store slot: the
// SHA-256 of the spec's canonical JSON encoding (see canonical). Specs
// carrying non-serializable hooks (a set Tweak callback) are not cacheable
// and report an error rather than hashing to something that ignores the
// hook and serves a result the hook would have changed.
func SpecID(s runner.Spec) (string, error) {
	env, err := canonical(reflect.ValueOf(specEnvelope{
		TCP: s.TCP, UDP: s.UDP, Mesh: s.Mesh, Scenario: s.Scenario,
	}))
	if err != nil {
		return "", fmt.Errorf("store: spec %q is not cacheable: %w", s.Key, err)
	}
	b, err := json.Marshal(env)
	if err != nil {
		return "", fmt.Errorf("store: spec %q is not cacheable: %w", s.Key, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// canonical converts a config value into a JSON-marshalable form with a
// deterministic encoding: structs become maps keyed by field name (the
// encoder sorts map keys), nil pointers/slices become null, and func-typed
// hook fields are skipped when nil — encoding/json would reject them even
// unset, which would make every TCP and mesh config uncacheable. A hook
// that is actually set makes the spec uncacheable: the hook's effect on the
// run cannot be captured in the hash.
func canonical(v reflect.Value) (any, error) {
	switch v.Kind() {
	case reflect.Invalid:
		return nil, nil
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil, nil
		}
		return canonical(v.Elem())
	case reflect.Func:
		if v.IsNil() {
			return nil, nil
		}
		return nil, fmt.Errorf("non-serializable %s hook is set", v.Type())
	case reflect.Struct:
		t := v.Type()
		m := make(map[string]any, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Type.Kind() == reflect.Func {
				if !v.Field(i).IsNil() {
					return nil, fmt.Errorf("%s.%s hook is set", t.Name(), f.Name)
				}
				continue
			}
			c, err := canonical(v.Field(i))
			if err != nil {
				return nil, err
			}
			m[f.Name] = c
		}
		return m, nil
	case reflect.Slice:
		if v.IsNil() {
			return nil, nil
		}
		fallthrough
	case reflect.Array:
		out := make([]any, v.Len())
		for i := range out {
			c, err := canonical(v.Index(i))
			if err != nil {
				return nil, err
			}
			out[i] = c
		}
		return out, nil
	case reflect.Map:
		if v.IsNil() {
			return nil, nil
		}
		if v.Type().Key().Kind() != reflect.String {
			return nil, fmt.Errorf("non-string map key in %s", v.Type())
		}
		m := make(map[string]any, v.Len())
		it := v.MapRange()
		for it.Next() {
			c, err := canonical(it.Value())
			if err != nil {
				return nil, err
			}
			m[it.Key().String()] = c
		}
		return m, nil
	case reflect.Chan, reflect.UnsafePointer:
		return nil, fmt.Errorf("non-serializable %s field", v.Type())
	default:
		return v.Interface(), nil
	}
}

// specMeta extracts the human-readable identity recorded in each object:
// the MAC scheme name and the run's seed.
func specMeta(s runner.Spec) (scheme string, seed int64) {
	switch {
	case s.TCP != nil:
		return s.TCP.Scheme.Name(), s.TCP.Seed
	case s.UDP != nil:
		return s.UDP.Scheme.Name(), s.UDP.Seed
	case s.Mesh != nil:
		return s.Mesh.Scheme.Name(), s.Mesh.Seed
	case s.Scenario != nil:
		seed := s.Scenario.Seed
		if seed == 0 {
			seed = s.Scenario.Scenario.Seed
		}
		return s.Scenario.Scheme.Name(), seed
	}
	return "", 0
}
