package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"aggmac/internal/core"
)

// refs/<workload>.json holds, for every input set, a digest of each
// cell's simulated result and of each regenerated table. Regenerate with
// -write-refs; a legitimate change to simulated behaviour is the only
// reason to.
//
//go:embed refs/*.json
var refFS embed.FS

type refFile struct {
	Workload string `json:"workload"`
	// Keys names every output of a pass, sorted.
	Keys []string `json:"keys"`
	// Sets[s-1][i] is the digest of Keys[i] in input set s.
	Sets [][]string `json:"sets"`
}

// simulated is the part of a runner result a simulation determines; host
// timings and attempt counts are left out.
type simulated struct {
	TCP      *core.TCPResult      `json:",omitempty"`
	UDP      *core.UDPResult      `json:",omitempty"`
	Mesh     *core.MeshResult     `json:",omitempty"`
	Scenario *core.ScenarioResult `json:",omitempty"`
}

// digest is a short content hash of v's JSON encoding: goodput, events
// run, per-node MAC counters, flow finish times and every other field.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:6]), nil
}

// outputDigests digests every successful cell and table of a pass.
func outputDigests(o *observer) (map[string]string, error) {
	out := make(map[string]string, len(o.cells)+len(o.tables))
	for key, c := range o.cells {
		if !c.ok {
			continue
		}
		r := c.result
		d, err := digest(simulated{r.TCP, r.UDP, r.Mesh, r.Scenario})
		if err != nil {
			return nil, fmt.Errorf("digest %s: %w", key, err)
		}
		out[key] = d
	}
	for key, t := range o.tables {
		d, err := digest(t)
		if err != nil {
			return nil, fmt.Errorf("digest %s: %w", key, err)
		}
		out[key] = d
	}
	return out, nil
}

func loadRefs(workload string) (refFile, error) {
	var rf refFile
	b, err := refFS.ReadFile("refs/" + workload + ".json")
	if err != nil {
		return rf, fmt.Errorf("no reference outputs for %s: %w", workload, err)
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("reference outputs for %s: %w", workload, err)
	}
	if rf.Workload != workload || len(rf.Sets) != inputSets {
		return rf, fmt.Errorf("reference outputs for %s: want %d input sets of workload %q, have %d of %q",
			workload, inputSets, workload, len(rf.Sets), rf.Workload)
	}
	for i, s := range rf.Sets {
		if len(s) != len(rf.Keys) {
			return rf, fmt.Errorf("reference outputs for %s: set %d has %d digests for %d keys",
				workload, i+1, len(s), len(rf.Keys))
		}
	}
	return rf, nil
}

// checkOutputs compares a pass's digests with input set's references.
// Every referenced output counts as attempted; one that is missing,
// differs, or belongs to a failed cell counts as failed, and so does an
// output the references do not know.
func checkOutputs(rf refFile, set int64, got map[string]string) (attempted, failed int, bad []string) {
	want := rf.Sets[set-1]
	seen := make(map[string]bool, len(rf.Keys))
	for i, key := range rf.Keys {
		seen[key] = true
		attempted++
		if got[key] != want[i] {
			failed++
			bad = append(bad, key)
		}
	}
	for key := range got {
		if !seen[key] {
			attempted++
			failed++
			bad = append(bad, key)
		}
	}
	sort.Strings(bad)
	return attempted, failed, bad
}

// writeRefs writes the reference file for a workload from per-set digests
// (index s-1 for set s); every set must produce the same outputs.
func writeRefs(dir, workload string, sets []map[string]string) error {
	var keys []string
	for k := range sets[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	kb, err := json.Marshal(keys)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "{\n\"workload\": %q,\n\"keys\": %s,\n\"sets\": [\n", workload, kb)
	for i, set := range sets {
		if len(set) != len(keys) {
			return fmt.Errorf("input set %d has %d outputs, set 1 has %d", i+1, len(set), len(keys))
		}
		ds := make([]string, len(keys))
		for j, k := range keys {
			d, ok := set[k]
			if !ok {
				return fmt.Errorf("input set %d lacks output %s", i+1, k)
			}
			ds[j] = d
		}
		db, err := json.Marshal(ds)
		if err != nil {
			return err
		}
		sep := ","
		if i == len(sets)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "%s%s\n", db, sep)
	}
	b.WriteString("]\n}\n")
	return os.WriteFile(filepath.Join(dir, workload+".json"), b.Bytes(), 0o644)
}
