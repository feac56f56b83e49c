package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"path"
	"strconv"
	"strings"
)

// cpuLayers are the buckets of the profiled pass's CPU samples: the
// repository's modules, and go for the Go runtime.
var cpuLayers = []string{"sim", "medium", "phy", "frame", "mac", "network", "tcp", "udp",
	"routing", "topology", "traffic", "faults", "core", "experiments", "runner", "telemetry", "go"}

// gcFrames mark a sample as garbage-collector work wherever it ran.
var gcFrames = []string{"runtime.gcAssistAlloc", "runtime.gcBgMarkWorker", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot"}

// stackFrame is one function on a sampled stack, with the file its code is in.
type stackFrame struct{ fn, file string }

// layer names the repository module a frame's code belongs to, or "".
// It goes by the source file, internal/<layer>/*.go, not by the function
// name: a closure inlined into another package is named after that
// package but its code is its own.
func (f stackFrame) layer() string {
	if !strings.HasPrefix(f.fn, "aggmac/") {
		return ""
	}
	dir := path.Dir(f.file)
	if path.Base(path.Dir(dir)) != "internal" {
		return ""
	}
	return path.Base(dir)
}

// sampleLayer buckets one CPU sample by its stack, leaf first: GC work
// counts for go wherever it ran; otherwise the innermost repository frame
// names the layer, so a map probe or memmove made for the medium counts
// for the medium; a stack with no repository frame counts for go when it
// holds runtime frames (scheduler, idle GC) and for other when not (the
// benchmark's own code).
func sampleLayer(stack []stackFrame) string {
	for _, f := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(f.fn, g) {
				return "go"
			}
		}
	}
	for _, f := range stack {
		if l := f.layer(); l != "" {
			return l
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "runtime.") {
			return "go"
		}
	}
	return "other"
}

// cpuShares reads a CPU profile with `go tool pprof -raw` and returns each
// layer's share of the sampled CPU time (flat), and the share of samples
// with the layer anywhere on the stack (cumulative).
func cpuShares(profile string) (flat, cum map[string]float64, err error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", profile)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseRaw(&stdout)
}

// parseRaw buckets the samples of `pprof -raw` output by layer. The output
// lists samples as "count weight: location-ids" (leaf first), then each
// location as "id: address M=mapping function file:line s=start" followed
// by one indented "function file:line" line per caller inlined into it.
func parseRaw(r io.Reader) (flat, cum map[string]float64, err error) {
	type sample struct {
		weight float64
		locs   []int
	}
	var samples []sample
	locs := map[int][]stackFrame{}
	section, loc := "", 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch line {
		case "Samples:", "Locations", "Mappings":
			section = line
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch section {
		case "Samples:":
			head, ids, ok := strings.Cut(line, ":")
			hf := strings.Fields(head)
			if !ok || len(hf) != 2 {
				continue // the column header
			}
			w, err := strconv.ParseFloat(hf[1], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("pprof raw: sample %q: %v", line, err)
			}
			s := sample{weight: w}
			for _, id := range strings.Fields(ids) {
				n, err := strconv.Atoi(id)
				if err != nil {
					return nil, nil, fmt.Errorf("pprof raw: sample %q: %v", line, err)
				}
				s.locs = append(s.locs, n)
			}
			samples = append(samples, s)
		case "Locations":
			if id, ok := strings.CutSuffix(fields[0], ":"); ok {
				n, err := strconv.Atoi(id)
				if err != nil {
					return nil, nil, fmt.Errorf("pprof raw: location %q: %v", line, err)
				}
				loc, fields = n, fields[min(3, len(fields)):]
			}
			if len(fields) >= 2 {
				locs[loc] = append(locs[loc], stackFrame{fn: fields[0], file: fields[1][:strings.IndexByte(fields[1]+":", ':')]})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	flat, cum = map[string]float64{}, map[string]float64{}
	for _, l := range cpuLayers {
		flat[l], cum[l] = 0, 0
	}
	var total float64
	for _, s := range samples {
		var stack []stackFrame
		for _, id := range s.locs {
			stack = append(stack, locs[id]...)
		}
		total += s.weight
		flat[sampleLayer(stack)] += s.weight
		seen := map[string]bool{}
		for _, f := range stack {
			if l := f.layer(); l != "" && !seen[l] {
				seen[l] = true
				cum[l] += s.weight
			}
		}
	}
	if total == 0 {
		return nil, nil, fmt.Errorf("pprof raw: no samples")
	}
	for l := range flat {
		flat[l] /= total
	}
	for l := range cum {
		cum[l] /= total
	}
	return flat, cum, nil
}
