package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// stamp identifies the machine and inputs a result came from, so that
// figures from different machines are never compared.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	InputSet   int64  `json:"input_set"`
	Workers    int    `json:"workers"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

func newStamp(workload string, seed int64, workers int) stamp {
	return stamp{
		Workload: workload, Seed: seed, InputSet: inputSet(seed), Workers: workers,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: cpuModel(),
	}
}

// cpuModel reads the processor name Linux reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
