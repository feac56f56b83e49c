package experiments

import (
	"reflect"
	"testing"

	"aggmac/internal/traffic"
)

func TestLoadShape(t *testing.T) {
	tab := Load(Options{Seed: 1, Quick: true})
	if tab.ID != "Load" {
		t.Fatalf("ID %q", tab.ID)
	}
	wantCols := []string{"Mbps", "FCTp50ms", "FCTp95ms", "FCTp99ms", "Done%"}
	if !reflect.DeepEqual(tab.Columns, wantCols) {
		t.Fatalf("columns %v, want %v", tab.Columns, wantCols)
	}
	// 2 open-loop rates + 1 closed-loop population, × NA/UA/BA.
	if len(tab.Rows) != 9 {
		t.Fatalf("rows %d, want 9", len(tab.Rows))
	}
	sawFCT := false
	for _, r := range tab.Rows {
		if len(r.Values) != len(wantCols) {
			t.Fatalf("row %q has %d values", r.Label, len(r.Values))
		}
		if r.Values[1] > 0 {
			sawFCT = true
		}
		// p50 ≤ p95 ≤ p99 whenever flows completed.
		if r.Values[1] > r.Values[2] || r.Values[2] > r.Values[3] {
			t.Errorf("row %q: FCT percentiles disordered: %v", r.Label, r.Values[1:4])
		}
	}
	if !sawFCT {
		t.Error("no row recorded a positive FCT p50")
	}
}

func TestLoadDefaults(t *testing.T) {
	if got := loadRates; !reflect.DeepEqual(got, []float64{0.2, 1.0}) {
		t.Errorf("default rates = %v", got)
	}
	if got := loadUsers; got != 6 {
		t.Errorf("default users = %d", got)
	}
}

func TestLoadScenarioValidates(t *testing.T) {
	for _, quick := range []bool{false, true} {
		sc := LoadScenario(traffic.ModeOpen, 0.5, 0, quick)
		if err := sc.Validate(); err != nil {
			t.Errorf("open quick=%v: %v", quick, err)
		}
		sc = LoadScenario(traffic.ModeClosed, 0, 4, quick)
		if err := sc.Validate(); err != nil {
			t.Errorf("closed quick=%v: %v", quick, err)
		}
	}
}
