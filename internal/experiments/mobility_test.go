package experiments

import (
	"slices"
	"testing"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/mac"
)

func TestMobilityShape(t *testing.T) {
	// The default matrix: a (goodput, route flaps, link churn) column
	// triple per update interval, a row per scheme and speed.
	tab := Mobility(Options{Seed: 1})
	wantCols := []string{
		"Mbps@0.5s", "Flaps@0.5s", "Churn@0.5s",
		"Mbps@2s", "Flaps@2s", "Churn@2s",
	}
	if !slices.Equal(tab.Columns, wantCols) {
		t.Fatalf("columns = %v, want %v", tab.Columns, wantCols)
	}
	if len(tab.Rows) != 6 { // {NA, UA, BA} × two speeds
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	if tab.Rows[0].Label != "NA v=1" || tab.Rows[5].Label != "BA v=4" {
		t.Errorf("row labels = %q .. %q", tab.Rows[0].Label, tab.Rows[5].Label)
	}
	for _, r := range tab.Rows {
		if len(r.Values) != len(wantCols) {
			t.Fatalf("row %q has %d values", r.Label, len(r.Values))
		}
		for c := 0; c < len(r.Values); c += 3 {
			if r.Values[c] <= 0 {
				t.Errorf("row %q %s: goodput %v", r.Label, wantCols[c], r.Values[c])
			}
			if r.Values[c+1] <= 0 || r.Values[c+2] <= 0 {
				t.Errorf("row %q %s: no churn reported (flaps=%v churn=%v)",
					r.Label, wantCols[c], r.Values[c+1], r.Values[c+2])
			}
		}
	}
}

func TestMobilityDefaults(t *testing.T) {
	if got := mobilitySpeeds; !slices.Equal(got, []float64{1, 4}) {
		t.Errorf("default speeds = %v", got)
	}
	if got := mobilityIntervals; !slices.Equal(got, []time.Duration{500 * time.Millisecond, 2 * time.Second}) {
		t.Errorf("default intervals = %v", got)
	}
	cell := MobilityCell(mac.BA, 2, time.Second, 7)
	if cell.Mobility != core.MobilityWaypoint || cell.Speed != 2 ||
		cell.MoveInterval != time.Second || cell.Seed != 7 {
		t.Errorf("MobilityCell = %+v", cell)
	}
}
