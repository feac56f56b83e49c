package experiments

import (
	"fmt"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/mac"
	"aggmac/internal/phy"
)

// The speed × update-interval grid the mobility experiment sweeps under
// each base scheme.
var (
	mobilitySpeeds    = []float64{1, 4}
	mobilityIntervals = []time.Duration{500 * time.Millisecond, 2 * time.Second}
)

// Mobility measures aggregate TCP goodput over a mobile mesh — a 5×5 grid
// whose nodes roam under the seeded random-waypoint model — as node speed
// and the position/link/route update interval vary, under all three base
// schemes. Alongside goodput each cell reports the run's route-flap count
// (route-table entries changed by the periodic shortest-path
// recomputation) and link churn (links that came into or fell out of radio
// range), the counters that tell how much topology motion each scheme had
// to survive.
func Mobility(o Options) Table {
	t := Table{
		ID:    "Mobility",
		Title: "Mobile mesh: TCP goodput and topology churn vs node speed (waypoint model)",
		Notes: "grid N=25, 4 flows x 15 KB, speed v in spacing units/s; per update interval iv: aggregate Mbps, route flaps (table entries changed), link churn (ups+downs); incomplete flows count 0 Mbps",
	}
	for _, iv := range mobilityIntervals {
		t.Columns = append(t.Columns,
			fmt.Sprintf("Mbps@%gs", iv.Seconds()),
			fmt.Sprintf("Flaps@%gs", iv.Seconds()),
			fmt.Sprintf("Churn@%gs", iv.Seconds()))
	}
	var p plan
	for _, scheme := range []mac.Scheme{mac.NA, mac.UA, mac.BA} {
		for _, speed := range mobilitySpeeds {
			ri := len(t.Rows)
			t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%s v=%g", scheme.Name(), speed)})
			for _, iv := range mobilityIntervals {
				p.mesh(fmt.Sprintf("mobility/%s/v%g/iv%v", scheme.Name(), speed, iv),
					MobilityCell(scheme, speed, iv, o.Seed),
					func(r core.MeshResult) {
						t.Rows[ri].Values = append(t.Rows[ri].Values,
							r.AggregateMbps,
							float64(r.RouteFlaps),
							float64(r.LinkUps+r.LinkDowns))
					})
			}
		}
	}
	p.run(o)
	return t
}

// MobilityCell builds the mesh config of one mobility-experiment cell.
// bench_test.go and the perfbench module reuse it so their benchmarks
// measure exactly the experiment's configuration.
func MobilityCell(scheme mac.Scheme, speed float64, interval time.Duration, seed int64) core.MeshTCPConfig {
	return core.MeshTCPConfig{
		Scheme: scheme, Rate: phy.Rate2600k,
		Topology: core.MeshGrid, Nodes: 25, Flows: 4,
		Mobility: core.MobilityWaypoint, Speed: speed,
		Pause: time.Second, MoveInterval: interval,
		FileBytes: 15_000, Seed: seed,
		Deadline: 600 * time.Second,
	}
}
