package topology

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRangePairsMatchBruteForce: the binned scan visits exactly the pairs
// an all-pairs scan finds within range, each once with the same distance,
// in the same order on a repeat — for random layouts with negative
// coordinates, pairs at exactly the range, points on cell edges, a layout
// sparse enough to merge cells, and meshes of 0 and 1 nodes.
func TestRangePairsMatchBruteForce(t *testing.T) {
	const r = 1.5
	rng := rand.New(rand.NewSource(5))
	scatter := func(n int, lo, hi float64) []Point {
		pos := make([]Point, n)
		for i := range pos {
			pos[i] = Point{X: lo + rng.Float64()*(hi-lo), Y: lo + rng.Float64()*(hi-lo)}
		}
		return pos
	}
	// Points on the cell lines (multiples of r) and pairs exactly r apart
	// along both axes and across cells.
	edges := []Point{{0, 0}, {r, 0}, {-r, 0}, {0, r}, {0, -r}, {r, r}, {2 * r, r},
		{-2 * r, -r}, {3 * r, 0}, {r, 2 * r}, {0, 0}, {-r, -r}}
	cases := []struct {
		name string
		pos  []Point
	}{
		{"empty", nil},
		{"single", []Point{{-3, 4}}},
		{"edges", edges},
		{"random", scatter(300, -12, 12)},
		{"dense", scatter(200, -2, 2)},
		{"sparse", append(scatter(40, -1e4, 1e4), Point{5e3, 5e3}, Point{5e3 + r, 5e3})},
		{"grid", NewGrid(9, testMeshCfg(1)).Pos},
	}
	for _, c := range cases {
		want := map[[2]int]float64{}
		for a := range c.pos {
			for b := a + 1; b < len(c.pos); b++ {
				if d := c.pos[a].dist(c.pos[b]); d <= r {
					want[[2]int{a, b}] = d
				}
			}
		}
		var bins rangeBins
		scan := func() (got map[[2]int]float64, order [][2]int) {
			got = map[[2]int]float64{}
			bins.forEachPair(c.pos, r, func(a, b int, d float64) {
				key := [2]int{min(a, b), max(a, b)}
				if _, dup := got[key]; dup {
					t.Errorf("%s: pair %v visited twice", c.name, key)
				}
				got[key] = d
				order = append(order, [2]int{a, b})
			})
			return got, order
		}
		got, order := scan()
		for k, d := range want {
			if gd, ok := got[k]; !ok {
				t.Errorf("%s: pair %v at distance %g missed", c.name, k, d)
			} else if gd != d {
				t.Errorf("%s: pair %v distance %g, want %g", c.name, k, gd, d)
			}
		}
		for k, d := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s: pair %v at distance %g is out of range", c.name, k, d)
			}
		}
		if _, again := scan(); !slices.Equal(order, again) {
			t.Errorf("%s: a second scan visited the pairs in another order", c.name)
		}
	}
}
