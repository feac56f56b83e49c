package topology

import (
	"math"
	"slices"
)

// rangeBins finds the node pairs within radio range of each other without
// an all-pairs scan. Nodes are binned into square cells one range on a
// side, laid out as a flat row-major grid over the cells the nodes span and
// filled by counting sort; only same-cell and adjacent-cell pairs are
// examined, so a scan costs O(N · local density). A Mesh keeps one and
// refills it on every scan, so once its buffers have grown a scan
// allocates nothing.
type rangeBins struct {
	cell  [][2]int // each node's cell column and row
	start []int32  // cell c holds order[start[c]:start[c+1]]
	order []int32  // node ids grouped by cell, ascending within a cell
}

// maxCellsPerNode bounds the grid at maxCellsPerNode·N+64 cells, since a
// layout can be far sparser than its range (a scenario's row_spacing puts
// chains any distance apart). Such a layout merges 2^k×2^k range cells
// into one: pairs in adjacent range cells stay in the same or adjacent
// merged cells, so the pairs found do not change, only how many distances
// are checked.
const maxCellsPerNode = 4

// forEachPair visits every unordered pair of pos within rangeLim (> 0) of
// each other exactly once, passing their distance. The visit order is a
// deterministic function of the positions: cells in row-major order; within
// a cell, ascending pairs; then the cell's members against the cells at
// column and row offsets (+1,0), (−1,+1), (0,+1) and (+1,+1).
func (b *rangeBins) forEachPair(pos []Point, rangeLim float64, visit func(a, b int, d float64)) {
	n := len(pos)
	if n < 2 {
		return
	}
	b.cell = slices.Grow(b.cell[:0], n)[:n]
	minX, minY, maxX, maxY := math.MaxInt, math.MaxInt, math.MinInt, math.MinInt
	for i, p := range pos {
		x, y := int(math.Floor(p.X/rangeLim)), int(math.Floor(p.Y/rangeLim))
		b.cell[i] = [2]int{x, y}
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
	}
	// Unsigned spans cannot overflow, and a shift of 64 empties them, so
	// the loop ends.
	w, h := uint64(maxX)-uint64(minX), uint64(maxY)-uint64(minY)
	limit := uint64(maxCellsPerNode*n + 64)
	shift := 0
	for w>>shift >= limit || h>>shift >= limit || (w>>shift+1)*(h>>shift+1) > limit {
		shift++
	}
	cols, rows := int(w>>shift)+1, int(h>>shift)+1
	cells := cols * rows

	b.start = slices.Grow(b.start[:0], cells+1)[:cells+1]
	clear(b.start)
	for i, c := range b.cell {
		c = [2]int{int((uint64(c[0]) - uint64(minX)) >> shift), int((uint64(c[1]) - uint64(minY)) >> shift)}
		b.cell[i] = c
		b.start[c[1]*cols+c[0]+1]++
	}
	for c := 1; c <= cells; c++ {
		b.start[c] += b.start[c-1]
	}
	// Counting sort: place each node at its cell's cursor, which leaves
	// start[c] at the end of cell c; shifting by one cell restores the
	// starts.
	b.order = slices.Grow(b.order[:0], n)[:n]
	for i, c := range b.cell {
		k := c[1]*cols + c[0]
		b.order[b.start[k]] = int32(i)
		b.start[k]++
	}
	copy(b.start[1:], b.start[:cells])
	b.start[0] = 0

	try := func(u, v int32) {
		if d := pos[u].dist(pos[v]); d <= rangeLim {
			visit(int(u), int(v), d)
		}
	}
	// Half-plane offsets visit each unordered cell pair exactly once;
	// within a cell, i<j does the same for node pairs.
	offsets := [...][2]int{{1, 0}, {-1, 1}, {0, 1}, {1, 1}}
	for y := range rows {
		for x := range cols {
			c := y*cols + x
			members := b.order[b.start[c]:b.start[c+1]]
			if len(members) == 0 {
				continue
			}
			for i, a := range members {
				for _, o := range members[i+1:] {
					try(a, o)
				}
			}
			for _, off := range offsets {
				ox, oy := x+off[0], y+off[1]
				if ox < 0 || ox >= cols || oy >= rows {
					continue
				}
				o := oy*cols + ox
				for _, a := range members {
					for _, p := range b.order[b.start[o]:b.start[o+1]] {
						try(a, p)
					}
				}
			}
		}
	}
}
