// Mesh topology generators: the spatially sparse, multi-collision-domain
// layouts real deployments have (grids, random disk graphs, parallel
// chains), as opposed to the paper's single collision domain. Connectivity
// and per-link SNR derive from node positions through a disk radio model;
// every node reads shortest-path routes from one shared route table
// (network.RouteTable), computed per destination on first lookup, so the
// stacks start with full reachability. Per-transmission simulation cost on
// these layouts is O(degree), not O(N) — see the medium's complexity model.
package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"aggmac/internal/medium"
)

// Point is a node position, in units of the nominal node spacing.
type Point struct{ X, Y float64 }

func (p Point) dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// RadioModel derives link existence and quality from distance: nodes
// within Range hear each other, at the reference SNR up to unit distance
// and log-distance path loss beyond it.
type RadioModel struct {
	// Range is the connectivity radius. The default 1.5 gives grid nodes
	// their 8-neighborhood (orthogonal at d=1, diagonal at √2).
	Range float64
	// RefSNRdB is the link SNR at unit distance and closer; it defaults to
	// the PHY's calibrated SNRdB.
	RefSNRdB float64
	// Exponent is the path-loss exponent applied beyond unit distance
	// (default 3.5, an urban/indoor multi-hop figure).
	Exponent float64
}

// SNRAt returns the link SNR at distance d.
func (rm RadioModel) SNRAt(d float64) float64 {
	if d <= 1 {
		return rm.RefSNRdB
	}
	return rm.RefSNRdB - 10*rm.Exponent*math.Log10(d)
}

// MeshConfig parameterizes a mesh build.
type MeshConfig struct {
	Config
	// Radio overrides the disk radio model; a zero Range selects the
	// default model at the PHY's calibrated SNR.
	Radio RadioModel
	// DeferRoutes attaches no route table: the nodes start with no routes
	// and the caller installs its own (routing.InstallShortestPaths, say);
	// until then HopDistance returns -1 for every distinct pair.
	DeferRoutes bool
}

func (c *MeshConfig) radio() RadioModel {
	rm := c.Radio
	if rm.Range <= 0 {
		rm.Range = 1.5
	}
	if rm.RefSNRdB == 0 {
		rm.RefSNRdB = c.Phy.SNRdB
	}
	if rm.Exponent <= 0 {
		rm.Exponent = 3.5
	}
	return rm
}

// Mesh is a generated multi-collision-domain network.
type Mesh struct {
	*Network
	// Pos holds each node's position. Mobility updates it in place through
	// UpdateLinks.
	Pos []Point
	// Extent is the upper corner of the deployment area: nodes live in
	// [0,Extent.X]×[0,Extent.Y]. Mobility models roam inside it.
	Extent Point
	// Bridged counts links added beyond radio range to join disconnected
	// components (random layouts only).
	Bridged int

	rm      RadioModel  // resolved radio model, shared by build and UpdateLinks
	overlay LinkOverlay // optional link veto / SNR degradation (fault injection)

	// Buffers reused from one refresh to the next, so a mobility or fault
	// tick allocates nothing once they have grown.
	bins   rangeBins         // range-pair scans
	cuts   [][2]int          // UpdateLinks' links to cut
	adjOff []int             // Adjacency: row offsets, n+1 of them
	adjNbr []int             // Adjacency: every row back to back
	adjRow func(i int) []int // Adjacency's result, built once
}

// LinkOverlay lets a fault layer veto links and degrade SNR without its
// own reconciliation path: UpdateLinks consults it on every refresh, so a
// vetoed link is cut through the same incremental SetConnected delta a
// range cut uses and restored links rise the same way. LinkUp must be
// symmetric in (a, b); SNRPenaltyDB is subtracted from the
// distance-derived SNR of in-range pairs. A nil overlay changes nothing.
type LinkOverlay interface {
	LinkUp(a, b int) bool
	SNRPenaltyDB(a, b int) float64
}

// SetOverlay installs (or, with nil, removes) the link overlay. The next
// UpdateLinks reconciles the medium against it.
func (m *Mesh) SetOverlay(o LinkOverlay) { m.overlay = o }

// newMesh builds nodes at the given positions and wires every pair within
// radio range with a distance-derived SNR. Routes are not yet attached.
// Extent defaults to the bounding box of the positions (NewRandomDisk
// widens it to the full placement square).
func newMesh(pos []Point, cfg MeshConfig) *Mesh {
	n := len(pos)
	net := buildOn(medium.NewUnconnected, n, cfg.Config)
	m := &Mesh{Network: net, Pos: pos, rm: cfg.radio()}
	for _, p := range pos {
		if p.X > m.Extent.X {
			m.Extent.X = p.X
		}
		if p.Y > m.Extent.Y {
			m.Extent.Y = p.Y
		}
	}
	m.bins.forEachPair(pos, m.rm.Range, func(a, b int, d float64) {
		m.connect(a, b, m.rm.SNRAt(d))
	})
	return m
}

func (m *Mesh) connect(a, b int, snrdB float64) {
	m.Medium.SetConnected(medium.NodeID(a), medium.NodeID(b), true)
	m.Medium.SetSNR(medium.NodeID(a), medium.NodeID(b), snrdB)
}

// Adjacency snapshots the medium's neighbor index (ascending ids) for the
// routing package's BFS. The snapshot is stable: connectivity changes
// after the call — a mobility tick, say — do not leak into it. It is built
// into buffers the mesh owns and reuses, so it stays valid only until the
// next Adjacency call; a route table copies the rows it is given. Each row
// is returned with its capacity capped so an append cannot spill into the
// next.
func (m *Mesh) Adjacency() func(i int) []int {
	m.adjOff = append(slices.Grow(m.adjOff[:0], len(m.Nodes)+1), 0)
	m.adjNbr = slices.Grow(m.adjNbr[:0], m.degreeSum())
	for i := range m.Nodes {
		for _, id := range m.Medium.Neighbors(medium.NodeID(i)) {
			m.adjNbr = append(m.adjNbr, int(id))
		}
		m.adjOff = append(m.adjOff, len(m.adjNbr))
	}
	if m.adjRow == nil {
		m.adjRow = func(i int) []int { return m.adjNbr[m.adjOff[i]:m.adjOff[i+1]:m.adjOff[i+1]] }
	}
	return m.adjRow
}

// attachRoutes gives every node one shared shortest-path route table over
// the current links, with no column computed yet, unless the config
// deferred routing to the caller.
func (m *Mesh) attachRoutes(cfg MeshConfig) {
	if !cfg.DeferRoutes {
		m.shareRoutes(m.Adjacency())
	}
}

// bridgeComponents joins disconnected components (possible in random
// layouts) by linking the globally closest pair of nodes in different
// components, repeatedly, until the graph is connected. Bridge links carry
// the SNR of an at-range link — the deployment answer would be "add a
// relay or a better antenna there".
func (m *Mesh) bridgeComponents() {
	n := len(m.Nodes)
	for {
		comp := m.components()
		split := false
		for _, c := range comp {
			if c > 0 {
				split = true
				break
			}
		}
		if !split {
			return
		}
		bestA, bestB, bestD := -1, -1, math.Inf(1)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if comp[a] == comp[b] {
					continue
				}
				if d := m.Pos[a].dist(m.Pos[b]); d < bestD {
					bestA, bestB, bestD = a, b, d
				}
			}
		}
		m.connect(bestA, bestB, m.rm.SNRAt(m.rm.Range))
		m.Bridged++
	}
}

// components labels each node with its connected-component index (labels
// are assigned in ascending order of the component's lowest node id).
func (m *Mesh) components() []int {
	n := len(m.Nodes)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = next
		queue := []int{s}
		for head := 0; head < len(queue); head++ {
			for _, v := range m.Medium.Neighbors(medium.NodeID(queue[head])) {
				if comp[v] == -1 {
					comp[v] = next
					queue = append(queue, int(v))
				}
			}
		}
		next++
	}
	return comp
}

// degreeSum is the number of directed links in the medium.
func (m *Mesh) degreeSum() int {
	total := 0
	for i := range m.Nodes {
		total += m.Medium.Degree(medium.NodeID(i))
	}
	return total
}

// LinkCount is the number of bidirectional links currently wired. Every
// mesh link is set both ways, so it is half the degree sum.
func (m *Mesh) LinkCount() int { return m.degreeSum() / 2 }

// AvgDegree is the mean number of neighbors per node.
func (m *Mesh) AvgDegree() float64 {
	if len(m.Nodes) == 0 {
		return 0
	}
	return float64(m.degreeSum()) / float64(len(m.Nodes))
}

// HopDistance walks the routes from a to b and returns the hop count (-1
// if no route). On a shared route table it computes b's column if no node
// has looked it up yet.
func (m *Mesh) HopDistance(a, b int) int {
	if a == b {
		return 0
	}
	hops := 0
	cur := a
	for cur != b {
		next, ok := m.Nodes[cur].Route(m.Nodes[b].ID())
		if !ok {
			return -1
		}
		cur = int(next)
		if hops++; hops > len(m.Nodes) {
			return -1 // defensive: a routing loop would spin forever
		}
	}
	return hops
}

// NewGrid builds a k×k grid mesh at unit spacing with shortest-path routes
// attached. With the default radio model every interior node has its
// 8-neighborhood; per-transmission cost is O(degree) however large k grows.
func NewGrid(k int, cfg MeshConfig) *Mesh {
	if k < 2 {
		panic(fmt.Sprintf("topology: grid needs k >= 2, got %d", k))
	}
	pos := make([]Point, 0, k*k)
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			pos = append(pos, Point{X: float64(c), Y: float64(r)})
		}
	}
	m := newMesh(pos, cfg)
	m.attachRoutes(cfg)
	return m
}

// NewRandomDisk scatters n nodes uniformly over a √n × √n area (unit
// density, so expected degree is fixed as n grows) using a placement
// stream derived from cfg.Seed but decoupled from the simulation's RNG,
// connects pairs within radio range, bridges any disconnected components
// through their closest node pairs, and attaches shortest-path routes.
func NewRandomDisk(n int, cfg MeshConfig) *Mesh {
	if n < 2 {
		panic(fmt.Sprintf("topology: disk mesh needs n >= 2, got %d", n))
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x6d657368)) // "mesh"
	side := math.Sqrt(float64(n))
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	m := newMesh(pos, cfg)
	m.Extent = Point{X: side, Y: side}
	m.bridgeComponents()
	m.attachRoutes(cfg)
	return m
}

// NewParallelChains builds `chains` horizontal chains of hops+1 nodes each
// (node numbering is row-major: chain i, position j is node i*(hops+1)+j),
// separated vertically by rowSpacing (0 selects 1.0). At the default
// spacing adjacent chains are in radio range of each other — distinct
// linear flows share spectrum and cross-chain routes exist for cross
// traffic; spacing beyond the radio range isolates the chains into
// independent collision domains.
func NewParallelChains(chains, hops int, rowSpacing float64, cfg MeshConfig) *Mesh {
	if chains < 1 || hops < 1 {
		panic(fmt.Sprintf("topology: parallel chains need chains >= 1 and hops >= 1, got %d/%d", chains, hops))
	}
	if rowSpacing <= 0 {
		rowSpacing = 1
	}
	cols := hops + 1
	pos := make([]Point, 0, chains*cols)
	for i := 0; i < chains; i++ {
		for j := 0; j < cols; j++ {
			pos = append(pos, Point{X: float64(j), Y: float64(i) * rowSpacing})
		}
	}
	m := newMesh(pos, cfg)
	m.attachRoutes(cfg)
	return m
}

// ChainNode returns the node id of position idx on the given chain of a
// NewParallelChains mesh with the given hop count.
func ChainNode(chain, idx, hops int) int { return chain*(hops+1) + idx }

// LinkDelta summarizes one connectivity refresh.
type LinkDelta struct {
	// Up / Down count links that came into / fell out of radio range.
	Up, Down int
	// InRange counts node pairs within range after the update; each had
	// its SNR refreshed from the new distance.
	InRange int
}

// UpdateLinks moves the mesh's nodes to pos and reconciles the medium's
// connectivity and per-link SNR with the new distances, pushing only
// deltas through the medium's incremental SetConnected/SetSNR paths.
//
// Cuts walk the existing neighbor lists (O(E)); candidate raises come from
// the mesh's range bins (rangeBins), so only same-cell and adjacent-cell
// pairs are examined — O(N · local density), never an O(N²) all-pairs
// scan. The setters are idempotent state writes with no RNG draws, so the
// outcome does not depend on the pair visit order. The cut list and the
// bins are mesh-owned buffers, so a refresh allocates nothing once they
// have grown.
//
// Links wired beyond radio range at build time (component bridges) follow
// the radio model from the first refresh on: mobility either brings the
// endpoints into real range or the bridge is cut. Pos is updated in place.
//
// With a LinkOverlay installed, overlay-vetoed pairs are cut (and kept
// cut) and in-range SNRs carry the overlay's penalty; the overlay is
// consulted against the freshly copied positions.
func (m *Mesh) UpdateLinks(pos []Point) LinkDelta {
	copy(m.Pos, pos)
	n := len(m.Pos)
	var delta LinkDelta

	m.cuts = m.cuts[:0] // collected first: Neighbors returns the live index
	for a := 0; a < n; a++ {
		for _, b := range m.Medium.Neighbors(medium.NodeID(a)) {
			if int(b) <= a {
				continue
			}
			if m.Pos[a].dist(m.Pos[int(b)]) > m.rm.Range ||
				(m.overlay != nil && !m.overlay.LinkUp(a, int(b))) {
				m.cuts = append(m.cuts, [2]int{a, int(b)})
			}
		}
	}
	for _, c := range m.cuts {
		m.Medium.SetConnected(medium.NodeID(c[0]), medium.NodeID(c[1]), false)
	}
	delta.Down = len(m.cuts)

	m.bins.forEachPair(m.Pos, m.rm.Range, func(a, b int, d float64) {
		snr := m.rm.SNRAt(d)
		if m.overlay != nil {
			if !m.overlay.LinkUp(a, b) {
				return
			}
			snr -= m.overlay.SNRPenaltyDB(a, b)
		}
		if !m.Medium.Connected(medium.NodeID(a), medium.NodeID(b)) {
			m.Medium.SetConnected(medium.NodeID(a), medium.NodeID(b), true)
			delta.Up++
		}
		m.Medium.SetSNR(medium.NodeID(a), medium.NodeID(b), snr)
		delta.InRange++
	})
	return delta
}
