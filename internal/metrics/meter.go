package metrics

import (
	"sops/internal/lattice"
	"sops/internal/psys"
)

// Meter computes Snapshots repeatedly over a live configuration without
// allocating at steady state: the flood-fill scratch is reused across
// captures and the p_min(n) spiral construction is memoized per particle
// count. One Meter serves one chain or executor; it is not safe for
// concurrent use.
type Meter struct {
	th Thresholds

	minPerimN int // particle count the memo is valid for (-1 = none)
	minPerimV int

	// Flood-fill scratch. visited marks points on per-tile planes, so its
	// footprint tracks the occupied region of either store rather than a
	// bounding box; stack is the fill's frontier. fill is m.fillFrom,
	// bound once so the store's ForEach takes it without a per-capture
	// closure; view, color and best carry the fill's state across calls.
	visited tileVisitedSet
	stack   []lattice.Point
	fill    func(lattice.Point, psys.Color)
	view    psys.View
	color   psys.Color
	best    int
}

// NewMeter returns a Meter classifying with the given thresholds.
func NewMeter(th Thresholds) *Meter {
	m := &Meter{th: th, minPerimN: -1}
	m.fill = m.fillFrom
	return m
}

// minPerimeter is psys.MinPerimeter memoized on n. Chains preserve the
// particle count, so after the first capture this is a table lookup.
func (m *Meter) minPerimeter(n int) int {
	if n != m.minPerimN {
		m.minPerimN, m.minPerimV = n, psys.MinPerimeter(n)
	}
	return m.minPerimV
}

// Capture computes the same Snapshot as the package-level Capture over
// either store, without allocating once the scratch has warmed up at a
// fixed particle count. The scalar observables come from the store's
// cached counts; the largest-cluster fraction is one flood fill. A tile
// store must not be mutated while this runs (the sharded executor's
// workers are at an epoch barrier between Run calls).
func (m *Meter) Capture(v psys.View, steps uint64) Snapshot {
	n := v.N()
	perim := v.Perimeter()
	pm := m.minPerimeter(n)
	return m.snapshot(steps, n, perim, pm, v.Edges(), v.HomEdges(), v.HetEdges(),
		SegregationIndex(v), m.largestClusterFraction(v, 0))
}

// CaptureStore is Capture over a tile store.
func (m *Meter) CaptureStore(ts *psys.TileStore, steps uint64) Snapshot { return m.Capture(ts, steps) }

// snapshot assembles a Snapshot and classifies its phase.
func (m *Meter) snapshot(steps uint64, n, perim, pm, edges, hom, het int, seg, frac float64) Snapshot {
	alpha := 1.0
	if pm > 0 {
		alpha = float64(perim) / float64(pm)
	}
	compressed := float64(perim) <= m.th.Alpha*float64(pm)
	separated := seg >= m.th.MinSegregation
	var phase Phase
	switch {
	case compressed && separated:
		phase = CompressedSeparated
	case compressed:
		phase = CompressedIntegrated
	case separated:
		phase = ExpandedSeparated
	default:
		phase = ExpandedIntegrated
	}
	return Snapshot{
		Steps:        steps,
		N:            n,
		Perimeter:    perim,
		MinPerimeter: pm,
		Alpha:        alpha,
		Edges:        edges,
		HomEdges:     hom,
		HetEdges:     het,
		Segregation:  seg,
		LargestFrac:  frac,
		Phase:        phase,
	}
}

// largestClusterFraction mirrors LargestClusterFraction: the share of
// color-c particles in the largest monochromatic cluster of c.
func (m *Meter) largestClusterFraction(v psys.View, c psys.Color) float64 {
	total := v.ColorCount(c)
	if total == 0 {
		return 0
	}
	m.visited.reset()
	m.view, m.color, m.best = v, c, 0
	v.ForEach(m.fill)
	m.view = nil
	return float64(m.best) / float64(total)
}

// fillFrom flood-fills the cluster of m.color rooted at p, unless p has
// another color or an earlier fill already reached it, and records the
// cluster's size in m.best if it is the largest so far.
func (m *Meter) fillFrom(p lattice.Point, col psys.Color) {
	if col != m.color || m.visited.visit(p) {
		return
	}
	m.stack = append(m.stack[:0], p)
	size := 0
	for len(m.stack) > 0 {
		q := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		size++
		for _, nb := range q.Neighbors() {
			if col, ok := m.view.At(nb); ok && col == m.color && !m.visited.visit(nb) {
				m.stack = append(m.stack, nb)
			}
		}
	}
	m.best = max(m.best, size)
}

// tileVisitedSet marks lattice points using one bool plane per tile,
// mirroring the tile store's geometry. Planes persist across captures
// (cleared, not freed), so steady-state captures only allocate when the
// configuration drifts into tiles it never touched before. The last plane
// used is cached: a fill mostly stays within one tile.
type tileVisitedSet struct {
	planes   map[lattice.TileCoord]*[lattice.TileArea]bool
	lastTile lattice.TileCoord
	last     *[lattice.TileArea]bool
}

func (v *tileVisitedSet) reset() {
	if v.planes == nil {
		v.planes = make(map[lattice.TileCoord]*[lattice.TileArea]bool)
	}
	for _, pl := range v.planes {
		*pl = [lattice.TileArea]bool{}
	}
}

// visit reports whether p was already marked, marking it if not.
func (v *tileVisitedSet) visit(p lattice.Point) bool {
	tc := lattice.TileOf(p)
	pl := v.last
	if pl == nil || tc != v.lastTile {
		pl = v.planes[tc]
		if pl == nil {
			pl = new([lattice.TileArea]bool)
			v.planes[tc] = pl
		}
		v.lastTile, v.last = tc, pl
	}
	i := lattice.TileIndex(p)
	if pl[i] {
		return true
	}
	pl[i] = true
	return false
}
