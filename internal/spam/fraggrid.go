package spam

import (
	"slices"

	"spampsm/internal/geom"
	"spampsm/internal/scene"
)

// liveGrid is the LCC partner index: a uniform grid over one fragment
// pool, queried for every (focal, constraint) partner search in place
// of NearbyFragments' all-fragments scan. It is a pure function of the
// pool and the store's geometry, so every run — one-shot, re-entry or
// a session's update — builds one for the pool it enumerates units
// over, queries it and drops it (partnerQuery). The cell tables are
// partitioned by fragment kind, because a partner search wants exactly
// one kind, and laid out flat: with n = cols*rows, kind k's cell c
// holds ids[start[k*n+c]:start[k*n+c+1]], indexes into frags. Queries
// return exactly NearbyFragments' output: the candidate set is
// gathered from the cells, then passes the identical ID/bbox filters
// and is ordered by ascending fragment ID (the pool order of an
// ID-sorted pool).
//
// The grid's origin and cell size come from the pool's union bbox; a
// zero extent makes a 1×1 grid. A query's cell coordinates clamp to
// the grid, so a radius reaching past the pool only widens the range
// of cells scanned. Single-threaded by design: a run builds it and the
// unit enumeration issues every query before any task closure runs,
// so it needs no locking and its query scratch is reusable.
type liveGrid struct {
	store      *RegionStore
	minX, minY float64
	cellW      float64
	cellH      float64
	cols, rows int

	frags []*Fragment  // the pool's fragments that have a region, in pool order
	bbs   []geom.Rect  // their regions' bboxes
	kinds []scene.Kind // by first appearance
	start []int32      // len(kinds)*cols*rows+1 offsets into ids
	ids   []int32

	mark []uint32 // mark[i] == gen: frags[i] was gathered by this query
	gen  uint32
}

// newLiveGrid builds the grid over a fragment pool in two passes over
// the cells its fragments overlap: count, then fill. It returns nil for
// a reference store, whose partner search is NearbyFragments' scan.
func newLiveGrid(store *RegionStore, all []*Fragment) *liveGrid {
	if store.reference {
		return nil
	}
	g := &liveGrid{
		store: store,
		frags: make([]*Fragment, 0, len(all)),
		bbs:   make([]geom.Rect, 0, len(all)),
	}
	var union geom.Rect
	for _, f := range all {
		d := store.Derived(f.RegionID)
		if d == nil {
			continue
		}
		if len(g.frags) == 0 {
			union = d.BBox
		}
		union.Min.X = min(union.Min.X, d.BBox.Min.X)
		union.Min.Y = min(union.Min.Y, d.BBox.Min.Y)
		union.Max.X = max(union.Max.X, d.BBox.Max.X)
		union.Max.Y = max(union.Max.Y, d.BBox.Max.Y)
		g.frags = append(g.frags, f)
		g.bbs = append(g.bbs, d.BBox)
		if !slices.Contains(g.kinds, f.Type) {
			g.kinds = append(g.kinds, f.Type)
		}
	}
	side := 1
	for side*side < len(g.frags) && side < 128 {
		side++
	}
	g.minX, g.minY = union.Min.X, union.Min.Y
	g.cols, g.cellW = side, union.W()/float64(side)
	g.rows, g.cellH = side, union.H()/float64(side)
	if g.cellW <= 0 {
		g.cols, g.cellW = 1, 1
	}
	if g.cellH <= 0 {
		g.rows, g.cellH = 1, 1
	}

	// Count each cell's entries one slot ahead, prefix-sum the counts
	// into offsets, fill by advancing each cell's offset, then shift
	// the advanced offsets back one slot.
	g.start = make([]int32, len(g.kinds)*g.cols*g.rows+1)
	g.each(func(cell, _ int) { g.start[cell+1]++ })
	for i := 1; i < len(g.start); i++ {
		g.start[i] += g.start[i-1]
	}
	g.ids = make([]int32, g.start[len(g.start)-1])
	g.each(func(cell, i int) {
		g.ids[g.start[cell]] = int32(i)
		g.start[cell]++
	})
	copy(g.start[1:], g.start)
	g.start[0] = 0
	g.mark = make([]uint32, len(g.frags))
	return g
}

// each calls fn for every (kind-partitioned cell, fragment index) pair
// the grid holds, in fragment order.
func (g *liveGrid) each(fn func(cell, i int)) {
	for i, f := range g.frags {
		base := slices.Index(g.kinds, f.Type) * g.cols * g.rows
		c0, r0, c1, r1 := g.cellRange(g.bbs[i])
		for r := r0; r <= r1; r++ {
			for c := c0; c <= c1; c++ {
				fn(base+r*g.cols+c, i)
			}
		}
	}
}

// cellRange maps a bbox to the clamped inclusive cell rectangle.
func (g *liveGrid) cellRange(bb geom.Rect) (c0, r0, c1, r1 int) {
	c0 = clampCell(int((bb.Min.X-g.minX)/g.cellW), g.cols)
	c1 = clampCell(int((bb.Max.X-g.minX)/g.cellW), g.cols)
	r0 = clampCell(int((bb.Min.Y-g.minY)/g.cellH), g.rows)
	r1 = clampCell(int((bb.Max.Y-g.minY)/g.cellH), g.rows)
	return
}

func clampCell(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// query appends the constraint's candidate partners to dst — the same
// set, in the same ascending-ID order, as NearbyFragments over an
// ID-sorted pool of the grid's fragments.
func (g *liveGrid) query(dst []*Fragment, focal *Fragment, want scene.Kind, radius float64) []*Fragment {
	fd := g.store.Derived(focal.RegionID)
	k := slices.Index(g.kinds, want)
	if fd == nil || k < 0 {
		return dst
	}
	bb := fd.BBox.Expand(radius)
	g.gen++
	if g.gen == 0 { // epoch counter wrapped: flush stale marks
		clear(g.mark)
		g.gen = 1
	}
	base := k * g.cols * g.rows
	c0, r0, c1, r1 := g.cellRange(bb)
	out := dst
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			cell := base + r*g.cols + c
			for _, i := range g.ids[g.start[cell]:g.start[cell+1]] {
				if g.mark[i] == g.gen {
					continue
				}
				g.mark[i] = g.gen
				if f := g.frags[i]; f.ID != focal.ID && bb.Intersects(g.bbs[i]) {
					out = append(out, f)
				}
			}
		}
	}
	slices.SortFunc(out[len(dst):], byFragmentID)
	return out
}
