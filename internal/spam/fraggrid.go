package spam

import (
	"cmp"
	"fmt"
	"slices"

	"spampsm/internal/geom"
	"spampsm/internal/scene"
)

// gridMinFragments is the pool size below which the uniform grid is
// not worth building: the linear scan over a handful of fragments is
// already cheaper than constructing cells.
const gridMinFragments = 24

// liveGrid is the LCC partner index: a uniform grid over one fragment
// pool, queried for every (focal, constraint) partner search in place
// of NearbyFragments' all-fragments scan. A one-shot run and the
// re-entry pool build one, query it and drop it (partnerQuery); a
// Session keeps one across scene updates. Fragments live in stable
// slots (free-listed on removal), the cell tables hold slot ids and
// are partitioned by fragment kind — a partner search wants exactly
// one kind — and refresh patches only the slots whose fragment
// changed; same-geometry fragments keep their cells untouched. Queries
// return exactly NearbyFragments' output: the candidate set is
// gathered from the cells, then passes the identical ID/bbox filters
// and is ordered by ascending fragment ID (the pool order of an
// ID-sorted pool).
//
// The grid geometry (origin, cell size) is fixed at construction from
// the initial pool's union bbox. Later fragments may fall outside it;
// cell coordinates clamp, which only coarsens edge cells — both
// insertion and query clamp the same way, so candidates are never
// missed. Single-threaded by design: a run builds or refreshes it and
// the unit enumeration issues every query before any task closure
// runs, so it needs no locking and its query scratch is reusable.
type liveGrid struct {
	store      *RegionStore
	minX, minY float64
	cellW      float64
	cellH      float64
	cols, rows int

	slots  []*Fragment // nil = free slot
	bbs    []geom.Rect
	kinds  []scene.Kind
	free   []int32
	slotOf map[int]int32 // fragment ID -> slot
	cells  map[scene.Kind][][]int32

	mark []uint32
	gen  uint32

	stats LiveGridStats
}

// LiveGridStats counts the grid's update work, proving invalidation is
// targeted: at low churn Retained dominates Reinserted+Removed+Added.
type LiveGridStats struct {
	Refreshes  int64 `json:"refreshes"`
	Retained   int64 `json:"retained"`
	Reinserted int64 `json:"reinserted"`
	Removed    int64 `json:"removed"`
	Added      int64 `json:"added"`
}

// newLiveGrid builds a grid over a fragment pool, or returns nil when
// the scan path should be used instead (a run on the reference
// geometry path, a pool too small to amortize the grid, or a
// degenerate extent). A nil grid is valid: partnerQuery falls back to
// NearbyFragments.
func newLiveGrid(store *RegionStore, all []*Fragment, refGeo bool) *liveGrid {
	if refGeo || len(all) < gridMinFragments {
		return nil
	}
	first := true
	var union geom.Rect
	for _, f := range all {
		d := store.Derived(f.RegionID)
		if d == nil {
			continue
		}
		if first {
			union = d.BBox
			first = false
			continue
		}
		union.Min.X = min(union.Min.X, d.BBox.Min.X)
		union.Min.Y = min(union.Min.Y, d.BBox.Min.Y)
		union.Max.X = max(union.Max.X, d.BBox.Max.X)
		union.Max.Y = max(union.Max.Y, d.BBox.Max.Y)
	}
	if first {
		return nil
	}
	w, h := union.W(), union.H()
	if w <= 0 && h <= 0 {
		return nil
	}
	side := 1
	for side*side < len(all) {
		side++
	}
	if side > 128 {
		side = 128
	}
	g := &liveGrid{
		store:  store,
		minX:   union.Min.X,
		minY:   union.Min.Y,
		cols:   side,
		rows:   side,
		cellW:  w / float64(side),
		cellH:  h / float64(side),
		slots:  make([]*Fragment, 0, len(all)),
		bbs:    make([]geom.Rect, 0, len(all)),
		kinds:  make([]scene.Kind, 0, len(all)),
		mark:   make([]uint32, 0, len(all)),
		slotOf: make(map[int]int32, len(all)),
		cells:  map[scene.Kind][][]int32{},
	}
	if g.cellW <= 0 {
		g.cols, g.cellW = 1, 1
	}
	if g.cellH <= 0 {
		g.rows, g.cellH = 1, 1
	}
	g.refresh(all)
	// The construction pass counts as adds, not as update work.
	g.stats = LiveGridStats{}
	return g
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

// alloc returns a free slot, growing the parallel arrays as needed.
func (g *liveGrid) alloc() int32 {
	if k := len(g.free); k > 0 {
		si := g.free[k-1]
		g.free = g.free[:k-1]
		return si
	}
	g.slots = append(g.slots, nil)
	g.bbs = append(g.bbs, geom.Rect{})
	g.kinds = append(g.kinds, "")
	g.mark = append(g.mark, 0)
	return int32(len(g.slots) - 1)
}

// insertCells adds the slot to every cell its bbox overlaps.
func (g *liveGrid) insertCells(si int32) {
	kc := g.cells[g.kinds[si]]
	if kc == nil {
		kc = make([][]int32, g.cols*g.rows)
		g.cells[g.kinds[si]] = kc
	}
	c0, r0, c1, r1 := g.cellRange(g.bbs[si])
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			cell := r*g.cols + c
			kc[cell] = append(kc[cell], si)
		}
	}
}

// removeCells deletes the slot from every cell its recorded bbox
// overlaps.
func (g *liveGrid) removeCells(si int32) {
	kc := g.cells[g.kinds[si]]
	if kc == nil {
		return
	}
	c0, r0, c1, r1 := g.cellRange(g.bbs[si])
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			cell := r*g.cols + c
			s := kc[cell]
			for i, v := range s {
				if v == si {
					kc[cell] = append(s[:i], s[i+1:]...)
					break
				}
			}
		}
	}
}

// nextGen starts a new epoch of the per-slot mark scratch.
func (g *liveGrid) nextGen() uint32 {
	g.gen++
	if g.gen == 0 { // epoch counter wrapped: flush stale marks
		clear(g.mark)
		g.gen = 1
	}
	return g.gen
}

// refresh patches the grid to reflect the new fragment pool: fragments
// whose kind, region, or region bbox changed are removed and
// reinserted; fragments that merely changed attributes (confidence)
// swap their pointer in place; disappeared fragments free their slots;
// new fragments allocate. Everything else — the overwhelming majority
// at realistic churn — is retained untouched.
func (g *liveGrid) refresh(all []*Fragment) {
	g.stats.Refreshes++
	gen := g.nextGen() // mark[si] == gen: slot si's fragment is in the new pool
	for _, f := range all {
		d := g.store.Derived(f.RegionID)
		if si, ok := g.slotOf[f.ID]; ok {
			g.mark[si] = gen
			if d == nil {
				g.removeCells(si)
				g.slots[si] = nil
				g.free = append(g.free, si)
				delete(g.slotOf, f.ID)
				g.stats.Removed++
				continue
			}
			old := g.slots[si]
			if old.Type != f.Type || old.RegionID != f.RegionID || g.bbs[si] != d.BBox {
				g.removeCells(si)
				g.slots[si] = f
				g.bbs[si] = d.BBox
				g.kinds[si] = f.Type
				g.insertCells(si)
				g.stats.Reinserted++
			} else {
				g.slots[si] = f
				g.stats.Retained++
			}
			continue
		}
		if d == nil {
			continue
		}
		si := g.alloc()
		g.slots[si] = f
		g.bbs[si] = d.BBox
		g.kinds[si] = f.Type
		g.slotOf[f.ID] = si
		g.mark[si] = gen
		g.insertCells(si)
		g.stats.Added++
	}
	for id, si := range g.slotOf {
		if g.mark[si] != gen {
			g.removeCells(si)
			g.slots[si] = nil
			g.free = append(g.free, si)
			delete(g.slotOf, id)
			g.stats.Removed++
		}
	}
}

// query returns the constraint's candidate partners — the same set, in
// the same ascending-ID order, as NearbyFragments over an ID-sorted
// pool of the grid's current fragments.
func (g *liveGrid) query(focal *Fragment, want scene.Kind, radius float64) []*Fragment {
	fd := g.store.Derived(focal.RegionID)
	if fd == nil {
		return nil
	}
	bb := fd.BBox.Expand(radius)
	kc := g.cells[want]
	if kc == nil {
		return nil
	}
	gen := g.nextGen() // mark[si] == gen: slot si was gathered by this query
	c0, r0, c1, r1 := g.cellRange(bb)
	var out []*Fragment
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			for _, si := range kc[r*g.cols+c] {
				if g.mark[si] == gen {
					continue
				}
				g.mark[si] = gen
				f := g.slots[si]
				if f == nil || f.ID == focal.ID {
					continue
				}
				if bb.Intersects(g.bbs[si]) {
					out = append(out, f)
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b *Fragment) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Stats returns the grid's lifetime update counters.
func (g *liveGrid) Stats() LiveGridStats {
	if g == nil {
		return LiveGridStats{}
	}
	return g.stats
}

// checkConsistent verifies every slot's recorded bbox against the
// store (test hook).
func (g *liveGrid) checkConsistent() error {
	for id, si := range g.slotOf {
		f := g.slots[si]
		if f == nil || f.ID != id {
			return fmt.Errorf("livegrid: slot %d inconsistent for fragment %d", si, id)
		}
		d := g.store.Derived(f.RegionID)
		if d == nil || g.bbs[si] != d.BBox {
			return fmt.Errorf("livegrid: fragment %d has stale bbox", id)
		}
	}
	return nil
}
