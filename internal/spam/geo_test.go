package spam

import (
	"fmt"
	"sync"
	"testing"

	"spampsm/internal/geom"
	"spampsm/internal/scene"
)

// geoRels are all relations Test accepts.
var geoRels = []string{RelIntersects, RelAdjacent, RelNear, RelParallel,
	RelLeadsTo, RelContainedIn, RelAligned}

// TestDifferentialGeoMemoVsDirect holds the memoized Test to the
// reference evaluation for every relation over every region pair of a
// scene: identical booleans, identical simulated cost, and repeat
// calls (memo hits) still return both unchanged.
func TestDifferentialGeoMemoVsDirect(t *testing.T) {
	d := smallDC(t)
	st := d.Store
	regions := d.Scene.Regions
	if len(regions) > 30 {
		regions = regions[:30]
	}
	eps := []float64{0, 120, 900}
	for _, rel := range geoRels {
		for _, a := range regions {
			for _, b := range regions {
				for _, e := range eps {
					wantOK, wantCost, err := st.TestReference(rel, a.ID, b.ID, e)
					if err != nil {
						t.Fatal(err)
					}
					for pass := 0; pass < 2; pass++ { // miss, then hit
						ok, cost, err := st.Test(rel, a.ID, b.ID, e)
						if err != nil {
							t.Fatal(err)
						}
						if ok != wantOK || cost != wantCost {
							t.Fatalf("%s(%d,%d,%v) pass %d: fast (%v,%v) want (%v,%v)",
								rel, a.ID, b.ID, e, pass, ok, cost, wantOK, wantCost)
						}
					}
				}
			}
		}
	}
}

// TestDifferentialPartnerSearchGridVsScan asserts the partner grid
// returns byte-identical slices to the linear NearbyFragments scan for
// every focal, kind and radius, over every pool shape a run hands it:
// an ID-sorted pool, as RTF extracts one; a re-entry pool, that pool
// plus fragments hypothesized on the regions it left out, numbered
// above its maximum ID; a pool under 24 fragments; the ID-sorted pool
// again after the store applied a delta that removed two of its
// fragments' regions and moved two others', as a session's update
// does; and a pool whose regions are all one point, a zero extent.
func TestDifferentialPartnerSearchGridVsScan(t *testing.T) {
	d := smallDC(t)
	st := d.Store
	var frags, extra []*Fragment
	for i, r := range d.Scene.Regions {
		if i%5 == 4 {
			extra = append(extra, &Fragment{RegionID: r.ID, Type: r.TrueKind, Conf: 30})
			continue
		}
		frags = append(frags, &Fragment{ID: len(frags) + 1, RegionID: r.ID, Type: r.TrueKind, Conf: 80})
	}
	if len(frags) < 40 || len(extra) == 0 {
		t.Fatalf("scene too small to exercise the grid: %d fragments, %d re-entry", len(frags), len(extra))
	}
	for i, f := range extra {
		f.ID = len(frags) + 1 + i
	}
	reentry := append(append([]*Fragment(nil), frags...), extra...)
	for _, pool := range [][]*Fragment{frags, reentry, frags[:10]} {
		holdGridToScan(t, st, pool)
	}

	// Remove two pool fragments' regions, move two others' and add
	// three regions that are one and the same point.
	maxID := 0
	for _, r := range d.Scene.Regions {
		maxID = max(maxID, r.ID)
	}
	delta := &scene.Delta{Removed: []int{frags[3].RegionID, frags[20].RegionID}}
	for _, f := range []*Fragment{frags[0], frags[11]} {
		r := *st.Get(f.RegionID)
		r.Poly = r.Poly.Clone()
		for i := range r.Poly {
			r.Poly[i].X += 700
			r.Poly[i].Y -= 450
		}
		delta.Moved = append(delta.Moved, &r)
	}
	pt := st.Derived(frags[5].RegionID).BBox.Min
	var points []*Fragment
	for i, k := range []scene.Kind{frags[0].Type, frags[0].Type, frags[1].Type} {
		r := &scene.Region{ID: maxID + 1 + i, Poly: geom.Polygon{pt, pt, pt}, TrueKind: k}
		delta.Added = append(delta.Added, r)
		points = append(points, &Fragment{ID: i + 1, RegionID: r.ID, Type: k, Conf: 50})
	}
	moved := st.Derived(frags[0].RegionID).BBox
	if err := st.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if st.Get(frags[3].RegionID) != nil || st.Derived(frags[0].RegionID).BBox == moved {
		t.Fatal("the delta did not remove and move the pool's regions")
	}
	if bb := st.Derived(points[0].RegionID).BBox; bb.W() != 0 || bb.H() != 0 {
		t.Fatalf("point region has extent %v", bb)
	}
	for _, pool := range [][]*Fragment{frags, points} {
		holdGridToScan(t, st, pool)
	}
	// Cell coordinates over a zero extent would divide by zero.
	if g := newLiveGrid(st, points); g.cols != 1 || g.rows != 1 {
		t.Fatalf("zero-extent pool: %d×%d grid, want 1×1", g.cols, g.rows)
	}

	// A reference store must refuse to build a grid.
	if newLiveGrid(referenceOf(d).Store, frags) != nil {
		t.Fatal("grid built on a reference store")
	}
}

// holdGridToScan builds the grid over one pool and holds every query
// to NearbyFragments element for element.
func holdGridToScan(t *testing.T, st *RegionStore, pool []*Fragment) {
	t.Helper()
	g := newLiveGrid(st, pool)
	if g == nil {
		t.Fatal("grid not built")
	}
	kinds := map[scene.Kind]bool{}
	for _, f := range pool {
		kinds[f.Type] = true
	}
	for _, focal := range pool {
		for k := range kinds {
			for _, radius := range []float64{0, 150, 900, 1e9} {
				want := NearbyFragments(st, focal, k, pool, radius)
				// The answer is appended after a prefix, which stays.
				got := g.query(pool[:1:1], focal, k, radius)
				if got[0] != pool[0] {
					t.Fatalf("pool of %d, focal %d kind %s radius %v: the query overwrote its buffer's prefix",
						len(pool), focal.ID, k, radius)
				}
				got = got[1:]
				if len(got) != len(want) {
					t.Fatalf("pool of %d, focal %d kind %s radius %v: grid %d scan %d",
						len(pool), focal.ID, k, radius, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("pool of %d, focal %d kind %s radius %v: element %d differs",
							len(pool), focal.ID, k, radius, i)
					}
				}
			}
		}
	}
}

// TestConcurrentGeoMemo hammers the predicate memo from parallel
// goroutines mimicking concurrent task RHS execution; run under -race
// by make oracle. Every answer must match the reference path.
func TestConcurrentGeoMemo(t *testing.T) {
	d := smallDC(t)
	st := d.Store
	regions := d.Scene.Regions
	if len(regions) > 16 {
		regions = regions[:16]
	}
	type ans struct {
		ok   bool
		cost float64
	}
	want := map[string]ans{}
	for _, rel := range geoRels {
		for _, a := range regions {
			for _, b := range regions {
				ok, cost, err := st.TestReference(rel, a.ID, b.ID, 300)
				if err != nil {
					t.Fatal(err)
				}
				want[fmt.Sprintf("%s/%d/%d", rel, a.ID, b.ID)] = ans{ok, cost}
			}
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for _, rel := range geoRels {
					for _, a := range regions {
						for _, b := range regions {
							ok, cost, err := st.Test(rel, a.ID, b.ID, 300)
							if err != nil {
								errc <- err
								return
							}
							exp := want[fmt.Sprintf("%s/%d/%d", rel, a.ID, b.ID)]
							if ok != exp.ok || cost != exp.cost {
								errc <- fmt.Errorf("%s(%d,%d): (%v,%v) want (%v,%v)",
									rel, a.ID, b.ID, ok, cost, exp.ok, exp.cost)
								return
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestGeoMemoCapEviction pins the predicate memo's bound: with a tiny
// cap the store must stay at or below it while answers remain
// identical to the uncached reference, the eviction counter must
// advance, and re-querying an evicted key must still produce the
// reference answer (recomputed, not stale).
func TestGeoMemoCapEviction(t *testing.T) {
	d := smallDC(t)
	st := d.Store
	regions := d.Scene.Regions
	if len(regions) > 20 {
		regions = regions[:20]
	}
	const cap = 8
	st.SetGeoMemoCap(cap)
	defer st.SetGeoMemoCap(0)

	type ans struct {
		ok   bool
		cost float64
	}
	want := map[geoKey]ans{}
	for _, rel := range geoRels {
		for _, a := range regions {
			for _, b := range regions {
				ok, cost, err := st.TestReference(rel, a.ID, b.ID, 300)
				if err != nil {
					t.Fatal(err)
				}
				want[geoKey{a.ID, b.ID, rel, 300}] = ans{ok, cost}
			}
		}
	}

	before := st.GeoStats()
	for pass := 0; pass < 2; pass++ {
		for _, rel := range geoRels {
			for _, a := range regions {
				for _, b := range regions {
					ok, cost, err := st.Test(rel, a.ID, b.ID, 300)
					if err != nil {
						t.Fatal(err)
					}
					exp := want[geoKey{a.ID, b.ID, rel, 300}]
					if ok != exp.ok || cost != exp.cost {
						t.Fatalf("%s(%d,%d) pass %d under cap: (%v,%v) want (%v,%v)",
							rel, a.ID, b.ID, pass, ok, cost, exp.ok, exp.cost)
					}
					if s := st.GeoStats(); s.Entries > cap {
						t.Fatalf("memo holds %d entries, cap %d", s.Entries, cap)
					}
				}
			}
		}
	}
	after := st.GeoStats()
	if after.Cap != cap {
		t.Errorf("GeoStats cap = %d, want %d", after.Cap, cap)
	}
	if after.Evictions <= before.Evictions {
		t.Errorf("evictions did not advance: %d -> %d", before.Evictions, after.Evictions)
	}
	if after.Misses <= before.Misses {
		t.Errorf("misses did not advance: %d -> %d", before.Misses, after.Misses)
	}
	// The sweep's working set dwarfs the cap, so FIFO eviction kills
	// every entry before its re-reference: the sweep itself scores no
	// hits. An immediate back-to-back repeat must hit.
	if _, _, err := st.Test(RelNear, regions[0].ID, regions[1].ID, 300); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Test(RelNear, regions[0].ID, regions[1].ID, 300); err != nil {
		t.Fatal(err)
	}
	if s := st.GeoStats(); s.Hits <= after.Hits {
		t.Errorf("back-to-back repeat did not hit the memo: %d -> %d", after.Hits, s.Hits)
	}
}

// BenchmarkPartnerSearch measures the grid-indexed partner query
// against the linear fragment scan it replaces, and the grid's
// construction, which every run pays once per pool.
func BenchmarkPartnerSearch(b *testing.B) {
	p := scene.DC.Scale(0.5)
	p.Name = "DC-small"
	d, err := NewDataset(p)
	if err != nil {
		b.Fatal(err)
	}
	st := d.Store
	var frags []*Fragment
	for i, r := range d.Scene.Regions {
		frags = append(frags, &Fragment{ID: i + 1, RegionID: r.ID, Type: r.TrueKind, Conf: 80})
	}
	kinds := []scene.Kind{}
	seen := map[scene.Kind]bool{}
	for _, f := range frags {
		if !seen[f.Type] {
			seen[f.Type] = true
			kinds = append(kinds, f.Type)
		}
	}
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			for _, focal := range frags {
				for _, k := range kinds {
					n += len(NearbyFragments(st, focal, k, frags, 300))
				}
			}
		}
		_ = n
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if newLiveGrid(st, frags) == nil {
				b.Fatal("no grid")
			}
		}
	})
	b.Run("grid", func(b *testing.B) {
		ix := newLiveGrid(st, frags)
		if ix == nil {
			b.Fatal("no grid")
		}
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		var buf []*Fragment
		for i := 0; i < b.N; i++ {
			for _, focal := range frags {
				for _, k := range kinds {
					buf = ix.query(buf[:0], focal, k, 300)
					n += len(buf)
				}
			}
		}
		_ = n
	})
}
