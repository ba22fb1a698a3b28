package spam

import (
	"fmt"
	"sync"
	"testing"

	"spampsm/internal/scene"
	"spampsm/internal/tlp"
)

// geoRels are all relations Test accepts.
var geoRels = []string{RelIntersects, RelAdjacent, RelNear, RelParallel,
	RelLeadsTo, RelContainedIn, RelAligned}

// TestSPAMDifferentialGeoFastVsExact is the geometry differential
// oracle: a complete four-phase interpretation must be observably
// identical under the default fast path (squared-distance kernels,
// decisive-bound predicates, derived-geometry cache, predicate memo,
// grid partner index) and the reference path (exact Hypot kernels,
// no caches, linear partner scans) — same firings, same simulated
// instruction counts, same pairs, outcomes and model.
func TestSPAMDifferentialGeoFastVsExact(t *testing.T) {
	t.Parallel()
	fast := interpretUnder(t, tlp.BuildMode{})
	exact := interpretUnder(t, tlp.BuildMode{ReferenceGeo: true})
	compareInterpretations(t, "fast", fast, "exact", exact)
}

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
// every focal, kind and radius — over an ID-sorted pool, as RTF
// extracts one, and over a re-entry pool: that pool plus fragments
// hypothesized on the regions it left out, numbered above its maximum
// ID (the two shapes partnerQuery is handed).
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
	if len(frags) < gridMinFragments || len(extra) == 0 {
		t.Fatalf("scene too small to exercise the grid: %d fragments, %d re-entry", len(frags), len(extra))
	}
	for i, f := range extra {
		f.ID = len(frags) + 1 + i
	}
	reentry := append(append([]*Fragment(nil), frags...), extra...)
	for _, pool := range [][]*Fragment{frags, reentry} {
		g := newLiveGrid(st, pool, false)
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
					got := g.query(focal, k, radius)
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
	// The reference geometry path must refuse to build a grid.
	if newLiveGrid(st, frags, true) != nil {
		t.Fatal("grid built on the reference geometry path")
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
// against the linear fragment scan it replaces.
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
	b.Run("grid", func(b *testing.B) {
		ix := newLiveGrid(st, frags, false)
		if ix == nil {
			b.Fatal("no grid")
		}
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			for _, focal := range frags {
				for _, k := range kinds {
					n += len(ix.query(focal, k, 300))
				}
			}
		}
		_ = n
	})
}
