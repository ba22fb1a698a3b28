package spam

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"spampsm/internal/geom"
	"spampsm/internal/ops5"
	"spampsm/internal/scene"
	"spampsm/internal/symtab"
)

// Cost model of the task-related geometric computation (simulated
// NS32332 instructions). In the original SPAM these operations ran over
// image regions in forked external processes (later C function calls);
// here they run over segmentation polygons, with simulated cost scaled
// to the C-ported baseline the paper measures against.
const (
	// CostGeoBase is the fixed cost of one spatial predicate evaluation.
	CostGeoBase = 20000
	// CostGeoPerVert is the per-vertex cost (both polygons' vertices
	// count). Datasets with more complex region outlines (DC) pay more
	// per check, which lowers their match fraction, as the paper's
	// per-dataset asymptotic limits show.
	CostGeoPerVert = 1800
	// CostMeasure is the cost of one RTF measurement/verification call.
	CostMeasure = 4000
	// CostPredict is the cost of one FA sub-area prediction: carving
	// candidate sub-regions out of a functional area's extent is the
	// most expensive geometric operation SPAM performs.
	CostPredict = 150000
	// CostStereo is the cost of one MODEL-phase stereo verification.
	CostStereo = 250000

	// faPredictRadius is the bbox expansion PredictArea scans for
	// sub-area candidates.
	faPredictRadius = 800
)

// Fragment is one scene-fragment interpretation hypothesis, the unit
// the LCC phase checks for consistency.
type Fragment struct {
	ID       int
	RegionID int
	Type     scene.Kind
	Conf     int // 0..100
}

// RegionStore resolves region IDs to geometry for the external
// functions, precomputes the per-region measurements asserted into RTF
// working memory, and caches the shared seed form of each fragment
// hypothesis (value vector + routing digest) scene-wide.
type RegionStore struct {
	scene *scene.Scene
	byID  map[int]*scene.Region

	// derived holds per-region geometry (bbox, centroid, bounding
	// radius, areas, major axis, edge vectors) computed once in
	// NewRegionStore. Every field is a pure function of the vertex
	// ring, bit-identical to on-the-fly recomputation, so the cache is
	// immutable and read without locking.
	derived map[int]*geom.Derived

	// Fragment-seed cache. Task builders run concurrently on the pool's
	// workers, and unlike the rest of the store (immutable after
	// NewRegionStore) this map mutates at build time, so it is locked.
	seedMu    sync.RWMutex
	fragSeeds map[fragSeedKey]ops5.Seed

	// Spatial-predicate memo. Overlapping partner sets across ~1k task
	// engines and decomposition levels re-evaluate identical
	// (region, region, relation, eps) tests; the memo serves repeats
	// from one evaluation while geoCost is still charged per call, so
	// Counters and firing sequences are unchanged. Same lock
	// discipline as the fragment-seed cache. A run whose build mode
	// says ReferenceGeo never touches it (TestReference).
	//
	// The memo is bounded (geoCap entries, FIFO eviction) so a
	// long-lived serving session cannot grow it forever, and entries
	// are epoch-stamped: every memoised boolean records the epoch of
	// both regions at evaluation time, and ApplyDelta invalidates a
	// changed region's entries by bumping its epoch — O(1) per region,
	// no scan, no wholesale flush. Stale entries are overwritten in
	// place on the next evaluation or recycled by eviction.
	geoMu       sync.RWMutex
	geoMemo     map[geoKey]geoVal
	geoQueue    []geoKey // insertion order; head geoHead (FIFO eviction)
	geoHead     int
	geoCap      int
	regionEpoch map[int]uint32

	geoHits      atomic.Int64
	geoMisses    atomic.Int64
	geoEvictions atomic.Int64

	// epoch counts ApplyDelta calls (0 for a freshly built store).
	epoch int
}

// geoVal is one memoised predicate result, stamped with the epochs of
// both operand regions at evaluation time. A lookup whose stamps do
// not match the regions' current epochs is a miss: the geometry the
// boolean was computed over no longer exists.
type geoVal struct {
	ok     bool
	ea, eb uint32
}

// DefaultGeoMemoCap bounds the spatial-predicate memo. Sized an order
// of magnitude above the largest benchmark scene's working set, so
// eviction never perturbs the experiments while a long-lived server
// stays bounded.
const DefaultGeoMemoCap = 1 << 18

// GeoMemoStats is a snapshot of the predicate memo's occupancy and
// lifetime counters, surfaced through the serving layer's /stats.
type GeoMemoStats struct {
	Entries   int   `json:"entries"`
	Cap       int   `json:"cap"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// GeoStats returns the predicate memo's current statistics. On a
// session's store, Hits and Misses include the lookups that sign LCC
// tasks (lccAnswers), not only the rules' geo-test calls.
func (st *RegionStore) GeoStats() GeoMemoStats {
	st.geoMu.RLock()
	n := len(st.geoMemo)
	cap := st.geoCap
	st.geoMu.RUnlock()
	return GeoMemoStats{
		Entries:   n,
		Cap:       cap,
		Hits:      st.geoHits.Load(),
		Misses:    st.geoMisses.Load(),
		Evictions: st.geoEvictions.Load(),
	}
}

// SetGeoMemoCap overrides the predicate-memo entry cap (tests exercise
// eviction with small caps). Values below 1 restore the default.
func (st *RegionStore) SetGeoMemoCap(n int) {
	if n < 1 {
		n = DefaultGeoMemoCap
	}
	st.geoMu.Lock()
	st.geoCap = n
	st.geoMu.Unlock()
}

// geoKey identifies one spatial-predicate evaluation. For the
// symmetric relations the region pair is canonicalized (low ID first)
// so that cross-constraint mirror tests — runway intersects taxiway
// and taxiway intersects runway, say — share one entry.
type geoKey struct {
	a, b int
	rel  string
	eps  float64
}

// symmetricRel reports whether rel's boolean is invariant under
// operand swap. intersects, adjacent-to and near reduce to the same
// boundary-distance candidate set either way; parallel-to compares
// the two orientations symmetrically. leads-to, contained-in and
// aligned-with are directional and keep ordered keys.
func symmetricRel(rel string) bool {
	switch rel {
	case RelIntersects, RelAdjacent, RelNear, RelParallel:
		return true
	}
	return false
}

// fragSeedKey identifies a fragment's seed form. The SeedClass pointer
// keys the phase program: each phase declares its own fragment class,
// and seeds carry slot-ordered vectors that must match the asserting
// program's declaration.
type fragSeedKey struct {
	sc     *ops5.SeedClass
	id     int
	region int
	conf   int
	typ    scene.Kind
}

// NewRegionStore indexes a scene.
func NewRegionStore(s *scene.Scene) *RegionStore {
	st := &RegionStore{
		scene:       s,
		byID:        make(map[int]*scene.Region, len(s.Regions)),
		derived:     make(map[int]*geom.Derived, len(s.Regions)),
		fragSeeds:   map[fragSeedKey]ops5.Seed{},
		geoMemo:     map[geoKey]geoVal{},
		geoCap:      DefaultGeoMemoCap,
		regionEpoch: map[int]uint32{},
	}
	for _, r := range s.Regions {
		st.byID[r.ID] = r
		st.derived[r.ID] = geom.Derive(r.Poly)
	}
	return st
}

// Derived returns the precomputed geometry of a region, or nil.
func (st *RegionStore) Derived(id int) *geom.Derived { return st.derived[id] }

// FragmentSeed returns the shared seed form of a fragment hypothesis
// under the given class layout, computing the value vector and routing
// digest once per (program, fragment) and serving every later task of
// the scene from the cache. Safe for concurrent task builders.
func (st *RegionStore) FragmentSeed(sc *ops5.SeedClass, f *Fragment) (ops5.Seed, error) {
	key := fragSeedKey{sc: sc, id: f.ID, region: f.RegionID, conf: f.Conf, typ: f.Type}
	st.seedMu.RLock()
	s, ok := st.fragSeeds[key]
	st.seedMu.RUnlock()
	if ok {
		return s, nil
	}
	s, err := sc.SharedSeed(map[string]symtab.Value{
		"id":     symtab.Int(int64(f.ID)),
		"region": symtab.Int(int64(f.RegionID)),
		"type":   symtab.Sym(string(f.Type)),
		"conf":   symtab.Int(int64(f.Conf)),
		"status": symHypothesized,
	})
	if err != nil {
		return ops5.Seed{}, err
	}
	st.seedMu.Lock()
	if prev, ok := st.fragSeeds[key]; ok {
		s = prev // racing builders computed equal seeds; keep one vector
	} else {
		st.fragSeeds[key] = s
	}
	st.seedMu.Unlock()
	return s, nil
}

// Scene returns the underlying scene.
func (st *RegionStore) Scene() *scene.Scene { return st.scene }

// Get returns a region by ID, or nil.
func (st *RegionStore) Get(id int) *scene.Region { return st.byID[id] }

// geoCost returns the simulated cost of a predicate over two regions.
func geoCost(a, b *scene.Region) float64 {
	return CostGeoBase + CostGeoPerVert*float64(len(a.Poly)+len(b.Poly))
}

// operands resolves a spatial test's two regions and its simulated
// instruction cost.
func (st *RegionStore) operands(rel string, aID, bID int) (a, b *scene.Region, cost float64, err error) {
	a, b = st.Get(aID), st.Get(bID)
	if a == nil || b == nil {
		return nil, nil, 0, fmt.Errorf("spam: unknown region %d or %d", aID, bID)
	}
	cost = geoCost(a, b)
	if rel == RelLeadsTo {
		// Compound relation: range plus axis alignment.
		cost *= 1.5
	}
	return a, b, cost, nil
}

// TestReference is Test by the reference evaluation (evalRelNaive): no
// memo, no derived geometry, the exact distance kernel. Same boolean,
// same cost; it reads nothing of the store but the regions themselves.
func (st *RegionStore) TestReference(rel string, aID, bID int, eps float64) (bool, float64, error) {
	a, b, cost, err := st.operands(rel, aID, bID)
	if err != nil {
		return false, 0, err
	}
	ok, err := evalRelNaive(rel, a, b, eps)
	if err != nil {
		return false, 0, err
	}
	return ok, cost, nil
}

// Test evaluates a spatial relation between two regions. It returns
// the boolean result and the simulated instruction cost. The cost is
// charged per call regardless of whether the boolean is served from
// the predicate memo: the simulated machine performed the geometric
// computation either way, only the host skips the arithmetic.
func (st *RegionStore) Test(rel string, aID, bID int, eps float64) (bool, float64, error) {
	a, b, cost, err := st.operands(rel, aID, bID)
	if err != nil {
		return false, 0, err
	}
	key := geoKey{a: aID, b: bID, rel: rel, eps: eps}
	if key.a > key.b && symmetricRel(rel) {
		key.a, key.b = key.b, key.a
	}
	st.geoMu.RLock()
	v, hit := st.geoMemo[key]
	ea, eb := st.regionEpoch[key.a], st.regionEpoch[key.b]
	st.geoMu.RUnlock()
	if hit && v.ea == ea && v.eb == eb {
		st.geoHits.Add(1)
		return v.ok, cost, nil
	}
	st.geoMisses.Add(1)
	ok, err := st.evalRel(rel, a, b, eps)
	if err != nil {
		return false, 0, err
	}
	st.geoMu.Lock()
	if _, present := st.geoMemo[key]; !present {
		// Inserting a fresh key: evict the oldest entry once the cap is
		// reached. Every live key has exactly one queue slot, so one pop
		// frees exactly one entry.
		if len(st.geoMemo) >= st.geoCap {
			old := st.geoQueue[st.geoHead]
			st.geoHead++
			delete(st.geoMemo, old)
			st.geoEvictions.Add(1)
			if st.geoHead >= 1024 && st.geoHead*2 >= len(st.geoQueue) {
				st.geoQueue = append(st.geoQueue[:0], st.geoQueue[st.geoHead:]...)
				st.geoHead = 0
			}
		}
		st.geoQueue = append(st.geoQueue, key)
	}
	// Re-read the epochs under the write lock: a concurrent ApplyDelta
	// cannot run during task execution, but the stamps must match the
	// epochs the geometry was read under.
	st.geoMemo[key] = geoVal{ok: ok, ea: st.regionEpoch[key.a], eb: st.regionEpoch[key.b]}
	st.geoMu.Unlock()
	return ok, cost, nil
}

// evalRel computes one spatial relation over the store's precomputed
// derived geometry and the threshold-aware predicates. Each branch is
// boolean-identical to its evalRelNaive counterpart: the derived
// fields are bit-identical to recomputation, and the threshold
// predicates answer from a conservative bound only when it is
// decisive, falling back to the exact kernel otherwise.
func (st *RegionStore) evalRel(rel string, a, b *scene.Region, eps float64) (bool, error) {
	da, db := st.derived[a.ID], st.derived[b.ID]
	switch rel {
	case RelIntersects:
		return geom.IntersectsD(a.Poly, da, b.Poly, db), nil
	case RelAdjacent:
		if !da.BBox.Expand(eps).Intersects(db.BBox) {
			return false, nil
		}
		return geom.WithinDistanceD(a.Poly, da, b.Poly, db, eps), nil
	case RelNear:
		return geom.WithinDistanceD(a.Poly, da, b.Poly, db, eps), nil
	case RelParallel:
		return geom.ParallelD(da, db, eps), nil
	case RelLeadsTo:
		// "Access roads lead to terminal buildings": the road's major
		// axis points at the target and the two are within range.
		// && short-circuits exactly like the naive path.
		return geom.WithinDistanceD(a.Poly, da, b.Poly, db, eps) &&
			geom.AlignedD(da, db, eps), nil
	case RelContainedIn:
		// Point-in-polygon over every vertex has no profitable bound;
		// no constraint in either KB uses it, so it stays exact.
		return b.Poly.ContainsPoly(a.Poly), nil
	case RelAligned:
		return geom.AlignedD(da, db, eps) && geom.ParallelD(da, db, 0.15), nil
	default:
		return false, fmt.Errorf("spam: unknown relation %q", rel)
	}
}

// evalRelNaive is the reference evaluation: per-call Polygon methods,
// no derived-geometry reuse, distances by the exact Hypot kernel — the
// pre-fast-path code. The differential oracle holds evalRel to its
// answers.
func evalRelNaive(rel string, a, b *scene.Region, eps float64) (bool, error) {
	switch rel {
	case RelIntersects:
		return a.Poly.Intersects(b.Poly), nil
	case RelAdjacent:
		// Adjacent's bbox gate, then the exact distance.
		return a.Poly.BBox().Expand(eps).Intersects(b.Poly.BBox()) &&
			a.Poly.DistanceExact(b.Poly) <= eps, nil
	case RelNear:
		return a.Poly.DistanceExact(b.Poly) <= eps, nil
	case RelParallel:
		return a.Poly.ParallelTo(b.Poly, eps), nil
	case RelLeadsTo:
		near := a.Poly.DistanceExact(b.Poly) <= eps
		return near && a.Poly.AlignedWith(b.Poly, eps), nil
	case RelContainedIn:
		return b.Poly.ContainsPoly(a.Poly), nil
	case RelAligned:
		return a.Poly.AlignedWith(b.Poly, eps) && a.Poly.ParallelTo(b.Poly, 0.15), nil
	default:
		return false, fmt.Errorf("spam: unknown relation %q", rel)
	}
}

// boolSym converts a Go bool to the OPS5 t/f symbols.
func boolSym(b bool) symtab.Value {
	if b {
		return symT
	}
	return symF
}

// Register installs the SPAM external functions on an engine:
//
//	(geo-test <relation> <region-a> <region-b> <eps>) -> t | f
//	(rtf-verify <region>)                             -> measurement cost
//	(rtf-verify-align <region-a> <region-b>)          -> t | f
//	(fa-predict-area <seed-region> <kind>)            -> candidate count
//	(stereo-verify <region-a> <region-b>)             -> t | f
//
// refGeo binds geo-test to TestReference instead of Test: the choice is
// the engine's, not the store's, because one cached store serves
// concurrent runs under different build modes.
//
// Register is called from concurrent task builders on the pool's
// workers. That is race-free by construction: each closure only
// reads the store's immutable scene and derived-geometry indexes
// (byID and derived never mutate after NewRegionStore) and writes
// only the target engine's own externals map, which no other builder
// touches. The store's two mutable maps — the fragment-seed cache and
// the spatial-predicate memo — are guarded by seedMu and geoMu (see
// FragmentSeed and Test); the concurrent-build regression tests run
// all LCC builders in parallel under -race to keep this audit honest.
func (st *RegionStore) Register(e *ops5.Engine, refGeo bool) {
	if refGeo {
		e.Register("geo-test", func(args []symtab.Value) (symtab.Value, float64, error) {
			return geoTest(args, st.TestReference)
		})
	} else {
		e.Register("geo-test", func(args []symtab.Value) (symtab.Value, float64, error) {
			return geoTest(args, st.Test)
		})
	}
	e.Register("rtf-verify", func(args []symtab.Value) (symtab.Value, float64, error) {
		if len(args) != 1 {
			return symtab.Nil, 0, fmt.Errorf("rtf-verify wants 1 arg")
		}
		r := st.Get(int(args[0].IntVal()))
		if r == nil {
			return symtab.Nil, 0, fmt.Errorf("rtf-verify: unknown region %d", args[0].IntVal())
		}
		// Re-measure the region boundary (simulated cost only; the
		// measurements were precomputed at task build time).
		cost := CostMeasure + 300*float64(len(r.Poly))
		return symtab.Int(int64(len(r.Poly))), cost, nil
	})
	e.Register("rtf-verify-align", func(args []symtab.Value) (symtab.Value, float64, error) {
		if len(args) != 2 {
			return symtab.Nil, 0, fmt.Errorf("rtf-verify-align wants 2 args")
		}
		a, b := st.Get(int(args[0].IntVal())), st.Get(int(args[1].IntVal()))
		if a == nil || b == nil {
			return symtab.Nil, 0, fmt.Errorf("rtf-verify-align: unknown region")
		}
		// Cached centroids and major axes; bit-identical to the
		// per-call AlignedWith/ParallelTo computation.
		da, db := st.derived[a.ID], st.derived[b.ID]
		ok := geom.AlignedD(da, db, 300) && geom.ParallelD(da, db, 0.2)
		// Alignment is a light axis test, far cheaper than the full
		// boundary predicates.
		cost := CostMeasure + 300*float64(len(a.Poly)+len(b.Poly))
		return boolSym(ok), cost, nil
	})
	e.Register("fa-predict-area", func(args []symtab.Value) (symtab.Value, float64, error) {
		if len(args) != 2 {
			return symtab.Nil, 0, fmt.Errorf("fa-predict-area wants 2 args")
		}
		n, cost, ok := st.PredictArea(int(args[0].IntVal()))
		if !ok {
			return symtab.Nil, 0, fmt.Errorf("fa-predict-area: unknown region")
		}
		return symtab.Int(int64(n)), cost, nil
	})
	e.Register("stereo-verify", func(args []symtab.Value) (symtab.Value, float64, error) {
		if len(args) != 2 {
			return symtab.Nil, 0, fmt.Errorf("stereo-verify wants 2 args")
		}
		a, b := st.Get(int(args[0].IntVal())), st.Get(int(args[1].IntVal()))
		if a == nil || b == nil {
			return symtab.Nil, 0, fmt.Errorf("stereo-verify: unknown region")
		}
		// Disambiguation heuristic: the larger, more compact region
		// wins a conflicting-hypothesis contest (cached area and
		// compactness).
		da, db := st.derived[a.ID], st.derived[b.ID]
		sa := da.Area * math.Sqrt(da.Compact)
		sb := db.Area * math.Sqrt(db.Compact)
		return boolSym(sa >= sb), CostStereo, nil
	})
}

// geoTest is the geo-test external over one of the store's evaluators.
func geoTest(args []symtab.Value, test func(rel string, aID, bID int, eps float64) (bool, float64, error)) (symtab.Value, float64, error) {
	if len(args) != 4 {
		return symtab.Nil, 0, fmt.Errorf("geo-test wants 4 args, got %d", len(args))
	}
	ok, cost, err := test(args[0].SymVal(), int(args[1].IntVal()), int(args[2].IntVal()), args[3].FloatVal())
	if err != nil {
		return symtab.Nil, 0, err
	}
	return boolSym(ok), cost, nil
}

// PredictArea is fa-predict-area: the number of plausible sub-area
// candidates inside a seed region's neighbourhood — regions whose
// (cached) bbox overlaps the seed's bbox expanded by faPredictRadius —
// and the call's simulated cost; false for an unknown region. The
// external and a session's FA signature (faAnswers) both call it.
func (st *RegionStore) PredictArea(id int) (n int, cost float64, ok bool) {
	r := st.Get(id)
	if r == nil {
		return 0, 0, false
	}
	bb := st.derived[id].BBox.Expand(faPredictRadius)
	for _, other := range st.scene.Regions {
		if other.ID != id && bb.Intersects(st.derived[other.ID].BBox) {
			n++
		}
	}
	return n, CostPredict + CostGeoPerVert*float64(len(r.Poly))*4, true
}

// Measurements returns the region attributes asserted into RTF working
// memory, quantized for stable rule matching.
func Measurements(r *scene.Region) (area, elong, compact, intensity, texture float64) {
	return quantize(r, r.Poly.Area(), r.Poly.Elongation(), r.Poly.Compactness())
}

// MeasurementsOf is Measurements served from the store's
// derived-geometry cache — same values, no per-call recomputation of
// area, elongation and compactness — unless the run is on the
// reference geometry path.
func (st *RegionStore) MeasurementsOf(r *scene.Region, refGeo bool) (area, elong, compact, intensity, texture float64) {
	d := st.derived[r.ID]
	if d == nil || refGeo {
		return Measurements(r)
	}
	return quantize(r, d.Area, d.Elong, d.Compact)
}

// quantize applies the RTF working-memory quantization to raw
// measurements.
func quantize(r *scene.Region, a, e, c float64) (area, elong, compact, intensity, texture float64) {
	area = math.Round(a)
	if math.IsInf(e, 1) || e > 1e6 {
		e = 1e6
	}
	elong = math.Round(e*100) / 100
	compact = math.Round(c*1000) / 1000
	intensity = math.Round(r.Intensity*10) / 10
	texture = math.Round(r.Texture*1000) / 1000
	return
}

// NearbyFragments returns the fragments of the wanted class whose
// regions fall within radius of the focal fragment's region — the
// candidate partners of one constraint.
func NearbyFragments(st *RegionStore, focal *Fragment, want scene.Kind, all []*Fragment, radius float64) []*Fragment {
	fr := st.Get(focal.RegionID)
	if fr == nil {
		return nil
	}
	bb := st.derived[focal.RegionID].BBox.Expand(radius)
	var out []*Fragment
	for _, f := range all {
		if f.ID == focal.ID || f.Type != want {
			continue
		}
		r := st.Get(f.RegionID)
		if r == nil {
			continue
		}
		if bb.Intersects(st.derived[f.RegionID].BBox) {
			out = append(out, f)
		}
	}
	return out
}
