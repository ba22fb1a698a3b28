package geom

import (
	"math"
	"testing"
)

// fastpathCorpus builds a deterministic polygon corpus spanning the
// regimes the decisive-bound predicates must handle: overlapping
// pairs, touching pairs, pairs separated by much more than any
// threshold, and pairs straddling the uncertain band.
func fastpathCorpus() []Polygon {
	var ps []Polygon
	// Jittered blobs at a spread of positions and sizes.
	for i := 0; i < 12; i++ {
		c := Point{float64(i%4) * 900, float64(i/4) * 700}
		ps = append(ps, Blob(c, 180+40*float64(i%5), 6+i%7, 0.35, uint64(i+1)))
	}
	// Oriented rectangles: runway/road-like strips.
	for i := 0; i < 8; i++ {
		c := Point{float64(i) * 450, float64(i%3) * 1100}
		ps = append(ps, RectPoly(c, 1200, 60+10*float64(i), float64(i)*0.4))
	}
	// Degenerates: tiny triangle, collinear-ish sliver.
	ps = append(ps,
		Polygon{{0, 0}, {1e-6, 0}, {0, 1e-6}},
		Polygon{{5000, 5000}, {6000, 5000.001}, {5500, 5000.0005}},
	)
	return ps
}

// TestDifferentialDistanceFastVsExact holds the squared-arithmetic
// distance kernel to the exact Hypot formula over the corpus: the two
// may differ only by float rounding far below the decisive-bound
// guard band.
func TestDifferentialDistanceFastVsExact(t *testing.T) {
	ps := fastpathCorpus()
	pairs := 0
	for i := range ps {
		for j := range ps {
			fast := ps[i].Distance(ps[j])
			exact := ps[i].DistanceExact(ps[j])
			if fast == exact {
				pairs++
				continue
			}
			denom := math.Max(exact, 1)
			if math.Abs(fast-exact)/denom > 1e-12 {
				t.Fatalf("pair (%d,%d): fast %v exact %v", i, j, fast, exact)
			}
			// Zero-iff-intersects must be preserved exactly.
			if (fast == 0) != (exact == 0) {
				t.Fatalf("pair (%d,%d): zero disagreement fast %v exact %v", i, j, fast, exact)
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("empty corpus")
	}
}

// adversarialEps is the threshold list the differential tests run a
// pair over: fixed values, and values on, just inside and just outside
// the pair's exact distance.
func adversarialEps(exact float64) []float64 {
	return []float64{-1, 0, 50, 900, exact, exact / 2, exact * 2,
		exact - 1e-6, exact + 1e-6, exact - 1e-12, exact + 1e-12,
		math.Nextafter(exact, 0), math.Nextafter(exact, math.Inf(1))}
}

// TestDifferentialThresholdPredicates asserts boolean identity of
// every threshold-aware predicate against the exact formula, with
// adversarial epsilons placed on, just inside, and just outside the
// exact distance of each pair — the uncertain band where the bounds
// are not decisive and the fast path must fall back.
func TestDifferentialThresholdPredicates(t *testing.T) {
	ps := fastpathCorpus()
	for i := range ps {
		for j := range ps {
			exact := ps[i].DistanceExact(ps[j])
			for _, eps := range adversarialEps(exact) {
				want := exact <= eps
				if got := ps[i].WithinDistance(ps[j], eps); got != want {
					t.Fatalf("pair (%d,%d) eps %v: WithinDistance %v want %v (exact %v)",
						i, j, eps, got, want, exact)
				}
				if eps >= 0 {
					// Adjacent keeps its historical bbox pre-filter, which
					// can reject at exact-equality boundaries where the
					// expanded-box sum rounds; the fast path must match
					// that composite boolean, not raw distance≤eps.
					wantAdj := ps[i].BBox().Expand(eps).Intersects(ps[j].BBox()) && want
					if got := ps[i].Adjacent(ps[j], eps); got != wantAdj {
						t.Fatalf("pair (%d,%d) eps %v: Adjacent %v want %v (exact %v)",
							i, j, eps, got, wantAdj, exact)
					}
				}
			}
		}
	}
}

// withinDistanceTwoPass is withinDistance composed as two scans, the
// way it was before they were fused: Intersects' edge scan with its
// containment test, then the distance scan. It is the reference the
// one-pass kernel is held to.
func withinDistanceTwoPass(pg Polygon, abb Rect, other Polygon, obb Rect, eps float64) bool {
	if eps < 0 {
		return false
	}
	hi := eps * (1 + boundSlack)
	lo := eps * (1 - boundSlack)
	hi2, lo2 := hi*hi, lo*lo
	if RectGapSq(abb, obb) > hi2 {
		return false
	}
	if pg.intersectsBB(abb, other, obb) {
		return true
	}
	best := math.Inf(1)
	n, m := len(pg), len(other)
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		for j := 0; j < m; j++ {
			v := segPairDistSq(a, b, other[j], other[(j+1)%m])
			if v <= lo2 {
				return true
			}
			if v < best {
				best = v
			}
		}
	}
	if best > hi2 {
		return false
	}
	return pg.distanceExactScan(other) <= eps
}

// TestDifferentialWithinDistanceOnePass holds the one-pass threshold
// kernel to the two-pass composition it replaced, over the corpus and
// the shapes where fusing the scans could change an answer: a blob
// strictly inside another (no edge pair crosses; only the containment
// test after the pass says yes at an eps below the boundary gap),
// boxes disjoint but within eps (the crossing test is gated off),
// parallel strips offset along their axis (collinear edges), and rings
// of fewer than 3 vertices (never intersecting, still measured).
func TestDifferentialWithinDistanceOnePass(t *testing.T) {
	ps := fastpathCorpus()
	c := Point{8000, 8000}
	ps = append(ps,
		Blob(c, 400, 10, 0.2, 7),
		Blob(c, 40, 8, 0.2, 8),
		square(9000, 9000, 100),
		square(9130, 9000, 100),
		square(9100.5, 9100.5, 50),
		Polygon{{9050, 8950}, {9050, 9300}},
		Polygon{{9070, 9050}},
	)
	for _, off := range []float64{0, 600, 1200, 1250} {
		dir := Point{math.Cos(0.3), math.Sin(0.3)}
		ps = append(ps, RectPoly(Point{12000, 3000}.Add(dir.Scale(off)), 1200, 60, 0.3))
	}
	contained := 0
	for i := range ps {
		for j := range ps {
			a, b := ps[i], ps[j]
			abb, bbb := a.BBox(), b.BBox()
			gap := math.Sqrt(a.boundaryDistSq(b))
			epss := append(adversarialEps(a.DistanceExact(b)), gap, gap/2, gap*0.999)
			for _, eps := range epss {
				want := withinDistanceTwoPass(a, abb, b, bbb, eps)
				if got := withinDistance(a, abb, b, bbb, eps); got != want {
					t.Fatalf("pair (%d,%d) eps %v: one pass %v, two passes %v", i, j, eps, got, want)
				}
			}
			if a.Intersects(b) && gap > 50 {
				contained++
			}
		}
	}
	if contained == 0 {
		t.Fatal("no pair where one polygon lies inside the other")
	}
}

// TestDifferentialDerivedPredicates asserts that the derived-geometry
// predicate variants match the per-call Polygon methods bitwise: the
// cached fields are the same floats, so the booleans must be equal on
// every input, thresholds included.
func TestDifferentialDerivedPredicates(t *testing.T) {
	ps := fastpathCorpus()
	ds := make([]*Derived, len(ps))
	for i := range ps {
		ds[i] = Derive(ps[i])
	}
	for i := range ps {
		for j := range ps {
			a, b, da, db := ps[i], ps[j], ds[i], ds[j]
			if got, want := IntersectsD(a, da, b, db), a.Intersects(b); got != want {
				t.Fatalf("pair (%d,%d): IntersectsD %v want %v", i, j, got, want)
			}
			exact := a.DistanceExact(b)
			for _, eps := range []float64{0, 100, exact, exact - 1e-9, exact + 1e-9, exact * 2} {
				if got, want := WithinDistanceD(a, da, b, db, eps), exact <= eps; got != want {
					t.Fatalf("pair (%d,%d) eps %v: WithinDistanceD %v want %v (exact %v)",
						i, j, eps, got, want, exact)
				}
			}
			for _, tol := range []float64{0.05, 0.15, 0.5} {
				if got, want := ParallelD(da, db, tol), a.ParallelTo(b, tol); got != want {
					t.Fatalf("pair (%d,%d) tol %v: ParallelD %v want %v", i, j, tol, got, want)
				}
			}
			for _, tol := range []float64{10, 300, 1e4} {
				if got, want := AlignedD(da, db, tol), a.AlignedWith(b, tol); got != want {
					t.Fatalf("pair (%d,%d) tol %v: AlignedD %v want %v", i, j, tol, got, want)
				}
			}
		}
	}
}

// TestDifferentialDeriveIdentity asserts bitwise equality of every
// Derived field against the direct Polygon computation.
func TestDifferentialDeriveIdentity(t *testing.T) {
	for i, pg := range fastpathCorpus() {
		d := Derive(pg)
		if d.BBox != pg.BBox() {
			t.Fatalf("poly %d: BBox %v want %v", i, d.BBox, pg.BBox())
		}
		if d.Centroid != pg.Centroid() {
			t.Fatalf("poly %d: Centroid %v want %v", i, d.Centroid, pg.Centroid())
		}
		if d.Area != pg.Area() {
			t.Fatalf("poly %d: Area %v want %v", i, d.Area, pg.Area())
		}
		if d.Compact != pg.Compactness() {
			t.Fatalf("poly %d: Compact %v want %v", i, d.Compact, pg.Compactness())
		}
		if e := pg.Elongation(); d.Elong != e && !(math.IsInf(d.Elong, 1) && math.IsInf(e, 1)) {
			t.Fatalf("poly %d: Elong %v want %v", i, d.Elong, e)
		}
		if d.Orient != pg.Orientation() {
			t.Fatalf("poly %d: Orient %v want %v", i, d.Orient, pg.Orientation())
		}
		dir, o := pg.MajorAxis()
		if d.MajorDir != dir || d.Orient != o {
			t.Fatalf("poly %d: MajorAxis (%v,%v) want (%v,%v)", i, d.MajorDir, d.Orient, dir, o)
		}
		// Bounding circle: every vertex within Radius of the centroid.
		for _, p := range pg {
			if p.Dist(d.Centroid) > d.Radius {
				t.Fatalf("poly %d: vertex %v outside bounding circle r=%v", i, p, d.Radius)
			}
		}
		if len(d.Edges) != len(pg) {
			t.Fatalf("poly %d: %d edges want %d", i, len(d.Edges), len(pg))
		}
		for k := range pg {
			if want := pg[(k+1)%len(pg)].Sub(pg[k]); d.Edges[k] != want {
				t.Fatalf("poly %d edge %d: %v want %v", i, k, d.Edges[k], want)
			}
		}
	}
}

// TestDifferentialPredicateSymmetry pins the memo-canonicalization
// assumption: intersects, boundary distance (hence within-distance)
// and axis parallelism are invariant under operand swap on computed
// floats, not just in theory.
func TestDifferentialPredicateSymmetry(t *testing.T) {
	ps := fastpathCorpus()
	for i := range ps {
		for j := range ps {
			a, b := ps[i], ps[j]
			if a.Intersects(b) != b.Intersects(a) {
				t.Fatalf("pair (%d,%d): Intersects asymmetric", i, j)
			}
			if a.Distance(b) != b.Distance(a) {
				t.Fatalf("pair (%d,%d): Distance asymmetric", i, j)
			}
			for _, eps := range []float64{0, 100, 900} {
				if a.WithinDistance(b, eps) != b.WithinDistance(a, eps) {
					t.Fatalf("pair (%d,%d) eps %v: WithinDistance asymmetric", i, j, eps)
				}
				if a.Adjacent(b, eps) != b.Adjacent(a, eps) {
					t.Fatalf("pair (%d,%d) eps %v: Adjacent asymmetric", i, j, eps)
				}
			}
			if a.ParallelTo(b, 0.15) != b.ParallelTo(a, 0.15) {
				t.Fatalf("pair (%d,%d): ParallelTo asymmetric", i, j)
			}
		}
	}
}

// BenchmarkGeomPredicates measures the threshold predicate against the
// exact-distance formula over a mixed-separation corpus — the ≥5×
// acceptance number of the fast-path work.
func BenchmarkGeomPredicates(b *testing.B) {
	ps := fastpathCorpus()
	epss := []float64{0, 120, 900}
	run := func(b *testing.B, within func(p, q Polygon, eps float64) bool) {
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for k := 0; k < b.N; k++ {
			for i := range ps {
				for j := range ps {
					for _, eps := range epss {
						if within(ps[i], ps[j], eps) {
							n++
						}
					}
				}
			}
		}
		if n < 0 {
			b.Fatal("unreachable")
		}
	}
	b.Run("exact", func(b *testing.B) {
		run(b, func(p, q Polygon, eps float64) bool { return p.DistanceExact(q) <= eps })
	})
	b.Run("fast", func(b *testing.B) { run(b, Polygon.WithinDistance) })
}
