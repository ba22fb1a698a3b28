package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func square(x, y, side float64) Polygon {
	return Polygon{{x, y}, {x + side, y}, {x + side, y + side}, {x, y + side}}
}

func TestAreaPerimeterCentroid(t *testing.T) {
	sq := square(0, 0, 10)
	if a := sq.Area(); math.Abs(a-100) > 1e-9 {
		t.Errorf("area = %v", a)
	}
	if p := sq.Perimeter(); math.Abs(p-40) > 1e-9 {
		t.Errorf("perimeter = %v", p)
	}
	c := sq.Centroid()
	if math.Abs(c.X-5) > 1e-9 || math.Abs(c.Y-5) > 1e-9 {
		t.Errorf("centroid = %v", c)
	}
}

func TestSignedAreaWinding(t *testing.T) {
	ccw := Polygon{{0, 0}, {4, 0}, {4, 4}, {0, 4}}
	cw := Polygon{{0, 0}, {0, 4}, {4, 4}, {4, 0}}
	if ccw.SignedArea() <= 0 {
		t.Error("CCW polygon should have positive signed area")
	}
	if cw.SignedArea() >= 0 {
		t.Error("CW polygon should have negative signed area")
	}
	if math.Abs(ccw.Area()-cw.Area()) > 1e-9 {
		t.Error("abs area must be winding-independent")
	}
}

func TestBBox(t *testing.T) {
	pg := Polygon{{1, 2}, {5, -1}, {3, 7}}
	r := pg.BBox()
	if r.Min.X != 1 || r.Min.Y != -1 || r.Max.X != 5 || r.Max.Y != 7 {
		t.Errorf("bbox = %+v", r)
	}
	if r.W() != 4 || r.H() != 8 {
		t.Errorf("W/H = %v/%v", r.W(), r.H())
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{Point{0, 0}, Point{2, 2}}
	b := Rect{Point{1, 1}, Point{3, 3}}
	c := Rect{Point{5, 5}, Point{6, 6}}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping rects must intersect")
	}
	if a.Intersects(c) {
		t.Error("disjoint rects must not intersect")
	}
	touch := Rect{Point{2, 0}, Point{4, 2}}
	if !a.Intersects(touch) {
		t.Error("edge-touching rects intersect (closed semantics)")
	}
}

func TestContainsPoint(t *testing.T) {
	sq := square(0, 0, 10)
	if !sq.Contains(Point{5, 5}) {
		t.Error("center must be inside")
	}
	if sq.Contains(Point{15, 5}) {
		t.Error("outside point must not be inside")
	}
	if !sq.Contains(Point{0, 5}) {
		t.Error("boundary counts as inside")
	}
	// Concave polygon: a C shape.
	c := Polygon{{0, 0}, {10, 0}, {10, 2}, {2, 2}, {2, 8}, {10, 8}, {10, 10}, {0, 10}}
	if !c.Contains(Point{1, 5}) {
		t.Error("inside the C spine")
	}
	if c.Contains(Point{6, 5}) {
		t.Error("inside the C notch is outside the polygon")
	}
}

func TestPolygonIntersects(t *testing.T) {
	a := square(0, 0, 10)
	b := square(5, 5, 10)
	if !a.Intersects(b) {
		t.Error("overlapping squares intersect")
	}
	far := square(100, 100, 3)
	if a.Intersects(far) {
		t.Error("distant squares don't intersect")
	}
	inner := square(2, 2, 3)
	if !a.Intersects(inner) {
		t.Error("containment counts as intersection")
	}
	if !inner.Intersects(a) {
		t.Error("containment is symmetric for Intersects")
	}
	touching := square(10, 0, 5)
	if !a.Intersects(touching) {
		t.Error("edge-touching polygons intersect")
	}
}

func TestContainsPoly(t *testing.T) {
	outer := square(0, 0, 10)
	inner := square(2, 2, 3)
	if !outer.ContainsPoly(inner) {
		t.Error("outer contains inner")
	}
	if inner.ContainsPoly(outer) {
		t.Error("inner does not contain outer")
	}
	overlap := square(8, 8, 5)
	if outer.ContainsPoly(overlap) {
		t.Error("partial overlap is not containment")
	}
}

func TestDistanceAdjacent(t *testing.T) {
	a := square(0, 0, 10)
	b := square(13, 0, 5)
	d := a.Distance(b)
	if math.Abs(d-3) > 1e-9 {
		t.Errorf("distance = %v, want 3", d)
	}
	if a.Distance(square(5, 5, 2)) != 0 {
		t.Error("intersecting polygons have distance 0")
	}
	if !a.Adjacent(b, 3.5) {
		t.Error("within eps is adjacent")
	}
	if a.Adjacent(b, 2) {
		t.Error("beyond eps is not adjacent")
	}
}

func TestElongationOrientation(t *testing.T) {
	runway := RectPoly(Point{0, 0}, 100, 5, 0)
	if e := runway.Elongation(); e < 10 {
		t.Errorf("runway elongation = %v, want >> 1", e)
	}
	sq := square(0, 0, 10)
	if e := sq.Elongation(); e > 1.2 {
		t.Errorf("square elongation = %v, want ~1", e)
	}
	if o := runway.Orientation(); math.Abs(o) > 0.01 && math.Abs(o-math.Pi) > 0.01 {
		t.Errorf("horizontal runway orientation = %v", o)
	}
	vertical := RectPoly(Point{0, 0}, 100, 5, math.Pi/2)
	if o := vertical.Orientation(); math.Abs(o-math.Pi/2) > 0.01 {
		t.Errorf("vertical runway orientation = %v", o)
	}
}

func TestParallelPerpendicular(t *testing.T) {
	h1 := RectPoly(Point{0, 0}, 50, 4, 0)
	h2 := RectPoly(Point{0, 20}, 60, 4, 0.02)
	v := RectPoly(Point{30, 0}, 50, 4, math.Pi/2)
	if !h1.ParallelTo(h2, 0.1) {
		t.Error("nearly-parallel strips should be ParallelTo")
	}
	if h1.ParallelTo(v, 0.1) {
		t.Error("perpendicular strips are not parallel")
	}
	// Orientation is mod π: a strip at angle π-0.02 is parallel to one at 0.
	almostPi := RectPoly(Point{0, 40}, 50, 4, math.Pi-0.02)
	if !h1.ParallelTo(almostPi, 0.1) {
		t.Error("orientation must wrap mod π")
	}
}

func TestAlignedWith(t *testing.T) {
	base := RectPoly(Point{0, 0}, 100, 6, 0)
	colinear := RectPoly(Point{150, 1}, 60, 6, 0)
	offAxis := RectPoly(Point{150, 60}, 60, 6, 0)
	if !base.AlignedWith(colinear, 10) {
		t.Error("colinear fragment should align")
	}
	if base.AlignedWith(offAxis, 10) {
		t.Error("laterally offset fragment should not align")
	}
}

func TestCompactness(t *testing.T) {
	sq := square(0, 0, 10)
	strip := RectPoly(Point{0, 0}, 100, 2, 0)
	cs, cst := sq.Compactness(), strip.Compactness()
	if cs <= cst {
		t.Errorf("square (%v) should be more compact than strip (%v)", cs, cst)
	}
	blob := Blob(Point{0, 0}, 10, 32, 0.05, 7)
	if cb := blob.Compactness(); cb < cs {
		t.Errorf("near-circular blob (%v) should beat square (%v)", cb, cs)
	}
}

func TestRectPoly(t *testing.T) {
	r := RectPoly(Point{10, 10}, 20, 4, 0)
	if math.Abs(r.Area()-80) > 1e-6 {
		t.Errorf("area = %v", r.Area())
	}
	c := r.Centroid()
	if math.Abs(c.X-10) > 1e-9 || math.Abs(c.Y-10) > 1e-9 {
		t.Errorf("centroid = %v", c)
	}
}

func TestBlobDeterminism(t *testing.T) {
	a := Blob(Point{5, 5}, 10, 16, 0.3, 42)
	b := Blob(Point{5, 5}, 10, 16, 0.3, 42)
	c := Blob(Point{5, 5}, 10, 16, 0.3, 43)
	if len(a) != 16 {
		t.Fatalf("blob size = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical blobs")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestValid(t *testing.T) {
	if (Polygon{{0, 0}, {1, 1}}).Valid() {
		t.Error("2 points are not a valid polygon")
	}
	if (Polygon{{0, 0}, {1, 1}, {2, 2}}).Valid() {
		t.Error("collinear points have zero area")
	}
	if !square(0, 0, 1).Valid() {
		t.Error("unit square is valid")
	}
}

func TestQuickIntersectsSymmetric(t *testing.T) {
	f := func(seedA, seedB uint64, dx int8) bool {
		a := Blob(Point{0, 0}, 30, 12, 0.4, seedA)
		b := Blob(Point{float64(dx), 10}, 30, 12, 0.4, seedB)
		return a.Intersects(b) == b.Intersects(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickDistanceZeroIffIntersect(t *testing.T) {
	f := func(seed uint64, dx uint8) bool {
		a := Blob(Point{0, 0}, 20, 10, 0.3, seed)
		b := Blob(Point{float64(dx) * 2, 0}, 20, 10, 0.3, seed+1)
		d := a.Distance(b)
		if a.Intersects(b) {
			return d == 0
		}
		return d > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickAreaTranslationInvariant(t *testing.T) {
	f := func(seed uint64, dx, dy int16) bool {
		a := Blob(Point{0, 0}, 25, 14, 0.5, seed)
		b := make(Polygon, len(a))
		for i, p := range a {
			b[i] = p.Add(Point{float64(dx), float64(dy)})
		}
		return math.Abs(a.Area()-b.Area()) < 1e-6 &&
			math.Abs(a.Perimeter()-b.Perimeter()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
