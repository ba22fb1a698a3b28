// Package geom is the 2-D computational-geometry substrate for SPAM's
// task-related RHS computation. SPAM spends 50-70% of its time outside
// the match, evaluating spatial predicates over image regions; every
// predicate SPAM's knowledge base needs (intersection, adjacency,
// containment, parallelism, proximity, alignment, elongation, …) is
// implemented here from scratch.
//
// All polygons are simple (non-self-intersecting) with vertices in
// either winding order; operations normalize as needed.
package geom

import (
	"fmt"
	"math"
)

// boundSlack is the relative guard band of the decisive-bound rule: a
// conservative bound may answer a threshold predicate only when it
// clears the threshold by this factor. Floating-point evaluation of
// the bounds and of the exact kernel differs from the real-valued
// distance by a few ULPs (~1e-16 relative); a 1e-9 band is six orders
// of magnitude wider, so a bound that clears it can never disagree
// with the exact kernel. Thresholds inside the band fall through to
// the exact kernel.
const boundSlack = 1e-9

// Point is a 2-D point in image coordinates (pixels).
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product p · q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Rect is an axis-aligned rectangle.
type Rect struct {
	Min, Max Point
}

// W returns the rectangle's width.
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H returns the rectangle's height.
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Intersects reports whether two rectangles overlap (closed intervals).
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Expand returns r grown by d on every side.
func (r Rect) Expand(d float64) Rect {
	return Rect{Point{r.Min.X - d, r.Min.Y - d}, Point{r.Max.X + d, r.Max.Y + d}}
}

// Contains reports whether p lies inside r (closed).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Polygon is a simple polygon given by its vertex ring (no repeated
// closing vertex).
type Polygon []Point

// Clone returns a deep copy of the polygon.
func (pg Polygon) Clone() Polygon { return append(Polygon(nil), pg...) }

// Valid reports whether the polygon has at least 3 vertices and
// non-zero area.
func (pg Polygon) Valid() bool { return len(pg) >= 3 && math.Abs(pg.SignedArea()) > 1e-9 }

// SignedArea returns the signed area (positive for counter-clockwise
// winding in a Y-up frame).
func (pg Polygon) SignedArea() float64 {
	var a float64
	n := len(pg)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a += pg[i].Cross(pg[j])
	}
	return a / 2
}

// Area returns the absolute area of the polygon.
func (pg Polygon) Area() float64 { return math.Abs(pg.SignedArea()) }

// Perimeter returns the length of the polygon boundary.
func (pg Polygon) Perimeter() float64 {
	var s float64
	n := len(pg)
	for i := 0; i < n; i++ {
		s += pg[i].Dist(pg[(i+1)%n])
	}
	return s
}

// Centroid returns the area centroid of the polygon.
func (pg Polygon) Centroid() Point {
	var cx, cy, a float64
	n := len(pg)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		cr := pg[i].Cross(pg[j])
		cx += (pg[i].X + pg[j].X) * cr
		cy += (pg[i].Y + pg[j].Y) * cr
		a += cr
	}
	if math.Abs(a) < 1e-12 {
		// Degenerate: fall back to the vertex mean.
		var m Point
		for _, p := range pg {
			m = m.Add(p)
		}
		return m.Scale(1 / float64(len(pg)))
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}

// BBox returns the axis-aligned bounding box.
func (pg Polygon) BBox() Rect {
	if len(pg) == 0 {
		return Rect{}
	}
	r := Rect{pg[0], pg[0]}
	for _, p := range pg[1:] {
		if p.X < r.Min.X {
			r.Min.X = p.X
		}
		if p.Y < r.Min.Y {
			r.Min.Y = p.Y
		}
		if p.X > r.Max.X {
			r.Max.X = p.X
		}
		if p.Y > r.Max.Y {
			r.Max.Y = p.Y
		}
	}
	return r
}

// principalAxes returns the eigenvalues (major, minor) and major-axis
// direction of the vertex covariance matrix. SPAM uses this for
// elongation and orientation measurements of image regions.
func (pg Polygon) principalAxes() (major, minor float64, dir Point) {
	n := float64(len(pg))
	if n == 0 {
		return 0, 0, Point{1, 0}
	}
	var mean Point
	for _, p := range pg {
		mean = mean.Add(p)
	}
	mean = mean.Scale(1 / n)
	var sxx, syy, sxy float64
	for _, p := range pg {
		d := p.Sub(mean)
		sxx += d.X * d.X
		syy += d.Y * d.Y
		sxy += d.X * d.Y
	}
	sxx, syy, sxy = sxx/n, syy/n, sxy/n
	tr := sxx + syy
	det := sxx*syy - sxy*sxy
	disc := math.Sqrt(math.Max(0, tr*tr/4-det))
	l1 := tr/2 + disc
	l2 := tr/2 - disc
	var d Point
	if math.Abs(sxy) > 1e-12 {
		d = Point{l1 - syy, sxy}
	} else if sxx >= syy {
		d = Point{1, 0}
	} else {
		d = Point{0, 1}
	}
	if norm := d.Norm(); norm > 0 {
		d = d.Scale(1 / norm)
	}
	return l1, l2, d
}

// Elongation returns the ratio of the major to minor principal extents
// (>= 1). Long thin regions (runways, roads) have high elongation.
func (pg Polygon) Elongation() float64 {
	major, minor, _ := pg.principalAxes()
	if minor <= 1e-12 {
		return math.Inf(1)
	}
	return math.Sqrt(major / minor)
}

// Orientation returns the major-axis orientation in radians in [0, π).
func (pg Polygon) Orientation() float64 {
	_, _, d := pg.principalAxes()
	a := math.Atan2(d.Y, d.X)
	if a < 0 {
		a += math.Pi
	}
	if a >= math.Pi {
		a -= math.Pi
	}
	return a
}

// Compactness returns 4πA/P² in (0, 1]; 1 is a circle. Compact blobs
// (terminal buildings) score high, elongated strips low.
func (pg Polygon) Compactness() float64 {
	p := pg.Perimeter()
	if p <= 0 {
		return 0
	}
	return 4 * math.Pi * pg.Area() / (p * p)
}

// Contains reports whether pt is strictly inside the polygon
// (even-odd rule; boundary points count as inside).
func (pg Polygon) Contains(pt Point) bool {
	n := len(pg)
	if n < 3 {
		return false
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		pi, pj := pg[i], pg[j]
		// On-edge check.
		if distPointSegment(pt, pi, pj) < 1e-9 {
			return true
		}
		if (pi.Y > pt.Y) != (pj.Y > pt.Y) {
			xCross := pi.X + (pt.Y-pi.Y)/(pj.Y-pi.Y)*(pj.X-pi.X)
			if pt.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// segIntersect reports whether segments ab and cd intersect (including
// endpoint touching and collinear overlap).
func segIntersect(a, b, c, d Point) bool {
	d1 := orient(c, d, a)
	d2 := orient(c, d, b)
	d3 := orient(a, b, c)
	d4 := orient(a, b, d)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && onSegment(c, d, a)) ||
		(d2 == 0 && onSegment(c, d, b)) ||
		(d3 == 0 && onSegment(a, b, c)) ||
		(d4 == 0 && onSegment(a, b, d))
}

func orient(a, b, c Point) float64 {
	v := b.Sub(a).Cross(c.Sub(a))
	if math.Abs(v) < 1e-12 {
		return 0
	}
	return v
}

func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X)-1e-12 <= p.X && p.X <= math.Max(a.X, b.X)+1e-12 &&
		math.Min(a.Y, b.Y)-1e-12 <= p.Y && p.Y <= math.Max(a.Y, b.Y)+1e-12
}

// Intersects reports whether two polygons share any point (boundary or
// interior). O(n·m) edge test with an O(1) bounding-box reject — this
// is the dominant LCC constraint kernel.
func (pg Polygon) Intersects(other Polygon) bool {
	return pg.intersectsBB(pg.BBox(), other, other.BBox())
}

// intersectsBB is Intersects with caller-precomputed bounding boxes;
// the boxes only gate the reject, so the boolean is identical.
func (pg Polygon) intersectsBB(bb Rect, other Polygon, obb Rect) bool {
	if len(pg) < 3 || len(other) < 3 {
		return false
	}
	if !bb.Intersects(obb) {
		return false
	}
	n, m := len(pg), len(other)
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		for j := 0; j < m; j++ {
			c, d := other[j], other[(j+1)%m]
			if segIntersect(a, b, c, d) {
				return true
			}
		}
	}
	// No edge crossings: one may contain the other entirely.
	return pg.Contains(other[0]) || other.Contains(pg[0])
}

// ContainsPoly reports whether pg fully contains other.
func (pg Polygon) ContainsPoly(other Polygon) bool {
	if len(pg) < 3 || len(other) < 3 {
		return false
	}
	for _, p := range other {
		if !pg.Contains(p) {
			return false
		}
	}
	// All vertices inside; ensure no edge of other crosses pg's boundary
	// out and back (possible with concave pg).
	n, m := len(pg), len(other)
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		for j := 0; j < m; j++ {
			c, d := other[j], other[(j+1)%m]
			if orient(a, b, c) != 0 && orient(a, b, d) != 0 && segIntersect(a, b, c, d) {
				return false
			}
		}
	}
	return true
}

func distPointSegment(p, a, b Point) float64 {
	ab := b.Sub(a)
	l2 := ab.Dot(ab)
	if l2 == 0 {
		return p.Dist(a)
	}
	t := p.Sub(a).Dot(ab) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	proj := a.Add(ab.Scale(t))
	return p.Dist(proj)
}

// distPointSegmentSq is the squared-distance kernel: the same
// projection as distPointSegment but returning dx²+dy² with no Hypot
// call. Candidate minima are compared in squared space and a single
// Sqrt recovers the distance at the end.
func distPointSegmentSq(p, a, b Point) float64 {
	abx, aby := b.X-a.X, b.Y-a.Y
	px, py := p.X-a.X, p.Y-a.Y
	l2 := abx*abx + aby*aby
	if l2 != 0 {
		t := (px*abx + py*aby) / l2
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
		px -= t * abx
		py -= t * aby
	}
	return px*px + py*py
}

// segPairDistSq returns the squared distance between segments ab and
// cd: the minimum of the four point-segment candidates, compared
// directly (no intermediate slice).
func segPairDistSq(a, b, c, d Point) float64 {
	best := distPointSegmentSq(a, c, d)
	if v := distPointSegmentSq(b, c, d); v < best {
		best = v
	}
	if v := distPointSegmentSq(c, a, b); v < best {
		best = v
	}
	if v := distPointSegmentSq(d, a, b); v < best {
		best = v
	}
	return best
}

// boundaryDistSq returns the squared minimum boundary distance (the
// min of distPointSegmentSq over all segment pairs), assuming the
// polygons do not intersect.
func (pg Polygon) boundaryDistSq(other Polygon) float64 {
	best := math.Inf(1)
	n, m := len(pg), len(other)
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		for j := 0; j < m; j++ {
			if v := segPairDistSq(a, b, other[j], other[(j+1)%m]); v < best {
				best = v
			}
		}
	}
	return best
}

// distanceExactScan is the reference boundary-distance kernel: one
// Hypot-based distPointSegment per candidate, min over all candidates.
func (pg Polygon) distanceExactScan(other Polygon) float64 {
	best := math.Inf(1)
	n, m := len(pg), len(other)
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		for j := 0; j < m; j++ {
			c, d := other[j], other[(j+1)%m]
			if v := distPointSegment(a, c, d); v < best {
				best = v
			}
			if v := distPointSegment(b, c, d); v < best {
				best = v
			}
			if v := distPointSegment(c, a, b); v < best {
				best = v
			}
			if v := distPointSegment(d, a, b); v < best {
				best = v
			}
		}
	}
	return best
}

// DistanceExact is Distance by the reference kernel: one Hypot per
// candidate, no squared-space minimisation, no bounds. It is what the
// differential oracles hold Distance and the threshold predicates to
// (values may differ from Distance in the last ULP; every threshold
// predicate is boolean-identical, see WithinDistance).
func (pg Polygon) DistanceExact(other Polygon) float64 {
	if pg.Intersects(other) {
		return 0
	}
	return pg.distanceExactScan(other)
}

// Distance returns the minimum distance between the boundaries of two
// polygons; 0 if they intersect. The kernel minimises in squared space
// and takes one Sqrt at the end.
func (pg Polygon) Distance(other Polygon) float64 {
	if pg.Intersects(other) {
		return 0
	}
	return math.Sqrt(pg.boundaryDistSq(other))
}

// RectGapSq returns the squared separation between two axis-aligned
// rectangles (0 if they overlap). It lower-bounds the distance between
// any two point sets the rectangles bound.
func RectGapSq(a, b Rect) float64 {
	var dx, dy float64
	if d := b.Min.X - a.Max.X; d > 0 {
		dx = d
	} else if d := a.Min.X - b.Max.X; d > 0 {
		dx = d
	}
	if d := b.Min.Y - a.Max.Y; d > 0 {
		dy = d
	} else if d := a.Min.Y - b.Max.Y; d > 0 {
		dy = d
	}
	return dx*dx + dy*dy
}

// WithinDistance reports whether Distance(other) <= eps, with
// threshold-aware early exits: a conservative bounding-box separation
// bound rejects decisively-far pairs before any boundary scan, the
// scan itself runs in squared space and returns as soon as a candidate
// is decisively within eps, and only thresholds inside the guard band
// (see boundSlack) fall back to the exact Hypot kernel — so the
// boolean is identical to the exact path by construction.
func (pg Polygon) WithinDistance(other Polygon, eps float64) bool {
	return withinDistance(pg, pg.BBox(), other, other.BBox(), eps)
}

// withinDistance is the shared threshold kernel; abb and obb are the
// polygons' bounding boxes (precomputed by derived-geometry callers).
// One pass over the edge pairs asks both questions Intersects and the
// distance scan would ask in turn — does this pair cross (under
// intersectsBB's own gate), is it decisively within eps — and answers
// yes at the first pair that says so; containment, the one intersection
// no edge pair shows, is checked after the pass. Every early yes is a
// yes of the two-pass composition, and a pass that finds none computes
// the same minimum, so the boolean is the same on every input.
func withinDistance(pg Polygon, abb Rect, other Polygon, obb Rect, eps float64) bool {
	if eps < 0 {
		return false // distances are never negative
	}
	hi := eps * (1 + boundSlack)
	lo := eps * (1 - boundSlack)
	hi2, lo2 := hi*hi, lo*lo
	if RectGapSq(abb, obb) > hi2 {
		return false // decisively separated: skip the edge scans entirely
	}
	cross := len(pg) >= 3 && len(other) >= 3 && abb.Intersects(obb)
	best := math.Inf(1)
	n, m := len(pg), len(other)
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		for j := 0; j < m; j++ {
			c, d := other[j], other[(j+1)%m]
			v := segPairDistSq(a, b, c, d)
			if v <= lo2 || cross && segIntersect(a, b, c, d) {
				return true // decisively within eps, or distance 0
			}
			if v < best {
				best = v
			}
		}
	}
	if cross && (pg.Contains(other[0]) || other.Contains(pg[0])) {
		return true // one contains the other: distance 0
	}
	if best > hi2 {
		return false
	}
	// Uncertain band: the minimum landed within the guard band of eps.
	// Recompute with the exact kernel so the boolean matches it.
	return pg.distanceExactScan(other) <= eps
}

// Adjacent reports whether the two polygons are within eps of touching.
func (pg Polygon) Adjacent(other Polygon, eps float64) bool {
	if !pg.BBox().Expand(eps).Intersects(other.BBox()) {
		return false
	}
	return pg.WithinDistance(other, eps)
}

// AngleDeltaModPi returns |a-b| folded into [0, π/2] — the axis-angle
// difference used by the parallelism predicates (orientations live in
// [0, π), so the fold makes the delta winding-independent).
func AngleDeltaModPi(a, b float64) float64 {
	da := math.Abs(a - b)
	if da > math.Pi/2 {
		da = math.Pi - da
	}
	return da
}

// LateralOffset returns the perpendicular distance from target to the
// line through origin in direction dir (dir unit length) — the
// alignment measure of AlignedWith.
func LateralOffset(origin, dir, target Point) float64 {
	return math.Abs(target.Sub(origin).Cross(dir))
}

// ParallelTo reports whether the major axes of the two polygons are
// within tol radians of parallel (mod π).
func (pg Polygon) ParallelTo(other Polygon, tol float64) bool {
	return AngleDeltaModPi(pg.Orientation(), other.Orientation()) <= tol
}

// AlignedWith reports whether other lies roughly along pg's major axis:
// the line through pg's centroid in its major direction passes within
// lateralTol of other's centroid. SPAM's RTF phase uses linear
// alignment to chain collinear runway fragments.
func (pg Polygon) AlignedWith(other Polygon, lateralTol float64) bool {
	_, _, dir := pg.principalAxes()
	return LateralOffset(pg.Centroid(), dir, other.Centroid()) <= lateralTol
}

// MajorAxis returns the major-axis direction and its orientation in
// [0, π) in one principal-axes computation, for derived-geometry
// caching.
func (pg Polygon) MajorAxis() (dir Point, orientation float64) {
	_, _, d := pg.principalAxes()
	a := math.Atan2(d.Y, d.X)
	if a < 0 {
		a += math.Pi
	}
	if a >= math.Pi {
		a -= math.Pi
	}
	return d, a
}

// Derived is per-polygon geometry computed once and reused across
// predicate evaluations: the LCC hot loop re-tests the same regions
// against overlapping partner sets thousands of times, and every value
// here is a pure function of the vertex ring, so caching it is
// bit-identical to recomputation.
type Derived struct {
	BBox     Rect
	Centroid Point
	// Radius is the bounding-circle radius about the centroid: every
	// boundary point is within Radius of Centroid, so
	// |ca−cb| − ra − rb lower-bounds the boundary distance.
	Radius   float64
	Area     float64
	Compact  float64
	Elong    float64
	MajorDir Point
	Orient   float64
	// Edges[i] is vertex i+1 minus vertex i (wrapping), precomputed for
	// edge-walking callers.
	Edges []Point
}

// Derive computes the derived geometry of a polygon. Each field equals
// the corresponding Polygon method's result exactly (same operations
// on the same inputs).
func Derive(pg Polygon) *Derived {
	dir, orient := pg.MajorAxis()
	d := &Derived{
		BBox:     pg.BBox(),
		Centroid: pg.Centroid(),
		Area:     pg.Area(),
		Compact:  pg.Compactness(),
		Elong:    pg.Elongation(),
		MajorDir: dir,
		Orient:   orient,
		Edges:    make([]Point, len(pg)),
	}
	n := len(pg)
	for i := 0; i < n; i++ {
		d.Edges[i] = pg[(i+1)%n].Sub(pg[i])
		if r := pg[i].Dist(d.Centroid); r > d.Radius {
			d.Radius = r
		}
	}
	return d
}

// IntersectsD is Intersects over cached bounding boxes — identical
// boolean, no per-call BBox recomputation.
func IntersectsD(a Polygon, da *Derived, b Polygon, db *Derived) bool {
	return a.intersectsBB(da.BBox, b, db.BBox)
}

// WithinDistanceD is WithinDistance over cached derived geometry: the
// bounding-box bound uses the cached boxes and a bounding-circle
// separation bound rejects decisively-far pairs whose boxes overlap
// diagonally. Boolean-identical to the exact path by the same
// decisive-bound rule.
func WithinDistanceD(a Polygon, da *Derived, b Polygon, db *Derived, eps float64) bool {
	if eps >= 0 {
		// Bounding-circle reject: g lower-bounds the boundary distance.
		if g := da.Centroid.Dist(db.Centroid) - da.Radius - db.Radius; g > eps*(1+boundSlack) {
			return false
		}
	}
	return withinDistance(a, da.BBox, b, db.BBox, eps)
}

// ParallelD is ParallelTo over cached orientations.
func ParallelD(da, db *Derived, tol float64) bool {
	return AngleDeltaModPi(da.Orient, db.Orient) <= tol
}

// AlignedD is AlignedWith over cached centroids and major axes: does
// the line through a's centroid along a's major axis pass within
// lateralTol of b's centroid?
func AlignedD(da, db *Derived, lateralTol float64) bool {
	return LateralOffset(da.Centroid, da.MajorDir, db.Centroid) <= lateralTol
}

// RectPoly builds a rectangle polygon centered at c with the given
// length along angle theta and the given width across it.
func RectPoly(c Point, length, width, theta float64) Polygon {
	u := Point{math.Cos(theta), math.Sin(theta)}.Scale(length / 2)
	v := Point{-math.Sin(theta), math.Cos(theta)}.Scale(width / 2)
	return Polygon{
		c.Add(u).Add(v),
		c.Sub(u).Add(v),
		c.Sub(u).Sub(v),
		c.Add(u).Sub(v),
	}
}

// Blob builds an irregular n-gon around center c with mean radius r;
// jitter in [0,1) perturbs each vertex radius deterministically from
// the seed, producing natural-looking region outlines.
func Blob(c Point, r float64, n int, jitter float64, seed uint64) Polygon {
	if n < 3 {
		n = 3
	}
	pg := make(Polygon, n)
	s := seed
	for i := 0; i < n; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		frac := float64(s>>11) / float64(1<<53)
		rad := r * (1 + jitter*(frac*2-1))
		a := 2 * math.Pi * float64(i) / float64(n)
		pg[i] = Point{c.X + rad*math.Cos(a), c.Y + rad*math.Sin(a)}
	}
	return pg
}

// String renders the polygon compactly for diagnostics.
func (pg Polygon) String() string {
	return fmt.Sprintf("poly[%d pts, area %.0f]", len(pg), pg.Area())
}
