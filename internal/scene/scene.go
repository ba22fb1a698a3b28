// Package scene generates the synthetic aerial imagery segmentations
// that stand in for the paper's proprietary airport datasets (San
// Francisco International, Washington National, and NASA Ames Moffett
// Field, SPAM logs #63, #405 and #415).
//
// The parallelism experiments depend on the *statistics* of the scene —
// how many objects of each class exist, how many candidate partners
// each constraint must check, how heavy the geometry is — not on
// pixels. The generator lays out a plausible airport (runways,
// taxiways, terminals, aprons, hangars, grass, tarmac, access roads,
// parking lots) plus segmentation noise, deterministically from a
// seed, with per-dataset scale calibrated to the paper's task counts.
// A suburban-housing generator covers SPAM's second task domain.
package scene

import (
	"fmt"
	"math"

	"spampsm/internal/geom"
)

// Kind is the ground-truth class of a region.
type Kind string

// Airport-domain kinds.
const (
	Runway   Kind = "runway"
	Taxiway  Kind = "taxiway"
	Terminal Kind = "terminal-building"
	Apron    Kind = "parking-apron"
	Hangar   Kind = "hangar"
	Grass    Kind = "grassy-area"
	Tarmac   Kind = "tarmac"
	Road     Kind = "access-road"
	Lot      Kind = "parking-lot"
	Noise    Kind = "noise"
)

// Suburban-domain kinds.
const (
	House    Kind = "house"
	Driveway Kind = "driveway"
	Street   Kind = "street"
	Yard     Kind = "yard"
)

// Region is one segmented image region.
type Region struct {
	ID        int
	Poly      geom.Polygon
	TrueKind  Kind    // ground truth, used only for evaluation
	Intensity float64 // mean gray level 0..255
	Texture   float64 // 0..1 (0 smooth, 1 busy)
}

// Area returns the polygon area.
func (r *Region) Area() float64 { return r.Poly.Area() }

// Domain is the scene's task domain.
type Domain string

// Domains.
const (
	Airport  Domain = "airport"
	Suburban Domain = "suburban"
)

// Scene is one segmented image.
type Scene struct {
	Name    string
	Domain  Domain
	W, H    float64
	Regions []*Region
}

// ByKind returns the regions whose ground truth is k.
func (s *Scene) ByKind(k Kind) []*Region {
	var out []*Region
	for _, r := range s.Regions {
		if r.TrueKind == k {
			out = append(out, r)
		}
	}
	return out
}

// Region returns the region with the given ID, or nil.
func (s *Scene) Region(id int) *Region {
	for _, r := range s.Regions {
		if r.ID == id {
			return r
		}
	}
	return nil
}

// rng is a small deterministic splitmix64 generator; the module is
// offline and the experiments must be reproducible, so no math/rand.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// rangef returns a uniform float in [lo,hi).
func (r *rng) rangef(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

// intn returns a uniform int in [0,n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Params sizes an airport scene.
type Params struct {
	Name        string
	Seed        uint64
	W, H        float64
	Runways     int
	Taxiways    int // per runway
	Terminals   int
	Hangars     int
	GrassAreas  int
	TarmacAreas int
	Roads       int
	Lots        int
	NoiseBlobs  int
	// Infields is the number of very large grass expanses (the airfield
	// infield between runways). Their regions are an order of magnitude
	// bigger and more detailed than typical regions; the LCC tasks they
	// seed are the paper's tail-end outliers ("a few tasks ... have
	// execution times that are an order of magnitude larger than the
	// average"), and they sit late in the task queue.
	Infields int
	// Verts is the polygon vertex budget: higher values make the
	// geometric RHS evaluation more expensive relative to match (the
	// knob behind the per-dataset match fractions the paper reports).
	Verts int
}

// The three calibrated datasets. Region counts are tuned so that the
// LCC Level-3 decomposition produces approximately the paper's task
// counts (SF 283, DC 151, MOFF 209 tasks on the representative
// subsets).
var (
	// SF is San Francisco International (log #63): the largest scene,
	// relatively simple region outlines.
	SF = Params{
		Name: "SF", Seed: 63, W: 12000, H: 9000,
		Runways: 4, Taxiways: 9, Terminals: 8, Hangars: 14,
		GrassAreas: 36, TarmacAreas: 32, Roads: 18, Lots: 17, NoiseBlobs: 30,
		Infields: 3, Verts: 12,
	}
	// DC is Washington National (log #405): a compact scene with
	// complex shorelines — heavier geometry per region.
	DC = Params{
		Name: "DC", Seed: 405, W: 8000, H: 6000,
		Runways: 3, Taxiways: 7, Terminals: 4, Hangars: 8,
		GrassAreas: 20, TarmacAreas: 16, Roads: 11, Lots: 10, NoiseBlobs: 16,
		Infields: 2, Verts: 34,
	}
	// MOFF is NASA Ames Moffett Field (log #415): mid-sized, moderate
	// complexity.
	MOFF = Params{
		Name: "MOFF", Seed: 415, W: 10000, H: 7000,
		Runways: 3, Taxiways: 8, Terminals: 5, Hangars: 13,
		GrassAreas: 27, TarmacAreas: 23, Roads: 15, Lots: 13, NoiseBlobs: 22,
		Infields: 2, Verts: 22,
	}
)

// ParamsByName returns the calibrated dataset called name: "SF", "DC"
// or "MOFF".
func ParamsByName(name string) (Params, bool) {
	for _, p := range []Params{SF, DC, MOFF} {
		if p.Name == name {
			return p, true
		}
	}
	return Params{}, false
}

// Scale returns a copy of p with all object counts multiplied by f
// (at least 1 each). The full datasets of Tables 1-3 are the subsets
// scaled up; the parallelism analysis runs on the subsets, as the
// paper's footnote 4 describes.
func (p Params) Scale(f float64) Params {
	q := p
	mul := func(n int) int {
		m := int(math.Round(float64(n) * f))
		if m < 1 {
			m = 1
		}
		return m
	}
	q.Runways = mul(p.Runways)
	q.Taxiways = mul(p.Taxiways)
	q.Terminals = mul(p.Terminals)
	q.Hangars = mul(p.Hangars)
	q.GrassAreas = mul(p.GrassAreas)
	q.TarmacAreas = mul(p.TarmacAreas)
	q.Roads = mul(p.Roads)
	q.Lots = mul(p.Lots)
	q.NoiseBlobs = mul(p.NoiseBlobs)
	q.Infields = mul(p.Infields)
	q.W = p.W * math.Sqrt(f)
	q.H = p.H * math.Sqrt(f)
	return q
}

// intensity profiles per kind: mean gray level and texture.
var profiles = map[Kind]struct{ intensity, texture float64 }{
	Runway:   {190, 0.10},
	Taxiway:  {170, 0.12},
	Terminal: {120, 0.35},
	Apron:    {150, 0.20},
	Hangar:   {110, 0.30},
	Grass:    {70, 0.55},
	Tarmac:   {160, 0.15},
	Road:     {140, 0.18},
	Lot:      {130, 0.25},
	Noise:    {100, 0.70},
	House:    {115, 0.32},
	Driveway: {145, 0.15},
	Street:   {150, 0.12},
	Yard:     {75, 0.50},
}

// Generate builds an airport scene from the parameters.
func Generate(p Params) *Scene {
	rnd := newRng(p.Seed)
	s := &Scene{Name: p.Name, Domain: Airport, W: p.W, H: p.H}
	nextID := 1
	add := func(k Kind, poly geom.Polygon) *Region {
		prof := profiles[k]
		r := &Region{
			ID:        nextID,
			Poly:      poly,
			TrueKind:  k,
			Intensity: prof.intensity + rnd.rangef(-12, 12),
			Texture:   math.Max(0, math.Min(1, prof.texture+rnd.rangef(-0.06, 0.06))),
		}
		nextID++
		s.Regions = append(s.Regions, r)
		return r
	}
	roughen := func(poly geom.Polygon) geom.Polygon {
		return roughenPoly(poly, p.Verts, rnd)
	}

	// Runways: long parallel strips with slight angle jitter, spread
	// vertically through the scene.
	baseAngle := rnd.rangef(-0.2, 0.2)
	var runways []*Region
	for i := 0; i < p.Runways; i++ {
		cy := p.H * (0.25 + 0.5*float64(i)/math.Max(1, float64(p.Runways-1)))
		if p.Runways == 1 {
			cy = p.H * 0.5
		}
		c := geom.Point{X: p.W * rnd.rangef(0.4, 0.6), Y: cy}
		length := p.W * rnd.rangef(0.55, 0.8)
		width := rnd.rangef(45, 60)
		angle := baseAngle + rnd.rangef(-0.05, 0.05)
		r := add(Runway, roughen(geom.RectPoly(c, length, width, angle)))
		runways = append(runways, r)
	}

	// Taxiways: strips crossing or joining runways at an angle.
	for _, rw := range runways {
		for j := 0; j < p.Taxiways; j++ {
			t := rnd.rangef(0.15, 0.85)
			bb := rw.Poly.BBox()
			anchor := geom.Point{
				X: bb.Min.X + t*bb.W(),
				Y: bb.Min.Y + t*bb.H(),
			}
			angle := baseAngle + math.Pi/2 + rnd.rangef(-0.6, 0.6)
			length := rnd.rangef(500, 1600)
			width := rnd.rangef(20, 32)
			// Offset the center so the taxiway touches the runway.
			off := geom.Point{X: math.Cos(angle), Y: math.Sin(angle)}.Scale(length * 0.45)
			c := anchor.Add(off)
			add(Taxiway, roughen(geom.RectPoly(c, length, width, angle)))
		}
	}

	// Terminals along the lower edge, each with an adjacent apron and
	// an access road leading to it.
	for i := 0; i < p.Terminals; i++ {
		cx := p.W * (0.1 + 0.8*float64(i)/math.Max(1, float64(p.Terminals)))
		c := geom.Point{X: cx, Y: p.H * rnd.rangef(0.08, 0.16)}
		tw := rnd.rangef(180, 380)
		th := rnd.rangef(90, 160)
		term := add(Terminal, roughen(geom.RectPoly(c, tw, th, rnd.rangef(-0.1, 0.1))))
		// Apron adjacent (just above) the terminal.
		ac := c.Add(geom.Point{X: rnd.rangef(-40, 40), Y: th/2 + rnd.rangef(60, 120)})
		add(Apron, roughen(geom.RectPoly(ac, tw*rnd.rangef(1.1, 1.6), rnd.rangef(140, 240), rnd.rangef(-0.08, 0.08))))
		// Access road from the edge to the terminal.
		rc := c.Add(geom.Point{X: rnd.rangef(-30, 30), Y: -(th/2 + rnd.rangef(150, 260))})
		add(Road, roughen(geom.RectPoly(rc, rnd.rangef(300, 600), rnd.rangef(12, 20), math.Pi/2+rnd.rangef(-0.15, 0.15))))
		_ = term
	}

	// Hangars cluster near the aprons.
	for i := 0; i < p.Hangars; i++ {
		c := geom.Point{X: p.W * rnd.rangef(0.05, 0.95), Y: p.H * rnd.rangef(0.12, 0.3)}
		add(Hangar, roughen(geom.RectPoly(c, rnd.rangef(80, 160), rnd.rangef(60, 110), rnd.rangef(-0.3, 0.3))))
	}

	// Grass between runways; tarmac patches near taxiways.
	for i := 0; i < p.GrassAreas; i++ {
		c := geom.Point{X: p.W * rnd.rangef(0.1, 0.9), Y: p.H * rnd.rangef(0.3, 0.85)}
		add(Grass, geom.Blob(c, rnd.rangef(150, 500), p.Verts+rnd.intn(6), 0.35, rnd.next()))
	}
	for i := 0; i < p.TarmacAreas; i++ {
		c := geom.Point{X: p.W * rnd.rangef(0.1, 0.9), Y: p.H * rnd.rangef(0.2, 0.7)}
		add(Tarmac, geom.Blob(c, rnd.rangef(100, 300), p.Verts+rnd.intn(4), 0.25, rnd.next()))
	}

	// Extra roads and parking lots in the landside strip.
	for i := 0; i < p.Roads; i++ {
		c := geom.Point{X: p.W * rnd.rangef(0.05, 0.95), Y: p.H * rnd.rangef(0.02, 0.12)}
		add(Road, roughen(geom.RectPoly(c, rnd.rangef(400, 900), rnd.rangef(10, 18), rnd.rangef(-0.4, 0.4))))
	}
	for i := 0; i < p.Lots; i++ {
		c := geom.Point{X: p.W * rnd.rangef(0.05, 0.95), Y: p.H * rnd.rangef(0.02, 0.14)}
		add(Lot, roughen(geom.RectPoly(c, rnd.rangef(120, 260), rnd.rangef(80, 160), rnd.rangef(-0.2, 0.2))))
	}

	// Infields: the huge grass expanses between and around the runways.
	// Late in generation order (and so late in the task queue), with
	// far more boundary detail than typical regions.
	for i := 0; i < p.Infields; i++ {
		c := geom.Point{X: p.W * rnd.rangef(0.3, 0.7), Y: p.H * rnd.rangef(0.4, 0.7)}
		add(Grass, geom.Blob(c, rnd.rangef(1200, 2000), p.Verts*7, 0.3, rnd.next()))
	}

	// Segmentation noise: irregular blobs anywhere.
	for i := 0; i < p.NoiseBlobs; i++ {
		c := geom.Point{X: p.W * rnd.float(), Y: p.H * rnd.float()}
		add(Noise, geom.Blob(c, rnd.rangef(30, 140), 5+rnd.intn(6), 0.6, rnd.next()))
	}
	return s
}

// roughenPoly resamples a rectangle outline to ~verts vertices with
// small perturbations, simulating segmentation boundaries.
func roughenPoly(rect geom.Polygon, verts int, rnd *rng) geom.Polygon {
	if verts <= 4 {
		return rect
	}
	per := rect.Perimeter()
	step := per / float64(verts)
	var out geom.Polygon
	// Walk the boundary, emitting jittered points.
	for i := 0; i < len(rect); i++ {
		a := rect[i]
		b := rect[(i+1)%len(rect)]
		edge := b.Sub(a)
		elen := edge.Norm()
		n := int(elen / step)
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			t := float64(k) / float64(n)
			pt := a.Add(edge.Scale(t))
			// Perpendicular jitter of up to 1.5% of the edge length.
			perp := geom.Point{X: -edge.Y / elen, Y: edge.X / elen}
			pt = pt.Add(perp.Scale(rnd.rangef(-0.015, 0.015) * elen))
			out = append(out, pt)
		}
	}
	if len(out) < 3 {
		return rect
	}
	return out
}

// SuburbanParams sizes a suburban housing scene.
type SuburbanParams struct {
	Name           string
	Seed           uint64
	Blocks         int // city blocks; each block has houses along a street
	HousesPerBlock int
	Verts          int
}

// GenerateSuburban builds a suburban housing development scene: streets
// in a grid, houses with driveways connecting to the street, yards
// around houses — SPAM's second task area.
func GenerateSuburban(p SuburbanParams) *Scene {
	rnd := newRng(p.Seed)
	blockW, blockH := 800.0, 500.0
	cols := int(math.Ceil(math.Sqrt(float64(p.Blocks))))
	if cols < 1 {
		cols = 1
	}
	rows := (p.Blocks + cols - 1) / cols
	s := &Scene{
		Name: p.Name, Domain: Suburban,
		W: float64(cols) * blockW, H: float64(rows) * blockH,
	}
	nextID := 1
	add := func(k Kind, poly geom.Polygon) *Region {
		prof := profiles[k]
		r := &Region{
			ID: nextID, Poly: poly, TrueKind: k,
			Intensity: prof.intensity + rnd.rangef(-10, 10),
			Texture:   math.Max(0, math.Min(1, prof.texture+rnd.rangef(-0.05, 0.05))),
		}
		nextID++
		s.Regions = append(s.Regions, r)
		return r
	}
	for b := 0; b < p.Blocks; b++ {
		bx := float64(b%cols) * blockW
		by := float64(b/cols) * blockH
		// Street along the bottom of the block.
		street := geom.RectPoly(geom.Point{X: bx + blockW/2, Y: by + 30}, blockW*0.95, 24, 0)
		add(Street, street)
		for h := 0; h < p.HousesPerBlock; h++ {
			hx := bx + blockW*(0.1+0.8*float64(h)/math.Max(1, float64(p.HousesPerBlock)))
			hy := by + rnd.rangef(180, 320)
			house := geom.RectPoly(geom.Point{X: hx, Y: hy}, rnd.rangef(60, 110), rnd.rangef(45, 75), rnd.rangef(-0.15, 0.15))
			add(House, house)
			// Driveway from the house toward the street.
			dLen := hy - (by + 42)
			dc := geom.Point{X: hx + rnd.rangef(-20, 20), Y: by + 42 + dLen/2}
			add(Driveway, geom.RectPoly(dc, dLen, rnd.rangef(8, 14), math.Pi/2))
			// Yard blob behind the house.
			yc := geom.Point{X: hx + rnd.rangef(-40, 40), Y: hy + rnd.rangef(60, 120)}
			add(Yard, geom.Blob(yc, rnd.rangef(50, 110), p.Verts, 0.4, rnd.next()))
		}
	}
	return s
}

// Stats summarizes a scene for diagnostics.
func (s *Scene) Stats() string {
	counts := map[Kind]int{}
	for _, r := range s.Regions {
		counts[r.TrueKind]++
	}
	return fmt.Sprintf("%s: %d regions %v", s.Name, len(s.Regions), counts)
}
