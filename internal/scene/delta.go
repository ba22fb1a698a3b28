// Scene deltas: the update representation behind incremental
// re-interpretation. A Delta lists the regions a fresh segmentation of
// known imagery removed, replaced, or introduced; Churn generates
// realistic deltas deterministically (new cloud/shadow occlusions, the
// segmenter re-drawing boundaries it mis-segmented last pass, objects
// drifting between acquisitions, emergent blobs), and Apply folds a
// delta into a scene in place, preserving the untouched regions'
// identity and order so the interpretation layer can re-run only what
// changed.
package scene

import (
	"fmt"
	"math"
	"sort"

	"spampsm/internal/geom"
)

// Delta is one scene update: the difference between two segmentations
// of the same site. Removed lists region IDs no longer present
// (occluded or merged away), Moved lists replacement regions that keep
// their IDs but changed geometrically or photometrically, and Added
// lists new regions under previously-unused IDs.
type Delta struct {
	// Base names the scene the delta was generated against (diagnostic
	// only; Apply does not check it).
	Base    string    `json:"base,omitempty"`
	Removed []int     `json:"removed,omitempty"`
	Moved   []*Region `json:"moved,omitempty"`
	Added   []*Region `json:"added,omitempty"`
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool {
	return d == nil || len(d.Removed)+len(d.Moved)+len(d.Added) == 0
}

// Size returns the number of region changes the delta carries.
func (d *Delta) Size() int {
	if d == nil {
		return 0
	}
	return len(d.Removed) + len(d.Moved) + len(d.Added)
}

// ChangedIDs returns the sorted union of every region ID the delta
// touches.
func (d *Delta) ChangedIDs() []int {
	if d == nil {
		return nil
	}
	ids := make([]int, 0, d.Size())
	ids = append(ids, d.Removed...)
	for _, r := range d.Moved {
		ids = append(ids, r.ID)
	}
	for _, r := range d.Added {
		ids = append(ids, r.ID)
	}
	sort.Ints(ids)
	return ids
}

// Churn parameterizes delta generation: which fraction of the scene a
// re-acquisition disturbs and how the disturbance splits between the
// physical mechanisms.
type Churn struct {
	// Seed makes the delta deterministic, independent of the scene's
	// own generation seed.
	Seed uint64
	// Fraction of the scene's regions affected (0..1). A positive
	// fraction always affects at least one region, and one of 1 or more
	// affects every region; one that is not above 0, NaN included,
	// affects none.
	Fraction float64
	// Occlusion is the share of affected regions that vanish outright —
	// cloud shadow, sensor dropout, or a merge into a neighbour.
	Occlusion float64
	// MisSeg is the share of affected regions whose boundary the
	// segmenter re-draws in place (the mis-segmentation knob): same
	// object, jittered outline and photometry.
	MisSeg float64
	// The remaining share (1 − Occlusion − MisSeg) drifts: same shape
	// translated, as parked aircraft, vehicles and shadows move
	// between acquisitions.

	// Emergent is the number of newly-appearing regions, as a fraction
	// of the affected count — uncovered objects and fresh noise blobs.
	Emergent float64
}

// DefaultChurn is the standard update mix used by the experiments:
// a quarter of the affected regions occluded, half re-segmented in
// place, the rest drifting, plus one emergent region for every four
// affected (so region counts stay roughly stable as removals are
// offset).
func DefaultChurn(seed uint64, fraction float64) Churn {
	return Churn{Seed: seed, Fraction: fraction, Occlusion: 0.25, MisSeg: 0.5, Emergent: 0.25}
}

// Churn generates a deterministic delta against the scene. The scene
// itself is not modified.
func (s *Scene) Churn(c Churn) *Delta {
	d := &Delta{Base: s.Name}
	if !(c.Fraction > 0) || len(s.Regions) == 0 {
		return d
	}
	rnd := newRng(c.Seed ^ 0xd1ce5eed)
	// Clamp in float: a huge fraction's product overflows int.
	n := len(s.Regions)
	if f := math.Round(c.Fraction * float64(n)); f < float64(n) {
		n = max(1, int(f))
	}
	maxID := 0
	for _, r := range s.Regions {
		if r.ID > maxID {
			maxID = r.ID
		}
	}
	// Pick n distinct regions.
	picked := make(map[int]bool, n)
	var affected []*Region
	for len(affected) < n {
		i := rnd.intn(len(s.Regions))
		if picked[i] {
			continue
		}
		picked[i] = true
		affected = append(affected, s.Regions[i])
	}
	for _, r := range affected {
		switch u := rnd.float(); {
		case u < c.Occlusion:
			d.Removed = append(d.Removed, r.ID)
		case u < c.Occlusion+c.MisSeg:
			d.Moved = append(d.Moved, resegment(r, rnd))
		default:
			d.Moved = append(d.Moved, drift(r, s, rnd))
		}
	}
	// Emergent regions get fresh IDs past the current maximum.
	k := int(math.Round(c.Emergent * float64(n)))
	for i := 0; i < k; i++ {
		maxID++
		d.Added = append(d.Added, emergent(maxID, s, rnd))
	}
	return d
}

// resegment re-draws a region's boundary in place: every vertex is
// jittered by up to 2.5% of the bbox diagonal, and the photometry
// shifts slightly — the segmenter correcting (or re-committing) a
// mis-segmentation.
func resegment(r *Region, rnd *rng) *Region {
	bb := r.Poly.BBox()
	mag := 0.025 * math.Hypot(bb.W(), bb.H())
	poly := make(geom.Polygon, len(r.Poly))
	for i, p := range r.Poly {
		poly[i] = geom.Point{
			X: p.X + rnd.rangef(-mag, mag),
			Y: p.Y + rnd.rangef(-mag, mag),
		}
	}
	return &Region{
		ID:        r.ID,
		Poly:      poly,
		TrueKind:  r.TrueKind,
		Intensity: r.Intensity + rnd.rangef(-6, 6),
		Texture:   math.Max(0, math.Min(1, r.Texture+rnd.rangef(-0.04, 0.04))),
	}
}

// drift translates a region rigidly by up to 3% of the scene extent —
// objects (and their shadows) moving between acquisitions.
func drift(r *Region, s *Scene, rnd *rng) *Region {
	dx := rnd.rangef(-0.03, 0.03) * s.W
	dy := rnd.rangef(-0.03, 0.03) * s.H
	poly := make(geom.Polygon, len(r.Poly))
	for i, p := range r.Poly {
		poly[i] = geom.Point{X: p.X + dx, Y: p.Y + dy}
	}
	out := *r
	out.Poly = poly
	return &out
}

// emergent builds a newly-appearing region: a blob of one of the
// transient kinds at a random position.
func emergent(id int, s *Scene, rnd *rng) *Region {
	kinds := []Kind{Noise, Tarmac, Grass, Lot}
	if s.Domain == Suburban {
		kinds = []Kind{Yard, Driveway}
	}
	k := kinds[rnd.intn(len(kinds))]
	prof := profiles[k]
	c := geom.Point{X: s.W * rnd.float(), Y: s.H * rnd.float()}
	return &Region{
		ID:        id,
		Poly:      geom.Blob(c, rnd.rangef(60, 220), 7+rnd.intn(6), 0.45, rnd.next()),
		TrueKind:  k,
		Intensity: prof.intensity + rnd.rangef(-12, 12),
		Texture:   math.Max(0, math.Min(1, prof.texture+rnd.rangef(-0.06, 0.06))),
	}
}

// Apply folds a delta into the scene in place: removed regions leave
// the slice (their IDs become holes), moved regions are replaced at
// their existing position, added regions append in delta order.
// Untouched *Region pointers are preserved, so region identity — and
// everything derived from it — survives the update. Unknown removed or
// moved IDs and colliding added IDs are errors, applied atomically
// (the scene is untouched on error).
func (s *Scene) Apply(d *Delta) error {
	if d.Empty() {
		return nil
	}
	byID := make(map[int]int, len(s.Regions))
	for i, r := range s.Regions {
		byID[r.ID] = i
	}
	for _, id := range d.Removed {
		if _, ok := byID[id]; !ok {
			return fmt.Errorf("scene: delta removes unknown region %d", id)
		}
	}
	for _, r := range d.Moved {
		if _, ok := byID[r.ID]; !ok {
			return fmt.Errorf("scene: delta moves unknown region %d", r.ID)
		}
	}
	for _, r := range d.Added {
		if _, ok := byID[r.ID]; ok {
			return fmt.Errorf("scene: delta adds region %d which already exists", r.ID)
		}
	}
	removed := make(map[int]bool, len(d.Removed))
	for _, id := range d.Removed {
		removed[id] = true
	}
	for _, r := range d.Moved {
		s.Regions[byID[r.ID]] = r
	}
	out := s.Regions[:0]
	for _, r := range s.Regions {
		if !removed[r.ID] {
			out = append(out, r)
		}
	}
	s.Regions = append(out, d.Added...)
	return nil
}

// Clone returns a deep copy of the scene: private Region records (the
// polygons, being immutable by convention, are shared). Sessions that
// apply deltas clone first so the original — often a shared, pinned
// dataset — is never mutated.
func (s *Scene) Clone() *Scene {
	out := *s
	out.Regions = make([]*Region, len(s.Regions))
	for i, r := range s.Regions {
		cp := *r
		out.Regions[i] = &cp
	}
	return &out
}
