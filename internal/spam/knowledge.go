// Package spam reproduces SPAM, the rule-based aerial-image
// interpretation system the paper parallelizes: the four interpretation
// phases (RTF region-to-fragment classification, LCC local-consistency
// checking, FA functional-area aggregation, MODEL model generation),
// the airport and suburban knowledge bases, the OPS5 rule sets compiled
// from them, the external geometric computation, and the Level 1-4 task
// decompositions of Section 4.
package spam

import (
	"fmt"
	"slices"

	"spampsm/internal/scene"
)

// Relation names the spatial predicates of the constraint knowledge.
const (
	RelIntersects  = "intersects"
	RelAdjacent    = "adjacent-to"
	RelNear        = "near"
	RelParallel    = "parallel-to"
	RelLeadsTo     = "leads-to"
	RelContainedIn = "contained-in"
	RelAligned     = "aligned-with"
)

// Constraint is one piece of spatial consistency knowledge: fragments
// of class Subject are checked for Relation against fragments of class
// Object. Eps is the relation's tolerance in scene units; Radius is the
// candidate search radius used when assembling a task's partner set.
type Constraint struct {
	ID       string
	Subject  scene.Kind
	Relation string
	Object   scene.Kind
	Eps      float64
	Radius   float64
}

// Evidence is one RTF classification rule: attribute ranges that
// support interpreting a region as Class with the given confidence.
// Zero-valued bounds mean "no test". Tier names the strength of the
// evidence; each (class, tier) pair becomes one generated production.
type Evidence struct {
	Class      scene.Kind
	Tier       string
	MinElong   float64
	MaxElong   float64
	MinArea    float64
	MaxArea    float64
	MinInt     float64
	MaxInt     float64
	MaxTexture float64
	MinCompact float64
	Confidence int // 0..100
}

// FASpec describes one functional-area type: which fragment class
// seeds it, which classes join as members, and which classes the
// context predicts inside it (the paper's context-driven prediction).
type FASpec struct {
	Type     string
	Seed     scene.Kind
	Members  []scene.Kind
	Predicts []scene.Kind
}

// KB is a task-domain knowledge base, built by AirportKB or SuburbanKB
// and read-only from then on.
type KB struct {
	Domain      scene.Domain
	Classes     []scene.Kind
	Constraints []Constraint
	Evidence    []Evidence
	FAs         []FASpec

	bySubject map[scene.Kind][]Constraint // Constraints by subject class, in order
}

// addConstraint appends a constraint, its ID numbered after prefix.
func (kb *KB) addConstraint(prefix string, subject scene.Kind, rel string, object scene.Kind, eps, radius float64) {
	c := Constraint{
		ID:      fmt.Sprintf("%s%d-%s", prefix, len(kb.Constraints)+1, rel),
		Subject: subject, Relation: rel, Object: object, Eps: eps, Radius: radius,
	}
	kb.Constraints = append(kb.Constraints, c)
	if kb.bySubject == nil {
		kb.bySubject = map[scene.Kind][]Constraint{}
	}
	kb.bySubject[subject] = append(kb.bySubject[subject], c)
}

// ConstraintsFor returns the constraints whose subject is the class, in
// KB order. The slice is the KB's own: read it, do not modify it.
func (kb *KB) ConstraintsFor(class scene.Kind) []Constraint {
	return slices.Clip(kb.bySubject[class])
}

// Constraint returns the constraint with the given ID, or nil.
func (kb *KB) Constraint(id string) *Constraint {
	for i := range kb.Constraints {
		if kb.Constraints[i].ID == id {
			return &kb.Constraints[i]
		}
	}
	return nil
}

// AirportKB builds the airport-domain knowledge base: the nine scene
// classes, ~30 spatial constraints ("runways intersect taxiways",
// "terminal buildings are adjacent to parking aprons", "access roads
// lead to terminal buildings", ...), three evidence tiers per class for
// RTF, and the functional-area specifications.
func AirportKB() *KB {
	kb := &KB{
		Domain: scene.Airport,
		Classes: []scene.Kind{
			scene.Runway, scene.Taxiway, scene.Terminal, scene.Apron,
			scene.Hangar, scene.Grass, scene.Tarmac, scene.Road, scene.Lot,
		},
	}
	add := func(subject scene.Kind, rel string, object scene.Kind, eps, radius float64) {
		kb.addConstraint("c", subject, rel, object, eps, radius)
	}
	// Runway constraints.
	add(scene.Runway, RelIntersects, scene.Taxiway, 0, 1200)
	add(scene.Runway, RelParallel, scene.Runway, 0.12, 9000)
	add(scene.Runway, RelNear, scene.Grass, 900, 3000)
	add(scene.Runway, RelAligned, scene.Runway, 250, 10000)
	// Taxiway constraints.
	add(scene.Taxiway, RelIntersects, scene.Runway, 0, 1200)
	add(scene.Taxiway, RelNear, scene.Tarmac, 700, 2400)
	add(scene.Taxiway, RelIntersects, scene.Taxiway, 0, 1400)
	// Terminal constraints.
	add(scene.Terminal, RelAdjacent, scene.Apron, 260, 1600)
	add(scene.Terminal, RelLeadsTo, scene.Road, 600, 2400)
	add(scene.Terminal, RelNear, scene.Lot, 900, 3000)
	// Apron constraints.
	add(scene.Apron, RelAdjacent, scene.Terminal, 260, 1600)
	add(scene.Apron, RelNear, scene.Hangar, 900, 3000)
	add(scene.Apron, RelNear, scene.Taxiway, 1200, 3600)
	// Hangar constraints.
	add(scene.Hangar, RelNear, scene.Apron, 900, 3000)
	add(scene.Hangar, RelNear, scene.Tarmac, 900, 2800)
	add(scene.Hangar, RelNear, scene.Hangar, 700, 2400)
	// Grass constraints.
	add(scene.Grass, RelNear, scene.Runway, 900, 3000)
	add(scene.Grass, RelNear, scene.Grass, 900, 2800)
	// Tarmac constraints.
	add(scene.Tarmac, RelNear, scene.Taxiway, 700, 2400)
	add(scene.Tarmac, RelNear, scene.Hangar, 900, 2800)
	// Access-road constraints.
	add(scene.Road, RelLeadsTo, scene.Terminal, 600, 2400)
	add(scene.Road, RelAdjacent, scene.Lot, 220, 1600)
	add(scene.Road, RelIntersects, scene.Road, 0, 2000)
	// Parking-lot constraints.
	add(scene.Lot, RelAdjacent, scene.Road, 220, 1600)
	add(scene.Lot, RelNear, scene.Terminal, 900, 3000)
	add(scene.Lot, RelNear, scene.Lot, 600, 2400)

	kb.Evidence = airportEvidence()
	kb.FAs = []FASpec{
		{Type: "runway-functional-area", Seed: scene.Runway,
			Members:  []scene.Kind{scene.Taxiway, scene.Grass},
			Predicts: []scene.Kind{scene.Grass, scene.Tarmac}},
		{Type: "terminal-functional-area", Seed: scene.Terminal,
			Members:  []scene.Kind{scene.Apron, scene.Road, scene.Lot},
			Predicts: []scene.Kind{scene.Lot}},
		{Type: "hangar-functional-area", Seed: scene.Hangar,
			Members:  []scene.Kind{scene.Tarmac, scene.Apron},
			Predicts: []scene.Kind{scene.Tarmac}},
	}
	return kb
}

func airportEvidence() []Evidence {
	var ev []Evidence
	// Segmentation noise is busy (texture ≈ 0.7); man-made and grass
	// surfaces are smoother. Every evidence rule carries a texture
	// ceiling so that noise blobs stay unclassified until a
	// functional-area context predicts an interpretation for them (the
	// FA→LCC re-entry path).
	add := func(e Evidence) {
		if e.MaxTexture == 0 {
			e.MaxTexture = 0.62
		}
		ev = append(ev, e)
	}
	// Runway: very elongated, bright, large.
	add(Evidence{Class: scene.Runway, Tier: "strong", MinElong: 9, MinArea: 80000, MinInt: 170, MaxTexture: 0.25, Confidence: 90})
	add(Evidence{Class: scene.Runway, Tier: "medium", MinElong: 7, MinArea: 40000, MinInt: 150, Confidence: 65})
	add(Evidence{Class: scene.Runway, Tier: "weak", MinElong: 6, MinInt: 140, Confidence: 40})
	// Taxiway: elongated, narrower, slightly darker than runway.
	add(Evidence{Class: scene.Taxiway, Tier: "strong", MinElong: 8, MaxArea: 70000, MinInt: 150, MaxInt: 200, MaxTexture: 0.3, Confidence: 85})
	add(Evidence{Class: scene.Taxiway, Tier: "medium", MinElong: 6, MaxArea: 90000, MinInt: 140, Confidence: 60})
	add(Evidence{Class: scene.Taxiway, Tier: "weak", MinElong: 5, MinInt: 130, MaxInt: 210, Confidence: 35})
	// Terminal: compact, mid-dark, moderate area.
	add(Evidence{Class: scene.Terminal, Tier: "strong", MaxElong: 3.5, MinArea: 15000, MinInt: 95, MaxInt: 133, MinCompact: 0.4, Confidence: 85})
	add(Evidence{Class: scene.Terminal, Tier: "medium", MaxElong: 4.5, MinArea: 9000, MinInt: 90, MaxInt: 140, Confidence: 60})
	add(Evidence{Class: scene.Terminal, Tier: "weak", MaxElong: 5.5, MinArea: 6000, MaxInt: 148, Confidence: 35})
	// Apron: large compact bright-ish.
	add(Evidence{Class: scene.Apron, Tier: "strong", MaxElong: 4, MinArea: 30000, MinInt: 125, MaxInt: 156, Confidence: 80})
	add(Evidence{Class: scene.Apron, Tier: "medium", MaxElong: 5, MinArea: 18000, MinInt: 115, MaxInt: 160, Confidence: 55})
	// Hangar: compact, dark, medium.
	add(Evidence{Class: scene.Hangar, Tier: "strong", MaxElong: 3, MinArea: 4000, MaxArea: 30000, MinInt: 85, MaxInt: 135, Confidence: 80})
	add(Evidence{Class: scene.Hangar, Tier: "medium", MaxElong: 4, MinArea: 2500, MaxInt: 145, Confidence: 50})
	// Grass: dark, textured, blobby.
	add(Evidence{Class: scene.Grass, Tier: "strong", MaxElong: 4, MinArea: 20000, MaxInt: 100, Confidence: 85})
	add(Evidence{Class: scene.Grass, Tier: "medium", MaxElong: 6, MaxInt: 110, Confidence: 55})
	// Tarmac: mid-bright blobs.
	add(Evidence{Class: scene.Tarmac, Tier: "strong", MaxElong: 4, MinArea: 8000, MinInt: 150, MaxInt: 185, MaxTexture: 0.3, Confidence: 75})
	add(Evidence{Class: scene.Tarmac, Tier: "medium", MaxElong: 5, MinInt: 146, MaxInt: 195, Confidence: 45})
	// Road: thin, long, mid intensity.
	add(Evidence{Class: scene.Road, Tier: "strong", MinElong: 10, MaxArea: 30000, MinInt: 120, MaxInt: 170, Confidence: 80})
	add(Evidence{Class: scene.Road, Tier: "medium", MinElong: 7, MaxArea: 40000, MinInt: 110, Confidence: 50})
	// Lot: compact mid region near scene edge.
	add(Evidence{Class: scene.Lot, Tier: "strong", MaxElong: 3.5, MinArea: 8000, MaxArea: 60000, MinInt: 124, MaxInt: 160, Confidence: 70})
	add(Evidence{Class: scene.Lot, Tier: "medium", MaxElong: 4.5, MinArea: 5000, MinInt: 118, MaxInt: 170, Confidence: 45})
	return ev
}

// SuburbanKB builds the suburban-housing knowledge base, SPAM's second
// task area.
func SuburbanKB() *KB {
	kb := &KB{
		Domain:  scene.Suburban,
		Classes: []scene.Kind{scene.House, scene.Driveway, scene.Street, scene.Yard},
	}
	add := func(subject scene.Kind, rel string, object scene.Kind, eps, radius float64) {
		kb.addConstraint("s", subject, rel, object, eps, radius)
	}
	add(scene.House, RelAdjacent, scene.Driveway, 60, 250)
	add(scene.House, RelNear, scene.Street, 400, 700)
	add(scene.House, RelNear, scene.Yard, 200, 450)
	add(scene.Driveway, RelAdjacent, scene.House, 60, 250)
	add(scene.Driveway, RelAdjacent, scene.Street, 60, 250)
	add(scene.Street, RelParallel, scene.Street, 0.15, 2500)
	add(scene.Street, RelAdjacent, scene.Driveway, 60, 400)
	add(scene.Yard, RelNear, scene.House, 200, 450)

	kb.Evidence = []Evidence{
		{Class: scene.House, Tier: "strong", MaxElong: 3, MinArea: 2000, MaxArea: 12000, MinInt: 95, MaxInt: 140, Confidence: 85},
		{Class: scene.House, Tier: "medium", MaxElong: 4, MinArea: 1200, MaxInt: 150, Confidence: 55},
		{Class: scene.Driveway, Tier: "strong", MinElong: 6, MaxArea: 6000, MinInt: 125, MaxInt: 165, Confidence: 80},
		{Class: scene.Driveway, Tier: "medium", MinElong: 4, MaxArea: 9000, MinInt: 115, Confidence: 50},
		{Class: scene.Street, Tier: "strong", MinElong: 12, MinArea: 8000, MinInt: 130, MaxInt: 175, Confidence: 85},
		{Class: scene.Street, Tier: "medium", MinElong: 8, MinInt: 120, Confidence: 55},
		{Class: scene.Yard, Tier: "strong", MaxElong: 4, MaxInt: 100, Confidence: 80},
		{Class: scene.Yard, Tier: "medium", MaxElong: 6, MaxInt: 115, Confidence: 50},
	}
	kb.FAs = []FASpec{
		{Type: "house-group", Seed: scene.House,
			Members:  []scene.Kind{scene.Driveway, scene.Yard},
			Predicts: []scene.Kind{scene.Yard}},
		{Type: "street-block", Seed: scene.Street,
			Members:  []scene.Kind{scene.Driveway, scene.House},
			Predicts: []scene.Kind{scene.Driveway}},
	}
	return kb
}
