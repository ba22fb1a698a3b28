package scene

import (
	"math"
	"testing"

	"spampsm/internal/geom"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(SF)
	b := Generate(SF)
	if len(a.Regions) != len(b.Regions) {
		t.Fatalf("region counts differ: %d vs %d", len(a.Regions), len(b.Regions))
	}
	for i := range a.Regions {
		ra, rb := a.Regions[i], b.Regions[i]
		if ra.TrueKind != rb.TrueKind || ra.Intensity != rb.Intensity || len(ra.Poly) != len(rb.Poly) {
			t.Fatalf("region %d differs between runs", i)
		}
	}
}

func TestDatasetsDiffer(t *testing.T) {
	sf, dc := Generate(SF), Generate(DC)
	if len(sf.Regions) <= len(dc.Regions) {
		t.Errorf("SF (%d) should be larger than DC (%d)", len(sf.Regions), len(dc.Regions))
	}
}

func TestRegionCountsMatchParams(t *testing.T) {
	p := SF
	s := Generate(p)
	if got := len(s.ByKind(Runway)); got != p.Runways {
		t.Errorf("runways = %d, want %d", got, p.Runways)
	}
	if got := len(s.ByKind(Taxiway)); got != p.Runways*p.Taxiways {
		t.Errorf("taxiways = %d, want %d", got, p.Runways*p.Taxiways)
	}
	if got := len(s.ByKind(Terminal)); got != p.Terminals {
		t.Errorf("terminals = %d, want %d", got, p.Terminals)
	}
	// Each terminal brings an apron and a road.
	if got := len(s.ByKind(Apron)); got != p.Terminals {
		t.Errorf("aprons = %d, want %d", got, p.Terminals)
	}
	total := p.Runways + p.Runways*p.Taxiways + 3*p.Terminals + p.Hangars +
		p.GrassAreas + p.TarmacAreas + p.Roads + p.Lots + p.NoiseBlobs + p.Infields
	if len(s.Regions) != total {
		t.Errorf("total regions = %d, want %d", len(s.Regions), total)
	}
	if got := len(s.ByKind(Grass)); got != p.GrassAreas+p.Infields {
		t.Errorf("grass regions = %d, want %d", got, p.GrassAreas+p.Infields)
	}
}

func TestRegionsValidPolygons(t *testing.T) {
	for _, p := range []Params{SF, DC, MOFF} {
		s := Generate(p)
		for _, r := range s.Regions {
			if !r.Poly.Valid() {
				t.Errorf("%s region %d (%s): invalid polygon (%d verts, area %v)",
					p.Name, r.ID, r.TrueKind, len(r.Poly), r.Poly.Area())
			}
			if r.Intensity < 0 || r.Intensity > 255 {
				t.Errorf("%s region %d: intensity %v out of range", p.Name, r.ID, r.Intensity)
			}
			if r.Texture < 0 || r.Texture > 1 {
				t.Errorf("%s region %d: texture %v out of range", p.Name, r.ID, r.Texture)
			}
		}
	}
}

func TestRunwaysAreElongated(t *testing.T) {
	s := Generate(SF)
	for _, r := range s.ByKind(Runway) {
		if e := r.Poly.Elongation(); e < 8 {
			t.Errorf("runway %d elongation = %v, want >= 8", r.ID, e)
		}
	}
	for _, r := range s.ByKind(Terminal) {
		if e := r.Poly.Elongation(); e > 6 {
			t.Errorf("terminal %d elongation = %v, want compact", r.ID, e)
		}
	}
}

func TestTaxiwaysTouchRunways(t *testing.T) {
	s := Generate(SF)
	runways := s.ByKind(Runway)
	touching := 0
	for _, tw := range s.ByKind(Taxiway) {
		for _, rw := range runways {
			if tw.Poly.Intersects(rw.Poly) || tw.Poly.Adjacent(rw.Poly, 50) {
				touching++
				break
			}
		}
	}
	if frac := float64(touching) / float64(len(s.ByKind(Taxiway))); frac < 0.7 {
		t.Errorf("only %.0f%% of taxiways touch a runway; the airport grammar is broken", frac*100)
	}
}

func TestApronsNearTerminals(t *testing.T) {
	s := Generate(DC)
	terms := s.ByKind(Terminal)
	for _, ap := range s.ByKind(Apron) {
		near := false
		for _, tm := range terms {
			if ap.Poly.Adjacent(tm.Poly, 250) {
				near = true
				break
			}
		}
		if !near {
			t.Errorf("apron %d is not near any terminal", ap.ID)
		}
	}
}

func TestIntensitySeparatesGrassFromRunway(t *testing.T) {
	s := Generate(MOFF)
	for _, g := range s.ByKind(Grass) {
		for _, rw := range s.ByKind(Runway) {
			if g.Intensity >= rw.Intensity {
				t.Fatalf("grass (%v) should be darker than runway (%v)", g.Intensity, rw.Intensity)
			}
		}
	}
}

func TestScale(t *testing.T) {
	small := DC
	big := small.Scale(3)
	sb := Generate(big)
	ss := Generate(small)
	if len(sb.Regions) < 2*len(ss.Regions) {
		t.Errorf("scaled scene should be much bigger: %d vs %d", len(sb.Regions), len(ss.Regions))
	}
	if big.W <= small.W {
		t.Error("scaled scene should be wider")
	}
	// Scale(1) is identity on counts.
	if Generate(small.Scale(1)).Regions[0].ID != ss.Regions[0].ID {
		t.Error("Scale(1) should be identity")
	}
}

func TestRegionLookup(t *testing.T) {
	s := Generate(DC)
	r := s.Regions[5]
	if s.Region(r.ID) != r {
		t.Error("Region lookup wrong")
	}
	if s.Region(-1) != nil {
		t.Error("missing region should be nil")
	}
}

func TestSuburbanScene(t *testing.T) {
	s := GenerateSuburban(SuburbanParams{Name: "sub", Seed: 7, Blocks: 4, HousesPerBlock: 5, Verts: 10})
	if s.Domain != Suburban {
		t.Error("domain should be suburban")
	}
	houses := s.ByKind(House)
	if len(houses) != 20 {
		t.Errorf("houses = %d, want 20", len(houses))
	}
	if len(s.ByKind(Street)) != 4 {
		t.Errorf("streets = %d, want 4", len(s.ByKind(Street)))
	}
	// Driveways connect houses toward streets: each driveway should be
	// adjacent to at least one house or street.
	streets := s.ByKind(Street)
	for _, d := range s.ByKind(Driveway) {
		ok := false
		for _, h := range houses {
			if d.Poly.Adjacent(h.Poly, 60) {
				ok = true
				break
			}
		}
		if !ok {
			for _, st := range streets {
				if d.Poly.Adjacent(st.Poly, 60) {
					ok = true
					break
				}
			}
		}
		if !ok {
			t.Errorf("driveway %d floats unconnected", d.ID)
		}
	}
	for _, r := range s.Regions {
		if !r.Poly.Valid() {
			t.Errorf("region %d invalid", r.ID)
		}
	}
}

func TestVertexBudgetAffectsComplexity(t *testing.T) {
	// DC is configured with more vertices per region than SF: its
	// geometry work per constraint check is higher.
	sf := Generate(SF)
	dc := Generate(DC)
	avg := func(s *Scene) float64 {
		var v int
		for _, r := range s.Regions {
			v += len(r.Poly)
		}
		return float64(v) / float64(len(s.Regions))
	}
	if avg(dc) <= avg(sf) {
		t.Errorf("DC polygons (%v verts avg) should be more complex than SF (%v)", avg(dc), avg(sf))
	}
}

func TestStatsString(t *testing.T) {
	s := Generate(DC)
	if got := s.Stats(); got == "" {
		t.Error("stats should be non-empty")
	}
}

func TestBBoxWithinScene(t *testing.T) {
	s := Generate(SF)
	outer := geom.Rect{Min: geom.Point{X: -s.W, Y: -s.H}, Max: geom.Point{X: 2 * s.W, Y: 2 * s.H}}
	for _, r := range s.Regions {
		bb := r.Poly.BBox()
		if !outer.Contains(bb.Min) || !outer.Contains(bb.Max) {
			t.Errorf("region %d wildly out of bounds: %+v", r.ID, bb)
		}
	}
}

// TestChurnFractionClamps holds Churn's affected count to the fraction
// it is given, out to the values no scene can honour: a fraction of 1
// or more touches every region once, however large — 1e17 and up
// overflowed int and touched one — and NaN touches none.
func TestChurnFractionClamps(t *testing.T) {
	s := Generate(DC)
	all := len(s.Regions)
	for _, tc := range []struct {
		fraction float64
		affected int
	}{
		{0.05, int(math.Round(0.05 * float64(all)))},
		{1, all}, {5, all}, {1e17, all}, {1e30, all}, {math.Inf(1), all},
		{math.NaN(), 0},
	} {
		d := s.Churn(DefaultChurn(1990, tc.fraction))
		seen := map[int]bool{}
		for _, id := range d.Removed {
			seen[id] = true
		}
		for _, r := range d.Moved {
			seen[r.ID] = true
		}
		if got := len(d.Removed) + len(d.Moved); got != tc.affected || len(seen) != got {
			t.Errorf("fraction %v: removed %d + moved %d (%d distinct), want %d regions affected",
				tc.fraction, len(d.Removed), len(d.Moved), len(seen), tc.affected)
		}
		if want := int(math.Round(0.25 * float64(tc.affected))); len(d.Added) != want {
			t.Errorf("fraction %v: added %d regions, want %d", tc.fraction, len(d.Added), want)
		}
	}
}
