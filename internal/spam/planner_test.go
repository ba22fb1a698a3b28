package spam

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"spampsm/internal/scene"
)

// The reference planners: faSpecs, unitsWith, lccUnitSpecs and
// reEntryFragments as they were written before the planners went flat
// — a map of appended slices per object, a map per seed's members, a
// check slice and a sort.Slice per unit, a singleton units slice per
// spec, maps for a re-entry's classified regions. The production
// planners must describe every task exactly as these do.

func refFaSpecs(kb *KB, name string, frags []*Fragment, pairs []ConsistentPair, outcomes []LCCOutcome) []taskSpec {
	byID := map[int]*Fragment{}
	for _, f := range frags {
		byID[f.ID] = f
	}
	consistent := map[int]bool{}
	for _, o := range outcomes {
		if o.Status == "consistent" {
			consistent[o.Object] = true
		}
	}
	pairsByObject := map[int][]ConsistentPair{}
	for _, p := range pairs {
		pairsByObject[p.Object] = append(pairsByObject[p.Object], p)
	}
	var specs []taskSpec
	for _, spec := range kb.FAs {
		memberKinds := map[scene.Kind]bool{}
		for _, m := range spec.Members {
			memberKinds[m] = true
		}
		for _, f := range frags {
			if f.Type != spec.Seed || !consistent[f.ID] {
				continue
			}
			var members []*Fragment
			var memberPairs []ConsistentPair
			seen := map[int]bool{}
			for _, p := range pairsByObject[f.ID] {
				pf := byID[p.Partner]
				if pf == nil || !memberKinds[pf.Type] {
					continue
				}
				memberPairs = append(memberPairs, p)
				if !seen[pf.ID] {
					seen[pf.ID] = true
					members = append(members, pf)
				}
			}
			specs = append(specs, taskSpec{
				key:     fmt.Sprintf("fa-%s-%s-%d", name, spec.Type, f.ID),
				label:   fmt.Sprintf("FA %s seed %d (%d members)", spec.Type, f.ID, len(members)),
				group:   "fa-" + string(spec.Type),
				rows:    len(members) + len(memberPairs) + 2,
				phase:   "fa",
				seed:    f,
				faType:  spec.Type,
				members: members,
				pairs:   memberPairs,
			})
		}
	}
	return specs
}

func refUnitsWith(kb *KB, focals []*Fragment, level Level, query func(*Fragment, Constraint) []*Fragment) []lccUnit {
	var units []lccUnit
	for _, f := range focals {
		cons := kb.ConstraintsFor(f.Type)
		if len(cons) == 0 {
			continue
		}
		switch level {
		case Level3, Level4:
			u := lccUnit{focal: f, cid: "all", checks: make([]lccCheck, 0, len(cons))}
			for i := range cons {
				ps := query(f, cons[i])
				u.checks = append(u.checks, lccCheck{&cons[i], ps})
				u.expected += len(ps)
			}
			sort.Slice(u.checks, func(i, j int) bool { return u.checks[i].c.ID < u.checks[j].c.ID })
			units = append(units, u)
		case Level2:
			for i, c := range cons {
				ps := query(f, c)
				units = append(units, lccUnit{focal: f, cid: c.ID, checks: []lccCheck{{&cons[i], ps}}, expected: len(ps)})
			}
		case Level1:
			for i, c := range cons {
				for _, p := range query(f, c) {
					units = append(units, lccUnit{focal: f, cid: c.ID, checks: []lccCheck{{&cons[i], []*Fragment{p}}}, expected: 1})
				}
			}
		}
	}
	return units
}

func refLccUnitSpecs(name string, units []lccUnit, level Level, reentry bool) []taskSpec {
	prefix := "lcc"
	if reentry {
		prefix = "lccr"
	}
	if level == Level4 {
		byClass := map[scene.Kind][]lccUnit{}
		for _, u := range units {
			byClass[u.focal.Type] = append(byClass[u.focal.Type], u)
		}
		var classes []scene.Kind
		for k := range byClass {
			classes = append(classes, k)
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
		specs := make([]taskSpec, 0, len(classes))
		for _, k := range classes {
			group := byClass[k]
			checks := 0
			for _, u := range group {
				checks += u.expected
			}
			specs = append(specs, taskSpec{
				key:   fmt.Sprintf("%s4-%s-%s", prefix, name, k),
				label: fmt.Sprintf("LCC L4 class %s (%d objects)", k, len(group)),
				group: string(k),
				rows:  2*checks + 3*len(group),
				phase: "lcc",
				units: group,
			})
		}
		return specs
	}
	specs := make([]taskSpec, 0, len(units))
	for _, u := range units {
		key := fmt.Sprintf("%s%d-%s-o%d", prefix, level, name, u.focal.ID)
		switch level {
		case Level2:
			key += "-" + u.cid
		case Level1:
			key += fmt.Sprintf("-%s-p%d", u.cid, u.checks[0].partners[0].ID)
		}
		specs = append(specs, taskSpec{
			key:   key,
			label: fmt.Sprintf("LCC L%d object %d %s (%d checks)", level, u.focal.ID, u.cid, u.expected),
			group: string(u.focal.Type),
			rows:  2*u.expected + 3,
			phase: "lcc",
			units: []lccUnit{u},
		})
	}
	return specs
}

func refReEntryFragments(d *Dataset, in *Interpretation) []*Fragment {
	classified := map[int]bool{}
	maxID := 0
	for _, f := range in.Fragments {
		classified[f.RegionID] = true
		if f.ID > maxID {
			maxID = f.ID
		}
	}
	seedRegion := map[int]int{}
	for _, f := range in.Fragments {
		seedRegion[f.ID] = f.RegionID
	}
	var out []*Fragment
	seen := map[int]bool{}
	for _, p := range in.Predictions {
		sr := d.Store.Get(seedRegion[p.FA])
		if sr == nil {
			continue
		}
		bb := d.Store.Derived(sr.ID).BBox.Expand(1000)
		for _, r := range d.Scene.Regions {
			if classified[r.ID] || seen[r.ID] {
				continue
			}
			if bb.Intersects(d.Store.Derived(r.ID).BBox) {
				seen[r.ID] = true
				maxID++
				out = append(out, &Fragment{ID: maxID, RegionID: r.ID, Type: p.Kind, Conf: 30})
			}
		}
	}
	return out
}

// samePlan fails the test when the production planner's specs differ
// from the reference's in any field — key, label, rows,
// and every member, pair, check and partner in order. No specs is no
// specs, nil or empty.
func samePlan(t *testing.T, what string, got, want []taskSpec) {
	t.Helper()
	if len(got)+len(want) == 0 || reflect.DeepEqual(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d specs, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: spec %d differs:\n got  %+v\n want %+v", what, i, got[i], want[i])
		}
	}
}

// TestDifferentialPlanners holds the flat planners to the references
// on every pool a real interpretation hands them — SF, DC and MOFF,
// the RTF pool and the re-entry pool, every decomposition level — and
// on generated inputs the stock scenes never produce: unsorted pairs,
// partners and objects missing from the pool, duplicate pairs, objects
// with no outcome or only weak ones, and partner sets the geometry
// would not give.
func TestDifferentialPlanners(t *testing.T) {
	for _, p := range []scene.Params{scene.SF, scene.DC, scene.MOFF} {
		t.Run(p.Name, func(t *testing.T) {
			d, err := NewDataset(p)
			if err != nil {
				t.Fatal(err)
			}
			// Without re-entry the interpretation holds the RTF pool and
			// the predictions the re-entry pool is made from.
			in, err := d.Interpret(InterpretOptions{})
			if err != nil {
				t.Fatal(err)
			}
			name := d.Scene.Name
			extra := d.reEntryFragments(in)
			if want := refReEntryFragments(d, in); !reflect.DeepEqual(extra, want) {
				t.Fatalf("re-entry fragments %v, reference %v", extra, want)
			}
			if len(extra) == 0 {
				t.Fatal("no re-entry fragments: the re-entry pool is not exercised")
			}
			pool2 := slices.Concat(in.Fragments, extra)
			scan := func(all []*Fragment) func(*Fragment, Constraint) []*Fragment {
				return func(f *Fragment, c Constraint) []*Fragment {
					return NearbyFragments(d.Store, f, c.Object, all, c.Radius)
				}
			}
			for _, level := range []Level{Level1, Level2, Level3, Level4} {
				for _, re := range []bool{false, true} {
					focals, pool := in.Fragments, in.Fragments
					if re {
						focals, pool = extra, pool2
					}
					units := unitsWith(d.KB, focals, level, partnerQuery(d.Store, pool))
					want := refUnitsWith(d.KB, focals, level, scan(pool))
					if !reflect.DeepEqual(units, want) {
						t.Fatalf("level %d re-entry %v: units differ from the reference", level, re)
					}
					samePlan(t, fmt.Sprintf("lcc level %d re-entry %v", level, re),
						lccUnitSpecs(name, units, level, re), refLccUnitSpecs(name, want, level, re))
				}
			}
			samePlan(t, "fa", faSpecs(d.KB, name, in.Fragments, in.Pairs, in.Outcomes),
				refFaSpecs(d.KB, name, in.Fragments, in.Pairs, in.Outcomes))
		})
	}

	t.Run("generated", func(t *testing.T) {
		kb := AirportKB()
		var kinds []scene.Kind
		for _, spec := range kb.FAs {
			kinds = append(kinds, spec.Seed)
			kinds = append(kinds, spec.Members...)
		}
		kinds = append(kinds, scene.Runway, scene.Terminal)
		relations := []string{RelNear, RelAdjacent, RelIntersects}
		faTasks, faMembers := 0, 0
		for seed := uint64(1); seed <= 300; seed++ {
			rnd := rand.New(rand.NewPCG(seed, 41))
			// An ID-sorted pool with gaps, as ExtractFragments returns.
			var frags []*Fragment
			id := 0
			for range rnd.IntN(40) {
				id += 1 + rnd.IntN(150)
				frags = append(frags, &Fragment{ID: id, RegionID: id / 100, Type: kinds[rnd.IntN(len(kinds))], Conf: 50})
			}
			// Objects and partners are pool IDs or IDs outside it.
			pick := func() int {
				if len(frags) == 0 || rnd.IntN(6) == 0 {
					return rnd.IntN(id+300) - 100
				}
				return frags[rnd.IntN(len(frags))].ID
			}
			var pairs []ConsistentPair
			for range rnd.IntN(120) {
				p := ConsistentPair{Object: pick(), Partner: pick(), Relation: relations[rnd.IntN(len(relations))]}
				pairs = append(pairs, p)
				if rnd.IntN(10) == 0 {
					pairs = append(pairs, p) // a duplicate
				}
			}
			rnd.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			var outcomes []LCCOutcome
			for _, f := range frags {
				switch rnd.IntN(4) {
				case 0: // no outcome
				case 1:
					outcomes = append(outcomes, LCCOutcome{Object: f.ID, Status: "weak"})
				case 2:
					outcomes = append(outcomes, LCCOutcome{Object: f.ID, Status: "consistent"})
				default: // a weak and a consistent verdict, as Level 2 gives
					outcomes = append(outcomes, LCCOutcome{Object: f.ID, Status: "consistent"}, LCCOutcome{Object: f.ID, Status: "weak"})
				}
			}
			outcomes = append(outcomes, LCCOutcome{Object: pick(), Status: "consistent"})
			rnd.Shuffle(len(outcomes), func(i, j int) { outcomes[i], outcomes[j] = outcomes[j], outcomes[i] })
			what := fmt.Sprintf("seed %d", seed)
			fa := faSpecs(kb, "gen", frags, pairs, outcomes)
			samePlan(t, what+" fa", fa, refFaSpecs(kb, "gen", frags, pairs, outcomes))
			for _, sp := range fa {
				faTasks, faMembers = faTasks+1, faMembers+len(sp.members)
			}

			// Partner sets drawn from the pool, not from geometry: a pure
			// function of (focal, constraint), empty for some.
			query := func(f *Fragment, c Constraint) []*Fragment {
				var out []*Fragment
				for _, p := range frags {
					if p != f && (p.ID*7+f.ID*13+len(c.ID))%5 < 2 {
						out = append(out, p)
					}
				}
				return out
			}
			for _, level := range []Level{Level1, Level2, Level3, Level4} {
				units, want := unitsWith(kb, frags, level, query), refUnitsWith(kb, frags, level, query)
				if len(units)+len(want) > 0 && !reflect.DeepEqual(units, want) {
					t.Fatalf("%s level %d: units differ from the reference:\n got  %#v\n want %#v", what, level, units, want)
				}
				samePlan(t, fmt.Sprintf("%s lcc level %d", what, level),
					lccUnitSpecs("gen", units, level, seed%2 == 0), refLccUnitSpecs("gen", want, level, seed%2 == 0))
			}
		}
		if faTasks < 100 || faMembers < 100 {
			t.Fatalf("generated inputs made %d FA tasks with %d members: too few to hold faSpecs to anything", faTasks, faMembers)
		}
	})
}

// TestSessionSignatureKeptAcrossLaterSigning: the signer signs every
// task into one scratch class list, and runSpecs keeps a clone of it
// with each task it runs. Every kept signature must still be the one a
// fresh signer computes for its task after the whole run has signed
// later tasks through the same scratch.
func TestSessionSignatureKeptAcrossLaterSigning(t *testing.T) {
	d, err := NewDataset(scene.DC)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(d, InterpretOptions{ReEntry: true})
	in, _, err := sess.Interpret(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	ds := sess.ds
	specs := rtfSpecs(ds.Store, 0)
	specs = append(specs, modelSpec(ds.Scene.Name, in.Fragments, in.FAs))
	fresh := signer{h: sha256.New()}
	for i := range specs {
		sp := &specs[i]
		want, _, err := fresh.sign(phaseDefs[sp.phase].prog(ds.Progs), ds.Store, sp)
		if err != nil {
			t.Fatal(err)
		}
		st := sess.tasks[sp.key]
		if st == nil {
			t.Fatalf("%s: the session kept no task", sp.key)
		}
		if len(want.classes) == 0 {
			t.Fatalf("%s: signed no row class: the check is vacuous", sp.key)
		}
		if !reflect.DeepEqual(st.sig, want) {
			t.Errorf("%s: kept signature %+v, a fresh signer's %+v", sp.key, st.sig, want)
		}
	}
}
