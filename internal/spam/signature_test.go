package spam

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"spampsm/internal/geom"
	"spampsm/internal/scene"
	"spampsm/internal/tlp"
)

// sigHarness is a session over the small DC scene whose every update is
// also held to a from-scratch interpretation of the updated scene:
// outputs, and per task that ran, statistics, counters and cost log.
type sigHarness struct {
	t    *testing.T
	d    *Dataset
	opt  InterpretOptions
	sess *Session
	ran  *recordingRunner
}

func newSigHarness(t *testing.T, d *Dataset, opt InterpretOptions) *sigHarness {
	t.Helper()
	h := &sigHarness{t: t, d: d, opt: opt, ran: &recordingRunner{pool: tlp.Pool{Workers: 2}}}
	sopt := opt
	sopt.Runner = h.ran
	h.sess = NewSession(d, sopt)
	if _, _, err := h.sess.Interpret(context.Background()); err != nil {
		t.Fatal(err)
	}
	return h
}

// update folds the delta in and returns the report and the sorted IDs
// of the tasks that ran.
func (h *sigHarness) update(delta *scene.Delta) (*UpdateReport, []string) {
	h.t.Helper()
	h.ran.tasks = nil
	in, rep, err := h.sess.Update(context.Background(), delta)
	if err != nil {
		h.t.Fatal(err)
	}
	ref := &recordingRunner{pool: tlp.Pool{Workers: 2}}
	fopt := h.opt
	fopt.Runner = ref
	compareOutputs(h.t, "incremental", in, "scratch", fromScratch(h.t, h.d, h.sess.Scene(), fopt))
	if len(h.ran.tasks) != rep.Rerun+rep.Fresh {
		h.t.Fatalf("%d tasks ran, report says %d re-run + %d fresh", len(h.ran.tasks), rep.Rerun, rep.Fresh)
	}
	var ids []string
	for id, got := range h.ran.tasks {
		ids = append(ids, id)
		want, ok := ref.tasks[id]
		if !ok {
			h.t.Fatalf("task %s ran in the update but not from scratch", id)
		}
		if got.stats != want.stats || got.counters != want.counters || !reflect.DeepEqual(got.log, want.log) {
			h.t.Errorf("task %s: statistics, counters or cost log differ from the from-scratch task's", id)
		}
	}
	sort.Strings(ids)
	return rep, ids
}

// phaseIDs filters task IDs by their phase prefix ("rtf-", "lcc", "fa-").
func phaseIDs(ids []string, prefix string) []string {
	var out []string
	for _, id := range ids {
		if strings.HasPrefix(id, prefix) {
			out = append(out, id)
		}
	}
	return out
}

// lccAnswerTable is the test's own reading of what every Level-3 LCC
// task over the fragments is handed and answered against a store: per
// task key, one line per scope triple with geo-test's boolean and cost.
func lccAnswerTable(t *testing.T, kb *KB, st *RegionStore, frags []*Fragment) map[string][]string {
	t.Helper()
	table := map[string][]string{}
	units := unitsWith(kb, frags, Level3, partnerQuery(st, frags, nil, false))
	for _, sp := range lccUnitSpecs(st.Scene().Name, units, Level3, false) {
		var lines []string
		for _, u := range sp.units {
			for _, ck := range u.checks {
				for _, p := range ck.partners {
					ok, cost, err := st.Test(ck.c.Relation, u.focal.RegionID, p.RegionID, ck.c.Eps)
					if err != nil {
						t.Fatal(err)
					}
					lines = append(lines, fmt.Sprintf("%d %s %d %v %v", u.focal.ID, ck.c.ID, p.ID, ok, cost))
				}
			}
		}
		table[sp.key] = lines
	}
	return table
}

// answerDiff compares two answer tables over the same tasks and scope
// triples: the keys whose answers differ at all, and the number of
// triples whose boolean differs. ok is false when the tasks or their
// triples are not the same — a seed-row change, not an answer change.
func answerDiff(was, now map[string][]string) (keys []string, flips int, ok bool) {
	if len(was) != len(now) {
		return nil, 0, false
	}
	for key, w := range was {
		n, present := now[key]
		if !present || len(n) != len(w) {
			return nil, 0, false
		}
		differs := false
		for i := range w {
			wf, nf := strings.Fields(w[i]), strings.Fields(n[i])
			if !slices.Equal(wf[:3], nf[:3]) {
				return nil, 0, false
			}
			if wf[3] != nf[3] {
				flips++
			}
			differs = differs || w[i] != n[i]
		}
		if differs {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys, flips, true
}

// movedStore applies one replacement region to a clone of the scene
// and indexes the result.
func movedStore(s *scene.Scene, r *scene.Region) *RegionStore {
	c := s.Clone()
	if err := c.Apply(&scene.Delta{Moved: []*scene.Region{r}}); err != nil {
		panic(err)
	}
	return NewRegionStore(c)
}

// sameRegionRow reports whether RTF is handed the same row for a region
// in both stores and would be answered the same vertex count.
func sameRegionRow(was, now *RegionStore, id int) bool {
	a1, e1, c1, i1, t1 := was.MeasurementsOf(was.Get(id), false)
	a2, e2, c2, i2, t2 := now.MeasurementsOf(now.Get(id), false)
	return a1 == a2 && e1 == e2 && c1 == c2 && i1 == i2 && t1 == t2 && len(was.Get(id).Poly) == len(now.Get(id).Poly)
}

// translated is a rigid drift of r.
func translated(r *scene.Region, dx, dy float64) *scene.Region {
	out := *r
	out.Poly = make(geom.Polygon, len(r.Poly))
	for i, p := range r.Poly {
		out.Poly[i] = geom.Point{X: p.X + dx, Y: p.Y + dy}
	}
	return &out
}

// faSeedRegions maps each FA task key of the interpretation to its seed
// fragment's region.
func faSeedRegions(d *Dataset, in *Interpretation) map[string]int {
	out := map[string]int{}
	for _, sp := range faSpecs(d.KB, d.Scene.Name, in.Fragments, in.Pairs, in.Outcomes) {
		out[sp.key] = sp.seed.RegionID
	}
	return out
}

// TestSessionSignatureSoundness drives hand-built deltas through a
// session and pins, for each, which tasks run again and why: a task
// re-runs when a seed row or one of its externals' answers changed, and
// only then. Every update is also checked session ≡ from-scratch, per
// task (sigHarness.update).
func TestSessionSignatureSoundness(t *testing.T) {
	d := smallDC(t)
	opt := InterpretOptions{Build: tlp.BuildMode{Capture: true}}
	base, err := d.Interpret(opt)
	if err != nil {
		t.Fatal(err)
	}
	was := lccAnswerTable(t, d.KB, d.Store, base.Fragments)
	fragRegion := map[int]bool{}
	for _, f := range base.Fragments {
		fragRegion[f.RegionID] = true
	}
	drifts := []float64{0.5, 5, 20, 60, 150, 400, 1000}

	// (a) A rigid drift flips geo-test booleans while every seed row —
	// RTF's measurements, LCC's fragments and scope triples — is
	// unchanged: exactly the LCC tasks scoped to a flipped or re-costed
	// pair run again, as "lcc geo".
	t.Run("boolean flip", func(t *testing.T) {
		var moved *scene.Region
		var want []string
	search:
		for _, r := range d.Scene.Regions {
			for _, dist := range drifts {
				for _, dir := range [][2]float64{{1, 0}, {0, 1}, {-1, 0}, {0, -1}} {
					cand := translated(r, dir[0]*dist, dir[1]*dist)
					st := movedStore(d.Scene, cand)
					keys, flips, same := answerDiff(was, lccAnswerTable(t, d.KB, st, base.Fragments))
					if fragRegion[r.ID] && same && flips > 0 && sameRegionRow(d.Store, st, r.ID) {
						moved, want = cand, keys
						break search
					}
				}
			}
		}
		if moved == nil {
			t.Fatal("no rigid drift flips a geo-test boolean with every seed row unchanged")
		}
		h := newSigHarness(t, d, opt)
		rep, ran := h.update(&scene.Delta{Moved: []*scene.Region{moved}})
		t.Logf("region %d drifted: %v ran, %v", moved.ID, ran, rep.RerunReasons())
		if got := phaseIDs(ran, "lcc"); !slices.Equal(got, want) {
			t.Errorf("LCC tasks that ran %v, tasks with a changed answer %v", got, want)
		}
		if rep.Reasons["lcc geo"] != len(want) || len(phaseIDs(ran, "rtf-")) != 0 {
			t.Errorf("re-run reasons %v, want lcc geo ×%d and no RTF task", rep.RerunReasons(), len(want))
		}
		for why := range rep.Reasons {
			if strings.HasPrefix(why, "lcc ") && why != "lcc geo" {
				t.Errorf("an LCC task re-ran as %q: its seed rows were unchanged", why)
			}
		}
	})

	// (b) A region gains a vertex on an edge — same outline, same
	// booleans, same measurement row — so only costs move: its RTF batch,
	// every LCC task with it in scope and every FA task seeded on it run
	// again, all as geo; reusing them would keep stale cost logs.
	t.Run("vertex count", func(t *testing.T) {
		var moved *scene.Region
		var want []string
	search:
		for _, r := range d.Scene.Regions {
			for i := range r.Poly {
				if !fragRegion[r.ID] {
					continue
				}
				p, q := r.Poly[i], r.Poly[(i+1)%len(r.Poly)]
				cand := *r
				cand.Poly = slices.Insert(slices.Clone(r.Poly), i+1, geom.Point{X: (p.X + q.X) / 2, Y: (p.Y + q.Y) / 2})
				st := movedStore(d.Scene, &cand)
				a1, e1, c1, _, _ := d.Store.MeasurementsOf(r, false)
				a2, e2, c2, _, _ := st.MeasurementsOf(&cand, false)
				keys, flips, same := answerDiff(was, lccAnswerTable(t, d.KB, st, base.Fragments))
				if same && flips == 0 && len(keys) > 0 && a1 == a2 && e1 == e2 && c1 == c2 {
					moved, want = &cand, keys
					break search
				}
			}
		}
		if moved == nil {
			t.Fatal("no edge midpoint keeps a fragment region's measurement row and every boolean")
		}
		wantFA := 0
		for _, region := range faSeedRegions(d, base) {
			if region == moved.ID {
				wantFA++
			}
		}
		h := newSigHarness(t, d, opt)
		rep, ran := h.update(&scene.Delta{Moved: []*scene.Region{moved}})
		t.Logf("region %d gained a vertex: %v ran, %v", moved.ID, ran, rep.RerunReasons())
		if got := phaseIDs(ran, "lcc"); !slices.Equal(got, want) {
			t.Errorf("LCC tasks that ran %v, tasks with a re-costed check %v", got, want)
		}
		wantWhy := map[string]int{"rtf geo": 1, "lcc geo": len(want)}
		if wantFA > 0 {
			wantWhy["fa geo"] = wantFA
		}
		if !reflect.DeepEqual(rep.Reasons, wantWhy) {
			t.Errorf("re-run reasons %v, want %v", rep.RerunReasons(), wantWhy)
		}
	})

	// (c) A region no evidence classifies (texture above every ceiling)
	// appears inside FA seeds' 800-unit neighbourhoods: no fragment, no
	// scope triple and no consistency row changes, the candidate count
	// fa-predict-area answers does.
	t.Run("neighbourhood", func(t *testing.T) {
		seeds := faSeedRegions(d, base)
		if len(seeds) == 0 {
			t.Fatal("no FA task")
		}
		var anchor, maxID int
		for _, region := range seeds {
			anchor = max(anchor, region)
		}
		for _, r := range d.Scene.Regions {
			maxID = max(maxID, r.ID)
		}
		bb := d.Store.Derived(anchor).BBox
		added := &scene.Region{
			ID: (maxID+2)/3*3 + 1, // opens a batch of its own

			Poly:      geom.Blob(geom.Point{X: bb.Max.X + 200, Y: bb.Max.Y + 200}, 40, 8, 0.2, 7),
			TrueKind:  scene.Noise,
			Intensity: 128,
			Texture:   0.95,
		}
		h := newSigHarness(t, d, opt)
		rep, ran := h.update(&scene.Delta{Added: []*scene.Region{added}})
		var want []string
		for key, region := range seeds {
			before, _, _ := d.Store.PredictArea(region)
			after, _, _ := h.sess.Store().PredictArea(region)
			if before != after {
				want = append(want, key)
			}
		}
		sort.Strings(want)
		if len(want) == 0 {
			t.Fatal("the added region is in no FA seed's neighbourhood")
		}
		if got := phaseIDs(ran, "fa-"); !slices.Equal(got, want) {
			t.Errorf("FA tasks that ran %v, tasks whose candidate count changed %v", got, want)
		}
		if wantWhy := map[string]int{"fa geo": len(want)}; !reflect.DeepEqual(rep.Reasons, wantWhy) || rep.Fresh != 1 {
			t.Errorf("re-run reasons %v with %d fresh, want %v and the new region's RTF batch", rep.RerunReasons(), rep.Fresh, wantWhy)
		}
	})

	// (d) A drift of a fragment's region that changes no row and no
	// answer runs nothing (a signature over geometry epochs re-ran every
	// task that could read the region).
	t.Run("unanswered drift", func(t *testing.T) {
		var moved *scene.Region
		for _, r := range d.Scene.Regions {
			cand := translated(r, drifts[0], drifts[0])
			st := movedStore(d.Scene, cand)
			keys, _, same := answerDiff(was, lccAnswerTable(t, d.KB, st, base.Fragments))
			if fragRegion[r.ID] && same && len(keys) == 0 && sameRegionRow(d.Store, st, r.ID) {
				moved = cand
				break
			}
		}
		if moved == nil {
			t.Fatal("every small drift changes an answer")
		}
		ropt := opt
		ropt.ReEntry = true
		h := newSigHarness(t, d, ropt)
		rep, ran := h.update(&scene.Delta{Moved: []*scene.Region{moved}})
		if len(ran) != 0 || rep.Reused != rep.Tasks {
			t.Errorf("a drift that changes no answer ran %v (%v)", ran, rep.RerunReasons())
		}
	})

	// (e) Removing a region in the middle of the scene re-runs its own RTF
	// batch — now short — and no later one (position batching shifted
	// every later region into another batch).
	t.Run("mid-scene removal", func(t *testing.T) {
		gone := d.Scene.Regions[len(d.Scene.Regions)/2]
		h := newSigHarness(t, d, opt)
		rep, ran := h.update(&scene.Delta{Removed: []int{gone.ID}})
		want := []string{fmt.Sprintf("rtf-%s-%d", d.Scene.Name, (gone.ID-1)/3)}
		if got := phaseIDs(ran, "rtf-"); !slices.Equal(got, want) {
			t.Errorf("RTF tasks that ran after removing region %d: %v, want %v (%v)", gone.ID, got, want, rep.RerunReasons())
		}
	})
}

// positionBatches is RTF batching as it was before batches were keyed
// by region-ID cell: consecutive slices of the region list.
func positionBatches(s *scene.Scene, batchSize int) (keys []string, batches [][]int) {
	for start := 0; start < len(s.Regions); start += batchSize {
		var ids []int
		for _, r := range s.Regions[start:min(start+batchSize, len(s.Regions))] {
			ids = append(ids, r.ID)
		}
		keys = append(keys, fmt.Sprintf("rtf-%s-%d", s.Name, start/batchSize))
		batches = append(batches, ids)
	}
	return keys, batches
}

// TestRTFBatchingMatchesPositionBatching: every generated scene numbers
// its regions 1…N in slice order, and on those ID-cell batching is
// position batching — same keys, same members, same queue order, so no
// one-shot result moved when the rule changed.
func TestRTFBatchingMatchesPositionBatching(t *testing.T) {
	scenes := []*scene.Scene{
		scene.Generate(scene.SF), scene.Generate(scene.DC), scene.Generate(scene.MOFF),
		scene.Generate(scene.DC.Scale(0.3)),
		scene.GenerateSuburban(scene.SuburbanParams{Name: "SUB", Seed: 5, Blocks: 3, HousesPerBlock: 6}),
	}
	for _, s := range scenes {
		for _, size := range []int{1, 3, 4} {
			wantKeys, wantBatches := positionBatches(s, size)
			specs := rtfSpecs(NewRegionStore(s), size)
			if len(specs) != len(wantKeys) {
				t.Fatalf("%s/%d: %d batches, position batching gives %d", s.Name, size, len(specs), len(wantKeys))
			}
			for i, sp := range specs {
				var ids []int
				for _, r := range sp.regions {
					ids = append(ids, r.ID)
				}
				if sp.key != wantKeys[i] || !slices.Equal(ids, wantBatches[i]) {
					t.Fatalf("%s/%d: batch %d is %s %v, position batching gives %s %v", s.Name, size, i, sp.key, ids, wantKeys[i], wantBatches[i])
				}
				if want := fmt.Sprintf("RTF batch %d (%d regions)", i, len(ids)); sp.label != want || sp.est != float64(len(ids)) {
					t.Fatalf("%s/%d: batch %d labelled %q est %v, want %q", s.Name, size, i, sp.label, sp.est, want)
				}
			}
		}
	}
}

// TestRTFBatchingSparseUnsortedIDs: an inline scene may number its
// regions anyhow. Cells group by ID whatever the slice order, so no key
// is enumerated twice, and a session over such a scene holds
// session ≡ from-scratch over a removal and the re-add.
func TestRTFBatchingSparseUnsortedIDs(t *testing.T) {
	d := smallDC(t)
	s := d.Scene.Clone()
	s.Name = "DC-sparse"
	// Reverse the slice and spread the IDs: 1, 2, 3, 4, … become
	// 1, 3, 8, 10, 15, … in descending slice order, so every cell is
	// visited out of order and most hold fewer than three regions.
	slices.Reverse(s.Regions)
	for _, r := range s.Regions {
		r.ID = r.ID*7/2 - 2
	}
	sparse := NewDatasetWith(s, d.KB, d.Progs)
	seen := map[string]bool{}
	members := 0
	for _, sp := range rtfSpecs(sparse.Store, 3) {
		if seen[sp.key] {
			t.Fatalf("batch key %s enumerated twice", sp.key)
		}
		seen[sp.key] = true
		for _, r := range sp.regions {
			members++
			if (r.ID-1)/3 != sp.batchID {
				t.Errorf("region %d in batch %d", r.ID, sp.batchID)
			}
		}
	}
	if members != len(s.Regions) {
		t.Fatalf("%d regions batched, scene has %d", members, len(s.Regions))
	}
	h := newSigHarness(t, sparse, InterpretOptions{ReEntry: true, Build: tlp.BuildMode{Capture: true}})
	gone := h.sess.Scene().Clone().Regions[3:6]
	rep, _ := h.update(&scene.Delta{Removed: []int{gone[0].ID, gone[1].ID, gone[2].ID}})
	if rep.Reused == 0 {
		t.Errorf("removing three regions reused nothing: %+v", rep)
	}
	h.update(&scene.Delta{Added: gone})
}
