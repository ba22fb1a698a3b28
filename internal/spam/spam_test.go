package spam

import (
	"strings"
	"testing"

	"spampsm/internal/ops5"
	"spampsm/internal/scene"
	"spampsm/internal/tlp"
)

// smallDC returns a reduced DC dataset for fast tests.
func smallDC(t *testing.T) *Dataset {
	t.Helper()
	p := scene.DC.Scale(0.5)
	p.Name = "DC-small"
	d, err := NewDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestKBStructure(t *testing.T) {
	kb := AirportKB()
	if len(kb.Classes) != 9 {
		t.Errorf("classes = %d, want 9", len(kb.Classes))
	}
	if len(kb.Constraints) < 20 {
		t.Errorf("constraints = %d, want >= 20", len(kb.Constraints))
	}
	for _, k := range kb.Classes {
		if len(kb.ConstraintsFor(k)) < 2 {
			t.Errorf("class %s has %d constraints, want >= 2", k, len(kb.ConstraintsFor(k)))
		}
	}
	// Every constraint references declared classes and a known relation.
	rels := map[string]bool{RelIntersects: true, RelAdjacent: true, RelNear: true,
		RelParallel: true, RelLeadsTo: true, RelContainedIn: true, RelAligned: true}
	classSet := map[scene.Kind]bool{}
	for _, k := range kb.Classes {
		classSet[k] = true
	}
	ids := map[string]bool{}
	for _, c := range kb.Constraints {
		if !classSet[c.Subject] || !classSet[c.Object] {
			t.Errorf("constraint %s references undeclared class", c.ID)
		}
		if !rels[c.Relation] {
			t.Errorf("constraint %s uses unknown relation %s", c.ID, c.Relation)
		}
		if ids[c.ID] {
			t.Errorf("duplicate constraint id %s", c.ID)
		}
		ids[c.ID] = true
		if c.Radius <= 0 {
			t.Errorf("constraint %s has no search radius", c.ID)
		}
	}
	if kb.Constraint(kb.Constraints[0].ID) == nil {
		t.Error("Constraint lookup failed")
	}
	if kb.Constraint("nope") != nil {
		t.Error("unknown constraint should be nil")
	}
}

func TestSuburbanKBStructure(t *testing.T) {
	kb := SuburbanKB()
	if len(kb.Classes) != 4 || len(kb.Constraints) < 6 || len(kb.Evidence) < 6 {
		t.Errorf("suburban KB too small: %d classes %d constraints %d evidence",
			len(kb.Classes), len(kb.Constraints), len(kb.Evidence))
	}
}

func TestGeneratedProgramsParse(t *testing.T) {
	for _, kb := range []*KB{AirportKB(), SuburbanKB()} {
		progs, err := BuildPrograms(kb)
		if err != nil {
			t.Fatalf("%s: %v", kb.Domain, err)
		}
		if progs.NumProductions() < 30 {
			t.Errorf("%s: only %d productions generated", kb.Domain, progs.NumProductions())
		}
		// Check productions (both confidence bands) and the dormant
		// audit production per constraint.
		for _, c := range kb.Constraints {
			for _, name := range []string{"lcc-check-" + c.ID + "-hi", "lcc-check-" + c.ID + "-lo", "lcc-audit-" + c.ID} {
				if progs.LCC.Production(name) == nil {
					t.Errorf("missing production %s", name)
				}
			}
		}
		// One classification production per evidence entry.
		for _, ev := range kb.Evidence {
			name := "rtf-" + string(ev.Class) + "-" + ev.Tier
			if progs.RTF.Production(name) == nil {
				t.Errorf("missing RTF production %s", name)
			}
		}
	}
}

func TestGeoTestRelations(t *testing.T) {
	d := smallDC(t)
	st := d.Store
	runways := d.Scene.ByKind(scene.Runway)
	if len(runways) < 1 {
		t.Fatal("no runways")
	}
	// A region intersects itself-adjacent strips etc.: basic sanity via
	// reflexive-ish checks.
	r := runways[0]
	ok, cost, err := st.Test(RelNear, r.ID, r.ID, 10)
	if err != nil || !ok || cost <= 0 {
		t.Errorf("near(self) = %v cost %v err %v", ok, cost, err)
	}
	if _, _, err := st.Test("warp", r.ID, r.ID, 0); err == nil {
		t.Error("unknown relation must error")
	}
	if _, _, err := st.Test(RelNear, -5, r.ID, 0); err == nil {
		t.Error("unknown region must error")
	}
	// DC geometry is costlier per test than SF geometry.
	sfD, err := NewDataset(scene.SF)
	if err != nil {
		t.Fatal(err)
	}
	sfR := sfD.Scene.ByKind(scene.Runway)[0]
	_, sfCost, _ := sfD.Store.Test(RelNear, sfR.ID, sfR.ID, 10)
	if sfCost >= cost {
		t.Errorf("SF per-test cost (%v) should be below DC's (%v)", sfCost, cost)
	}
}

func TestRTFPhaseClassifies(t *testing.T) {
	d := smallDC(t)
	tasks := BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 3, false)
	if len(tasks) < 5 {
		t.Fatalf("too few RTF tasks: %d", len(tasks))
	}
	results, err := (&tlp.Pool{Workers: 2}).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := tlp.FirstError(results); err != nil {
		t.Fatal(err)
	}
	frags := ExtractFragments(results)
	if len(frags) == 0 {
		t.Fatal("no fragments")
	}
	// Classification quality: most runway-truth regions should carry a
	// runway hypothesis.
	byRegion := map[int][]*Fragment{}
	for _, f := range frags {
		byRegion[f.RegionID] = append(byRegion[f.RegionID], f)
	}
	hit, total := 0, 0
	for _, r := range d.Scene.ByKind(scene.Runway) {
		total++
		for _, f := range byRegion[r.ID] {
			if f.Type == scene.Runway {
				hit++
				break
			}
		}
	}
	if total > 0 && hit*2 < total {
		t.Errorf("runway recall %d/%d too low", hit, total)
	}
	// Fragment IDs unique.
	seen := map[int]bool{}
	for _, f := range frags {
		if seen[f.ID] {
			t.Errorf("duplicate fragment id %d", f.ID)
		}
		seen[f.ID] = true
		if f.Conf <= 0 || f.Conf > 110 {
			t.Errorf("fragment %d conf %d out of range", f.ID, f.Conf)
		}
	}
}

// runLCC is a helper running RTF then LCC at a level.
func runLCC(t *testing.T, d *Dataset, level Level) ([]*Fragment, []*tlp.Result) {
	t.Helper()
	rtfTasks := BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 3, false)
	rtfResults, err := (&tlp.Pool{Workers: 2}).Run(rtfTasks)
	if err != nil {
		t.Fatal(err)
	}
	frags := ExtractFragments(rtfResults)
	lccTasks := BuildLCCTasks(d.KB, d.Store, d.Progs.LCC, frags, level, false)
	if len(lccTasks) == 0 {
		t.Fatal("no LCC tasks")
	}
	lccResults, err := (&tlp.Pool{Workers: 2}).Run(lccTasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := tlp.FirstError(lccResults); err != nil {
		t.Fatal(err)
	}
	return frags, lccResults
}

func TestLCCPhaseCompletes(t *testing.T) {
	d := smallDC(t)
	frags, results := runLCC(t, d, Level3)
	pairs, outs := ExtractLCC(results)
	if len(outs) != len(frags) {
		t.Errorf("outcomes %d != focal objects %d (every task must finish)", len(outs), len(frags))
	}
	for _, o := range outs {
		if o.Status != "consistent" && o.Status != "weak" {
			t.Errorf("object %d: bad status %q", o.Object, o.Status)
		}
		if o.Support > o.Checked {
			t.Errorf("object %d: support %d > checked %d", o.Object, o.Support, o.Checked)
		}
	}
	if len(pairs) == 0 {
		t.Error("expected some consistent pairs")
	}
	// Pairs reference real fragments.
	ids := map[int]bool{}
	for _, f := range frags {
		ids[f.ID] = true
	}
	for _, p := range pairs {
		if !ids[p.Object] || !ids[p.Partner] {
			t.Errorf("pair references unknown fragment: %+v", p)
		}
		if p.Object == p.Partner {
			t.Errorf("self-pair: %+v", p)
		}
	}
}

func TestLCCLevelsSameVerdicts(t *testing.T) {
	// The decomposition level must not change the computation's result,
	// only its granularity: all four levels check identical
	// (focal, partner) pairs, because the control process scopes every
	// task's checks explicitly.
	d := smallDC(t)
	taskCounts := map[Level]int{}
	pairSets := map[Level]map[ConsistentPair]bool{}
	for _, level := range []Level{Level4, Level3, Level2, Level1} {
		_, results := runLCC(t, d, level)
		taskCounts[level] = len(results)
		pairs, outs := ExtractLCC(results)
		set := map[ConsistentPair]bool{}
		for _, p := range pairs {
			set[p] = true
		}
		pairSets[level] = set
		// Every task finished (checked == expected reached everywhere).
		for _, o := range outs {
			if o.Status != "consistent" && o.Status != "weak" {
				t.Fatalf("level %d: unfinished outcome %+v", level, o)
			}
		}
	}
	for _, level := range []Level{Level4, Level2, Level1} {
		if len(pairSets[level]) != len(pairSets[Level3]) {
			t.Errorf("level %d: %d pairs vs Level 3's %d", level, len(pairSets[level]), len(pairSets[Level3]))
		}
		for p := range pairSets[Level3] {
			if !pairSets[level][p] {
				t.Errorf("level %d: missing pair %+v", level, p)
			}
		}
	}
	if !(taskCounts[Level4] < taskCounts[Level3] && taskCounts[Level3] < taskCounts[Level2] &&
		taskCounts[Level2] < taskCounts[Level1]) {
		t.Errorf("task counts must grow with decomposition depth: %v", taskCounts)
	}
}

func TestLCCLevel1Granularity(t *testing.T) {
	d := smallDC(t)
	rtfTasks := BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 3, false)
	rtfResults, _ := (&tlp.Pool{Workers: 2}).Run(rtfTasks)
	frags := ExtractFragments(rtfResults)
	l1 := BuildLCCTasks(d.KB, d.Store, d.Progs.LCC, frags, Level1, false)
	l2 := BuildLCCTasks(d.KB, d.Store, d.Progs.LCC, frags, Level2, false)
	if len(l1) <= len(l2) {
		t.Errorf("Level 1 (%d) must have more tasks than Level 2 (%d)", len(l1), len(l2))
	}
	// A Level-1 task performs very few firings (3-ish: check, tally,
	// finish).
	res, err := tlp.RunSerial(l1[:5])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Stats.Firings < 2 || r.Stats.Firings > 10 {
			t.Errorf("L1 task fired %d times, want a handful", r.Stats.Firings)
		}
	}
}

func TestFullInterpretation(t *testing.T) {
	d := smallDC(t)
	in, err := d.Interpret(InterpretOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Phases) != 4 {
		t.Fatalf("phases = %d", len(in.Phases))
	}
	for _, name := range []string{"RTF", "LCC", "FA", "MODEL"} {
		p := in.Phase(name)
		if p == nil {
			t.Fatalf("missing phase %s", name)
		}
		if p.Firings == 0 && name != "FA" {
			t.Errorf("phase %s fired nothing", name)
		}
	}
	if !in.ModelFound {
		t.Error("no final model")
	}
	if in.Model.NFAs == 0 {
		t.Error("model has no functional areas")
	}
	// LCC dominates total time, as in the paper's Tables 1-3.
	lcc := in.Phase("LCC").Instr
	if lcc < 0.5*in.TotalInstr() {
		t.Errorf("LCC share = %.2f of total, want dominant", lcc/in.TotalInstr())
	}
	if in.TotalFirings() < 500 {
		t.Errorf("total firings = %d, suspiciously low", in.TotalFirings())
	}
}

func TestReEntryAddsWork(t *testing.T) {
	d := smallDC(t)
	plain, err := d.Interpret(InterpretOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	re, err := d.Interpret(InterpretOptions{Workers: 2, ReEntry: true})
	if err != nil {
		t.Fatal(err)
	}
	if re.Phase("LCC").Firings <= plain.Phase("LCC").Firings {
		t.Errorf("re-entry should add LCC firings: %d vs %d",
			re.Phase("LCC").Firings, plain.Phase("LCC").Firings)
	}
	if len(re.Fragments) <= len(plain.Fragments) {
		t.Errorf("re-entry should hypothesize new fragments: %d vs %d",
			len(re.Fragments), len(plain.Fragments))
	}
}

func TestMatchFractionBands(t *testing.T) {
	// The paper's headline workload properties: SPAM spends only
	// ~30-50% of its time in match (vs >90% for classic OPS5 systems);
	// RTF is more match-intensive (~60%) than LCC.
	d, err := NewDataset(scene.SF)
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.Interpret(InterpretOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rtf := in.Phase("RTF").MatchFraction()
	lcc := in.Phase("LCC").MatchFraction()
	if rtf < 0.4 || rtf > 0.8 {
		t.Errorf("RTF match fraction = %.2f, want ~0.6", rtf)
	}
	// The paper reports <50% match in LCC; our measured fraction counts
	// working-memory initialization as match, so allow a little above.
	if lcc < 0.1 || lcc > 0.55 {
		t.Errorf("LCC match fraction = %.2f, want ~0.3-0.5 (paper: 30-50%%)", lcc)
	}
	if rtf <= lcc {
		t.Errorf("RTF (%.2f) should be more match-intensive than LCC (%.2f)", rtf, lcc)
	}
}

func TestDeterministicInterpretation(t *testing.T) {
	d1 := smallDC(t)
	d2 := smallDC(t)
	in1, err := d1.Interpret(InterpretOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	in2, err := d2.Interpret(InterpretOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Results are independent of worker count (asynchronous tasks, but
	// the tasks themselves are deterministic and independent).
	if len(in1.Fragments) != len(in2.Fragments) || len(in1.Pairs) != len(in2.Pairs) {
		t.Errorf("parallelism changed results: %d/%d fragments, %d/%d pairs",
			len(in1.Fragments), len(in2.Fragments), len(in1.Pairs), len(in2.Pairs))
	}
	if in1.TotalFirings() != in2.TotalFirings() {
		t.Errorf("firings differ: %d vs %d", in1.TotalFirings(), in2.TotalFirings())
	}
}

func TestSuburbanInterpretation(t *testing.T) {
	d, err := NewSuburbanDataset(scene.SuburbanParams{
		Name: "sub", Seed: 11, Blocks: 3, HousesPerBlock: 4, Verts: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.Interpret(InterpretOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Fragments) == 0 || len(in.Pairs) == 0 {
		t.Errorf("suburban interpretation empty: %d frags %d pairs", len(in.Fragments), len(in.Pairs))
	}
	if !in.ModelFound {
		t.Error("no suburban model")
	}
}

func TestCaptureProducesMatchForests(t *testing.T) {
	d := smallDC(t)
	rtfTasks := BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 3, true)
	res, err := tlp.RunSerial(rtfTasks[:3])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Log == nil || len(r.Log.Cycles) == 0 {
			t.Fatal("no cost log")
		}
		roots := 0
		for i := range r.Log.Cycles {
			roots += len(r.Log.Roots(i))
		}
		if roots == 0 {
			t.Error("capture on: expected match activation roots")
		}
	}
}

func TestRulesSourcesReadable(t *testing.T) {
	kb := AirportKB()
	for name, src := range map[string]string{
		"rtf": RTFSource(kb), "lcc": LCCSource(kb), "fa": FASource(kb), "model": ModelSource(kb),
	} {
		if len(src) < 500 {
			t.Errorf("%s source suspiciously short", name)
		}
		if _, err := ops5.Parse(src); err != nil {
			t.Errorf("%s source does not parse: %v", name, err)
		}
		if !strings.Contains(src, "literalize") {
			t.Errorf("%s source lacks declarations", name)
		}
	}
}
