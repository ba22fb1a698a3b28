package rete

import (
	"strings"
	"testing"

	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// recorder is a test agenda that tracks live instantiations.
type recorder struct {
	live map[*PNode]map[*Token]bool
	adds int
	dels int
}

func newRecorder() *recorder { return &recorder{live: map[*PNode]map[*Token]bool{}} }

func (r *recorder) Activate(p *PNode, t *Token) {
	if r.live[p] == nil {
		r.live[p] = map[*Token]bool{}
	}
	r.live[p][t] = true
	r.adds++
}

func (r *recorder) Deactivate(p *PNode, t *Token) {
	delete(r.live[p], t)
	r.dels++
}

func (r *recorder) count(p *PNode) int { return len(r.live[p]) }

func classEq(attr int, v symtab.Value) func(*wm.WME) bool {
	return func(w *wm.WME) bool { return w.GetAt(attr).Equal(v) }
}

func eqPred(a, b symtab.Value) bool { return a.Equal(b) }

type fixture struct {
	classes *wm.Classes
	mem     *wm.Memory
	net     *Network
	rec     *recorder
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cs := wm.NewClasses()
	if _, err := cs.Declare("block", "id", "color", "on"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Declare("goal", "want"); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	return &fixture{classes: cs, mem: wm.NewMemory(cs), net: New(rec), rec: rec}
}

func (f *fixture) add(t *testing.T, class string, sets map[string]symtab.Value) *wm.WME {
	t.Helper()
	w, err := f.mem.Make(class, sets)
	if err != nil {
		t.Fatal(err)
	}
	f.net.Add(w)
	return w
}

func (f *fixture) remove(t *testing.T, w *wm.WME) {
	t.Helper()
	if err := f.mem.Remove(w); err != nil {
		t.Fatal(err)
	}
	f.net.Remove(w)
}

func TestSingleCE(t *testing.T) {
	f := newFixture(t)
	p, err := f.net.AddProduction("find-red", []Pattern{{
		Class:      "block",
		Signature:  "block^color=red",
		Filter:     classEq(1, symtab.Sym("red")),
		FilterCost: CostAlphaFilterTerm,
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w1 := f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(1), "color": symtab.Sym("red")})
	f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(2), "color": symtab.Sym("blue")})
	if f.rec.count(p) != 1 {
		t.Fatalf("instantiations = %d, want 1", f.rec.count(p))
	}
	f.remove(t, w1)
	if f.rec.count(p) != 0 {
		t.Fatalf("after removal, instantiations = %d, want 0", f.rec.count(p))
	}
}

func TestTwoCEJoin(t *testing.T) {
	f := newFixture(t)
	// (goal ^want <c>) (block ^color <c>)
	p, err := f.net.AddProduction("want-block", []Pattern{
		{Class: "goal", Signature: "goal*"},
		{Class: "block", Signature: "block*",
			Tests: []JoinTest{{OwnAttr: 1 /*color*/, TokenLevel: 0, TokenAttr: 0 /*want*/, Pred: eqPred}}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := f.add(t, "goal", map[string]symtab.Value{"want": symtab.Sym("red")})
	f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(1), "color": symtab.Sym("red")})
	f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(2), "color": symtab.Sym("blue")})
	if f.rec.count(p) != 1 {
		t.Fatalf("instantiations = %d, want 1", f.rec.count(p))
	}
	// A second red block joins too.
	w3 := f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(3), "color": symtab.Sym("red")})
	if f.rec.count(p) != 2 {
		t.Fatalf("instantiations = %d, want 2", f.rec.count(p))
	}
	// Removing the goal retracts everything.
	f.remove(t, g)
	if f.rec.count(p) != 0 {
		t.Fatalf("after goal removal, instantiations = %d, want 0", f.rec.count(p))
	}
	// Re-adding the goal re-derives both instantiations.
	f.add(t, "goal", map[string]symtab.Value{"want": symtab.Sym("red")})
	if f.rec.count(p) != 2 {
		t.Fatalf("after goal re-add, instantiations = %d, want 2", f.rec.count(p))
	}
	f.remove(t, w3)
	if f.rec.count(p) != 1 {
		t.Fatalf("after block removal, instantiations = %d, want 1", f.rec.count(p))
	}
}

func TestTokenWMEs(t *testing.T) {
	f := newFixture(t)
	var got *Token
	p, _ := f.net.AddProduction("pair", []Pattern{
		{Class: "goal", Signature: "goal*"},
		{Class: "block", Signature: "block*"},
	}, nil)
	g := f.add(t, "goal", map[string]symtab.Value{"want": symtab.Sym("x")})
	b := f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(9)})
	for tok := range f.rec.live[p] {
		got = tok
	}
	if got == nil {
		t.Fatal("no instantiation")
	}
	ws := got.WMEs()
	if len(ws) != 2 || ws[0] != g || ws[1] != b {
		t.Fatalf("token WMEs = %v", ws)
	}
	if got.WMEAt(0) != g || got.WMEAt(1) != b || got.WMEAt(5) != nil {
		t.Error("WMEAt lookup wrong")
	}
}

func TestNegativeLastCE(t *testing.T) {
	f := newFixture(t)
	// (goal) - (block ^color red): fires while no red block exists.
	p, err := f.net.AddProduction("no-red", []Pattern{
		{Class: "goal", Signature: "goal*"},
		{Negated: true, Class: "block", Signature: "block^color=red",
			Filter: classEq(1, symtab.Sym("red")), FilterCost: CostAlphaFilterTerm},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.add(t, "goal", map[string]symtab.Value{"want": symtab.Sym("z")})
	if f.rec.count(p) != 1 {
		t.Fatalf("negation should hold initially: %d", f.rec.count(p))
	}
	red := f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(1), "color": symtab.Sym("red")})
	if f.rec.count(p) != 0 {
		t.Fatalf("red block must block the negation: %d", f.rec.count(p))
	}
	f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(2), "color": symtab.Sym("blue")})
	if f.rec.count(p) != 0 {
		t.Fatalf("blue block must not unblock: %d", f.rec.count(p))
	}
	f.remove(t, red)
	if f.rec.count(p) != 1 {
		t.Fatalf("removing the red block must unblock: %d", f.rec.count(p))
	}
}

func TestNegativeMiddleCE(t *testing.T) {
	f := newFixture(t)
	// (goal ^want <c>) - (block ^color <c> ^on table) (block ^color <c>):
	// a red goal fires for each red block while no red block is on the table.
	p, err := f.net.AddProduction("neg-middle", []Pattern{
		{Class: "goal", Signature: "goal*"},
		{Negated: true, Class: "block", Signature: "block^on=table",
			Filter: classEq(2, symtab.Sym("table")), FilterCost: CostAlphaFilterTerm,
			Tests: []JoinTest{{OwnAttr: 1, TokenLevel: 0, TokenAttr: 0, Pred: eqPred}}},
		{Class: "block", Signature: "block*",
			Tests: []JoinTest{{OwnAttr: 1, TokenLevel: 0, TokenAttr: 0, Pred: eqPred}}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.add(t, "goal", map[string]symtab.Value{"want": symtab.Sym("red")})
	f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(1), "color": symtab.Sym("red"), "on": symtab.Sym("floor")})
	if f.rec.count(p) != 1 {
		t.Fatalf("want 1 instantiation, got %d", f.rec.count(p))
	}
	blocker := f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(2), "color": symtab.Sym("red"), "on": symtab.Sym("table")})
	// The blocker blocks the negation — but it also matches CE3, so when
	// unblocked there would be 2 instantiations. While blocked: 0.
	if f.rec.count(p) != 0 {
		t.Fatalf("blocked: want 0 instantiations, got %d", f.rec.count(p))
	}
	f.remove(t, blocker)
	if f.rec.count(p) != 1 {
		t.Fatalf("unblocked again: want 1, got %d", f.rec.count(p))
	}
	// Blocker of a different color does not block.
	f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(3), "color": symtab.Sym("blue"), "on": symtab.Sym("table")})
	if f.rec.count(p) != 1 {
		t.Fatalf("blue table block must not block red goal: got %d", f.rec.count(p))
	}
}

func TestAlphaSharing(t *testing.T) {
	f := newFixture(t)
	pat := Pattern{Class: "block", Signature: "block^color=red",
		Filter: classEq(1, symtab.Sym("red")), FilterCost: CostAlphaFilterTerm}
	if _, err := f.net.AddProduction("p1", []Pattern{pat}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.net.AddProduction("p2", []Pattern{pat}, nil); err != nil {
		t.Fatal(err)
	}
	if got := f.net.NumAlphaMems(); got != 1 {
		t.Errorf("alpha memories = %d, want 1 (shared)", got)
	}
	f.add(t, "block", map[string]symtab.Value{"color": symtab.Sym("red")})
	if f.rec.adds != 2 {
		t.Errorf("both productions should activate; adds = %d", f.rec.adds)
	}
}

func TestFrozenAfterFirstWME(t *testing.T) {
	f := newFixture(t)
	if _, err := f.net.AddProduction("p1", []Pattern{{Class: "block", Signature: "b*"}}, nil); err != nil {
		t.Fatal(err)
	}
	f.add(t, "block", nil)
	if _, err := f.net.AddProduction("late", []Pattern{{Class: "block", Signature: "b*"}}, nil); err == nil {
		t.Error("AddProduction after WM population must fail")
	}
}

func TestFirstPatternNegatedRejected(t *testing.T) {
	f := newFixture(t)
	if _, err := f.net.AddProduction("bad", []Pattern{{Negated: true, Class: "block", Signature: "b*"}}, nil); err == nil {
		t.Error("negated first pattern must be rejected")
	}
	if _, err := f.net.AddProduction("empty", nil, nil); err == nil {
		t.Error("empty pattern list must be rejected")
	}
}

func TestActivationCapture(t *testing.T) {
	f := newFixture(t)
	f.net.SetCapture(true)
	if _, err := f.net.AddProduction("p", []Pattern{
		{Class: "goal", Signature: "goal*"},
		{Class: "block", Signature: "block*"},
	}, nil); err != nil {
		t.Fatal(err)
	}
	f.net.StartBatch()
	f.add(t, "goal", nil)
	f.add(t, "block", nil)
	batch := f.net.TakeBatch()
	if len(batch) == 0 {
		t.Fatal("expected captured activations")
	}
	var total float64
	var count int
	for _, a := range batch {
		total += a.TotalCost()
		count += a.Count()
	}
	if total <= 0 || count < 2 {
		t.Errorf("activation totals: cost %v, count %d", total, count)
	}
	// Counters must accumulate regardless of capture.
	if f.net.Totals().Cost <= 0 || f.net.Totals().TokensCreated == 0 {
		t.Error("counters should be nonzero")
	}
}

// TestActivationLabelsPinned pins the captured forest of a scenario
// that produces every kind of activation — alpha:<signature>,
// join:<label>, neg:<label>, p:<name>, retract:<class>,
// retract-tok:<class>, neg-unblock:<class> — label for label and cost
// for cost. The labels are built when the template is compiled, not
// per activation; the match-parallelism simulation and its committed
// tables read these exact strings.
func TestActivationLabelsPinned(t *testing.T) {
	const want = `goal: alpha:goal|(120);join:clear/1(380)[join:clear/2(120);];
red: alpha:block|1=red(180);join:clear/2(540)[neg:clear/3(380);p:clear(680);];alpha:block|(120);neg:clear/3(280);
blocker: alpha:block|1=red(80);alpha:block|(120);neg:clear/3(1030);
unblock: retract:block(220);neg-unblock:block(310)[p:clear(680);];
retract: retract:block(320);retract-tok:block(1200);
`
	pats := []Pattern{
		{Class: "goal", Signature: "goal|"},
		{Class: "block", Signature: "block|1=red", Filter: classEq(1, symtab.Sym("red")), FilterCost: CostAlphaFilterTerm,
			Tests: []JoinTest{{OwnAttr: 0, TokenLevel: 0, TokenAttr: 0, Pred: eqPred}}},
		{Negated: true, Class: "block", Signature: "block|",
			Tests: []JoinTest{{OwnAttr: 2, TokenLevel: 1, TokenAttr: 0, Pred: eqPred}}},
	}
	tmpl := NewTemplate()
	if _, err := tmpl.AddProduction("clear", pats, nil); err != nil {
		t.Fatal(err)
	}
	owned := newFixture(t)
	if _, err := owned.net.AddProduction("clear", pats, nil); err != nil {
		t.Fatal(err)
	}
	borrowed := newFixture(t)
	borrowed.net = tmpl.NewNetworkScratch(borrowed.rec, &Scratch{})
	for name, f := range map[string]*fixture{"owned": owned, "borrowed": borrowed} {
		f.net.SetCapture(true)
		var sb strings.Builder
		step := func(name string, fn func()) {
			f.net.StartBatch()
			fn()
			sb.WriteString(name + ": ")
			renderForest(f.net.TakeBatch(), &sb)
			sb.WriteString("\n")
		}
		var red, onTop *wm.WME
		step("goal", func() { f.add(t, "goal", map[string]symtab.Value{"want": symtab.Int(1)}) })
		step("red", func() {
			red = f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(1), "color": symtab.Sym("red")})
		})
		step("blocker", func() {
			onTop = f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(2), "color": symtab.Sym("blue"), "on": symtab.Int(1)})
		})
		step("unblock", func() { f.remove(t, onTop) })
		step("retract", func() { f.remove(t, red) })
		if got := sb.String(); got != want {
			t.Errorf("%s network: captured forest\n%s\nwant\n%s", name, got, want)
		}
	}
}

// TestCaptureOffActivationAllocatesNothing is the allocation guard for
// the match path: with capture off, asserting a WME that one alpha
// memory accepts and no join pairs with, then retracting it, allocates
// nothing on a network that borrows a worker's arena — no activation
// label, no entry, no per-WME record.
func TestCaptureOffActivationAllocatesNothing(t *testing.T) {
	tmpl := NewTemplate()
	if _, err := tmpl.AddProduction("p", []Pattern{
		{Class: "goal", Signature: "goal|"},
		{Class: "block", Signature: "block|1=red", Filter: classEq(1, symtab.Sym("red")), FilterCost: CostAlphaFilterTerm,
			Tests: []JoinTest{{OwnAttr: 0, TokenLevel: 0, TokenAttr: 0, Pred: eqPred}}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	f := newFixture(t)
	f.net = tmpl.NewNetworkScratch(f.rec, &Scratch{})
	w, err := f.mem.Make("block", map[string]symtab.Value{"id": symtab.Int(1), "color": symtab.Sym("red")})
	if err != nil {
		t.Fatal(err)
	}
	before := f.net.Totals()
	allocs := testing.AllocsPerRun(1000, func() {
		f.net.Add(w)
		f.net.Remove(w)
	})
	if allocs != 0 {
		t.Errorf("capture-off Add+Remove allocated %v objects per run, want 0", allocs)
	}
	if after := f.net.Totals(); after.Activations == before.Activations || after.ConstTests == before.ConstTests {
		t.Error("the guarded Add did not activate the alpha memory; the test is vacuous")
	}
}

func TestCountersWithoutCapture(t *testing.T) {
	f := newFixture(t)
	if _, err := f.net.AddProduction("p", []Pattern{
		{Class: "goal", Signature: "goal*"},
		{Class: "block", Signature: "block*"},
	}, nil); err != nil {
		t.Fatal(err)
	}
	f.net.StartBatch()
	f.add(t, "goal", nil)
	f.add(t, "block", nil)
	if got := f.net.TakeBatch(); len(got) != 0 {
		t.Errorf("capture off: batch should be empty, got %d", len(got))
	}
	if f.net.Totals().Activations == 0 {
		t.Error("activations counter should still count")
	}
}

func TestRemoveUnknownWMENoop(t *testing.T) {
	f := newFixture(t)
	w, _ := f.mem.Make("block", nil)
	f.net.Remove(w) // never added; must not panic
}

func TestJoinWithPredicate(t *testing.T) {
	f := newFixture(t)
	gt := func(a, b symtab.Value) bool { c, ok := a.Compare(b); return ok && c > 0 }
	// (goal ^want <n>) (block ^id > <n>)
	p, _ := f.net.AddProduction("bigger", []Pattern{
		{Class: "goal", Signature: "goal*"},
		{Class: "block", Signature: "block*",
			Tests: []JoinTest{{OwnAttr: 0, TokenLevel: 0, TokenAttr: 0, Pred: gt}}},
	}, nil)
	f.add(t, "goal", map[string]symtab.Value{"want": symtab.Int(5)})
	f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(3)})
	f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(7)})
	f.add(t, "block", map[string]symtab.Value{"id": symtab.Int(9)})
	if f.rec.count(p) != 2 {
		t.Errorf("instantiations = %d, want 2 (ids 7 and 9)", f.rec.count(p))
	}
}

func TestDeepChainRetraction(t *testing.T) {
	f := newFixture(t)
	// 4-CE chain joined on color.
	pats := []Pattern{{Class: "goal", Signature: "goal*"}}
	for i := 0; i < 3; i++ {
		pats = append(pats, Pattern{Class: "block", Signature: "block*",
			Tests: []JoinTest{{OwnAttr: 1, TokenLevel: 0, TokenAttr: 0, Pred: eqPred}}})
	}
	p, err := f.net.AddProduction("chain", pats, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.add(t, "goal", map[string]symtab.Value{"want": symtab.Sym("red")})
	var blocks []*wm.WME
	for i := 0; i < 3; i++ {
		blocks = append(blocks, f.add(t, "block",
			map[string]symtab.Value{"id": symtab.Int(int64(i)), "color": symtab.Sym("red")}))
	}
	// 3 blocks in each of 3 CE positions = 27 instantiations.
	if f.rec.count(p) != 27 {
		t.Fatalf("instantiations = %d, want 27", f.rec.count(p))
	}
	f.remove(t, blocks[0])
	// 2^3 = 8 remain.
	if f.rec.count(p) != 8 {
		t.Fatalf("after removal, instantiations = %d, want 8", f.rec.count(p))
	}
	tc := f.net.Totals()
	if tc.TokensDeleted == 0 || tc.TokensCreated <= tc.TokensDeleted {
		t.Errorf("token accounting odd: %+v", tc)
	}
}

func TestNegationReblocking(t *testing.T) {
	f := newFixture(t)
	p, _ := f.net.AddProduction("nb", []Pattern{
		{Class: "goal", Signature: "goal*"},
		{Negated: true, Class: "block", Signature: "block*"},
	}, nil)
	f.add(t, "goal", nil)
	if f.rec.count(p) != 1 {
		t.Fatal("should fire with no blocks")
	}
	b1 := f.add(t, "block", nil)
	b2 := f.add(t, "block", nil)
	if f.rec.count(p) != 0 {
		t.Fatal("two blockers")
	}
	f.remove(t, b1)
	if f.rec.count(p) != 0 {
		t.Fatal("one blocker remains; negation still false")
	}
	f.remove(t, b2)
	if f.rec.count(p) != 1 {
		t.Fatal("all blockers gone; negation true again")
	}
}
