package ops5

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// genInst builds an instantiation with the given descending tags.
func genInst(tags []int, spec int, seq int) *instantiation {
	sorted := append([]int(nil), tags...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	first := 0
	if len(tags) > 0 {
		first = tags[0]
	}
	return &instantiation{
		cp:    &compiledProd{prod: &Production{Name: "p", Specificity: spec}},
		tags:  sorted,
		first: first,
		seq:   seq,
	}
}

func TestLexLessBasics(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{3, 2}, []int{4, 1}, true},  // 3 < 4
		{[]int{4, 1}, []int{3, 2}, false}, // 4 > 3
		{[]int{4, 2}, []int{4, 3}, true},  // tie on 4, 2 < 3
		{[]int{4}, []int{4, 1}, true},     // prefix: shorter loses
		{[]int{4, 1}, []int{4}, false},    // longer wins
		{[]int{4, 1}, []int{4, 1}, false}, // equal
		{nil, []int{1}, true},             // empty loses
	}
	for _, c := range cases {
		if got := lexLess(c.a, c.b); got != c.want {
			t.Errorf("lexLess(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// tagsFrom derives a small random tag list from quick's raw values.
func tagsFrom(raw []uint8) []int {
	n := int(len(raw)%4) + 1
	tags := make([]int, 0, n)
	for i := 0; i < n && i < len(raw); i++ {
		tags = append(tags, int(raw[i]%10)+1)
	}
	if len(tags) == 0 {
		tags = []int{1}
	}
	return tags
}

func TestQuickBetterAntisymmetric(t *testing.T) {
	f := func(ra, rb []uint8, sa, sb uint8) bool {
		a := genInst(tagsFrom(ra), int(sa%5), 1)
		b := genInst(tagsFrom(rb), int(sb%5), 2)
		ab := better(a, b, LEX)
		ba := better(b, a, LEX)
		return ab != ba // a strict total order: exactly one direction wins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickBetterTransitive(t *testing.T) {
	for _, strat := range []Strategy{LEX, MEA} {
		f := func(ra, rb, rc []uint8, sa, sb, sc uint8) bool {
			a := genInst(tagsFrom(ra), int(sa%5), 1)
			b := genInst(tagsFrom(rb), int(sb%5), 2)
			c := genInst(tagsFrom(rc), int(sc%5), 3)
			if better(a, b, strat) && better(b, c, strat) {
				return better(a, c, strat)
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("strategy %v: %v", strat, err)
		}
	}
}

// agendaEngine is an engine over productions whose instantiations
// collide often: a one-CE rule, a self-join, a constant test and a
// negation over one class with values drawn from a tiny domain. Tests
// reach its conflict set through the network's Activate and Deactivate,
// as a run does; nothing is fired by Run.
func agendaEngine(t *testing.T) *Engine {
	t.Helper()
	prog, err := Parse(`
(literalize k a b)
(p one (k ^a <x>) --> (halt))
(p two (k ^a <x>) (k ^b <x>) --> (halt))
(p lit (k ^a 1 ^b <y>) --> (halt))
(p none (k ^a <x>) - (k ^b <x>) --> (halt))
`)
	if err != nil {
		t.Fatal(err)
	}
	return mustNewEngine(t, prog)
}

// sweepResolve is the reference conflict resolution: every live
// instantiation, skipping fired ones, one comparison each.
func sweepResolve(cs *conflictSet, strat Strategy) (*instantiation, int) {
	var best *instantiation
	compares := 0
	for _, in := range cs.insts {
		if in.fired() {
			continue
		}
		compares++
		if best == nil || better(in, best, strat) {
			best = in
		}
	}
	return best, compares
}

func TestResolvePicksMaximum(t *testing.T) {
	e := agendaEngine(t)
	for _, v := range [][2]int64{{1, 2}, {2, 1}, {1, 1}, {0, 2}} {
		if _, err := e.Assert("k", map[string]symtab.Value{"a": symtab.Int(v[0]), "b": symtab.Int(v[1])}); err != nil {
			t.Fatal(err)
		}
	}
	cs := e.cs
	got := cs.Resolve(LEX)
	if got == nil {
		t.Fatal("no instantiation to resolve")
	}
	for _, in := range cs.insts {
		if in != got && !in.fired() && better(in, got, LEX) {
			t.Errorf("Resolve returned a dominated instantiation")
		}
	}
	// Firing removes it from contention, but not from the conflict set.
	size := len(cs.insts)
	cs.unlist(got)
	if second := cs.Resolve(LEX); second == got {
		t.Error("fired instantiation must not be re-selected")
	}
	if len(cs.insts) != size || cs.Size() != size-1 {
		t.Errorf("after one firing: %d live, %d unfired; want %d and %d", len(cs.insts), cs.Size(), size, size-1)
	}
}

// TestConflictSetResolveMatchesSweep drives random activate, deactivate
// and fire sequences through a conflict set and requires, after every
// step and under LEX and MEA, that Resolve over the unfired list returns
// what a sweep over every live instantiation returns, charging the same
// comparisons, and that the list holds exactly the unfired ones.
func TestConflictSetResolveMatchesSweep(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := agendaEngine(t)
		cs := e.cs
		var live []*wm.WME
		for step := 0; step < 120; step++ {
			e.net.StartBatch()
			cs.recycle()
			switch r := rng.Intn(10); {
			case r < 5 && len(live) < 10 || len(live) == 0:
				w, err := e.Assert("k", map[string]symtab.Value{
					"a": symtab.Int(rng.Int63n(3)), "b": symtab.Int(rng.Int63n(3))})
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, w)
			case r < 8:
				k := rng.Intn(len(live))
				w := live[k]
				if err := e.mem.Remove(w); err != nil {
					t.Fatal(err)
				}
				e.net.Remove(w)
				live = append(live[:k], live[k+1:]...)
			default:
				if cs.Size() > 0 {
					cs.unlist(cs.unfired[rng.Intn(cs.Size())])
				}
			}
			unfired := 0
			for _, in := range cs.insts {
				if !in.fired() {
					unfired++
					if cs.unfired[in.pos] != in {
						t.Fatalf("seed %d step %d: an unfired instantiation is not at its list position", seed, step)
					}
				}
			}
			if unfired != cs.Size() {
				t.Fatalf("seed %d step %d: %d unfired live, list holds %d", seed, step, unfired, cs.Size())
			}
			for _, strat := range []Strategy{LEX, MEA} {
				want, wantCmp := sweepResolve(cs, strat)
				got := cs.Resolve(strat)
				if gotCmp := cs.takeCompares(); got != want || gotCmp != wantCmp {
					t.Fatalf("seed %d step %d strategy %v: Resolve %v (%d compares), sweep %v (%d)",
						seed, step, strat, got, gotCmp, want, wantCmp)
				}
			}
		}
	}
}

func TestMEAFirstDominates(t *testing.T) {
	// Under MEA, a larger first-CE timetag beats any overall recency.
	a := genInst([]int{3, 99, 98}, 1, 1) // first=3
	b := genInst([]int{5, 1}, 1, 2)      // first=5
	if !better(b, a, MEA) {
		t.Error("MEA should prefer the newer first-CE match")
	}
	if better(b, a, LEX) {
		// LEX compares sorted tags: [99,98,3] vs [5,1] — a wins.
		t.Error("LEX should prefer the higher overall recency")
	}
}

func TestParseStrategy(t *testing.T) {
	if ParseStrategy("mea") != MEA || ParseStrategy("lex") != LEX || ParseStrategy("") != LEX {
		t.Error("strategy parsing wrong")
	}
}

// TestSettledConflictSetReused: an engine that settles parks its
// conflict set, emptied, with its scratch; the next engine built on the
// scratch starts from it, and fires and charges what an engine that
// owns its memory does.
func TestSettledConflictSetReused(t *testing.T) {
	prog := MustParse(`
(literalize count n limit)
(p grow (count ^n <n>) (count ^limit > <n>) --> (make count ^n (compute <n> + 1)))
`)
	run := func(e *Engine) string {
		t.Helper()
		if _, err := e.Assert("count", map[string]symtab.Value{"n": symtab.Int(0), "limit": symtab.Int(50)}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v %+v", e.Stats(), e.MatchCounters())
	}
	scratch := &Scratch{}
	first := mustNewEngine(t, prog, WithScratch(scratch))
	want := run(first)
	parked := first.cs
	if len(parked.insts) != 50 {
		t.Fatalf("first engine ends with %d instantiations, want the 50 it fired", len(parked.insts))
	}
	first.Settle()
	if first.ConflictSetSize() != 0 || len(first.ConflictSet()) != 0 {
		t.Error("a settled engine still reports a conflict set")
	}
	if len(parked.insts) != 0 || parked.Size() != 0 || parked.seq != 0 || len(parked.free) != 50 {
		t.Errorf("parked conflict set: %d live, %d unfired, seq %d, %d free; want 0, 0, 0, 50",
			len(parked.insts), parked.Size(), parked.seq, len(parked.free))
	}
	second := mustNewEngine(t, prog, WithScratch(scratch))
	if second.cs != parked {
		t.Fatal("the next engine on the scratch did not take the parked conflict set")
	}
	if got := run(second); got != want {
		t.Errorf("an engine on the parked conflict set: %s, want %s", got, want)
	}
	if got := run(mustNewEngine(t, prog)); got != want {
		t.Errorf("an owning engine: %s, want %s", got, want)
	}
}
