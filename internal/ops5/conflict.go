package ops5

import (
	"cmp"
	"slices"

	"spampsm/internal/rete"
	"spampsm/internal/symtab"
)

// Strategy selects the OPS5 conflict-resolution strategy.
type Strategy uint8

const (
	// LEX orders by recency of all timetags, then specificity.
	LEX Strategy = iota
	// MEA orders by the recency of the WME matching the first condition
	// element, then as LEX.
	MEA
)

// ParseStrategy converts a strategy name ("lex" or "mea").
func ParseStrategy(s string) Strategy {
	if s == "mea" {
		return MEA
	}
	return LEX
}

// instantiation is one conflict-set entry: a production matched by a
// specific token.
type instantiation struct {
	cp    *compiledProd
	token *rete.Token
	tags  []int // timetags of the positive-CE WMEs, sorted descending
	first int   // timetag of the first CE's WME (for MEA)
	seq   int   // creation order, for deterministic tie-breaking
	pos   int   // index in conflictSet.unfired; -1 once fired
}

// fired reports whether the instantiation has fired (refraction: it
// stays in the conflict set until its token is retracted, but is never
// selected again).
func (in *instantiation) fired() bool { return in.pos < 0 }

// conflictSet holds the live instantiations. It implements rete.Agenda.
type conflictSet struct {
	// slots holds every live instantiation, fired or not, at the slot
	// its production token carries (rete.Token.Slot); a nil slot is
	// free, and open lists the free ones. unfired lists the
	// instantiations not yet fired, densely, in no particular order, so
	// Resolve walks only what it may select.
	slots   []*instantiation
	open    []int32
	unfired []*instantiation
	seq     int
	// compares counts conflict-resolution comparisons for cost
	// accounting; the engine reads and resets it each cycle.
	compares int
	// free holds instantiations (and their tag slices) ready for reuse;
	// retired holds the ones deactivated since the last recycle. Like a
	// deleted token in the network's graveyard, a retracted
	// instantiation may be the one whose right-hand side is executing,
	// so it is not reused before the next cycle's recycle.
	free, retired []*instantiation
	// cycles and args are the engine's cost-log buffer (see Engine.Run)
	// and external-call argument stack (Engine.call). They live here so
	// that they are parked with the conflict set when the engine settles
	// and reused by the next engine on the same scratch.
	cycles []CycleCost
	args   []symtab.Value
}

func newConflictSet() *conflictSet { return &conflictSet{} }

// Activate implements rete.Agenda.
func (cs *conflictSet) Activate(p *rete.PNode, t *rete.Token) {
	var in *instantiation
	if k := len(cs.free); k > 0 {
		in, cs.free = cs.free[k-1], cs.free[:k-1]
	} else {
		in = &instantiation{}
	}
	// The tags arrive last condition element first.
	tags := t.AppendTimeTags(in.tags[:0])
	first := 0
	if len(tags) > 0 {
		first = tags[len(tags)-1]
	}
	slices.SortFunc(tags, func(a, b int) int { return cmp.Compare(b, a) })
	cs.seq++
	*in = instantiation{cp: p.Data.(*compiledProd), token: t, tags: tags, first: first, seq: cs.seq, pos: len(cs.unfired)}
	if k := len(cs.open); k > 0 {
		t.Slot, cs.open = cs.open[k-1], cs.open[:k-1]
		cs.slots[t.Slot] = in
	} else {
		t.Slot = int32(len(cs.slots))
		cs.slots = append(cs.slots, in)
	}
	cs.unfired = append(cs.unfired, in)
}

// Deactivate implements rete.Agenda.
func (cs *conflictSet) Deactivate(p *rete.PNode, t *rete.Token) {
	in := cs.slots[t.Slot]
	cs.slots[t.Slot] = nil
	cs.open = append(cs.open, t.Slot)
	if !in.fired() {
		cs.unlist(in)
	}
	cs.retired = append(cs.retired, in)
}

// unlist takes an unfired instantiation off the unfired list in O(1),
// because it fired or because it was retracted unfired: the list's last
// entry moves into its slot.
func (cs *conflictSet) unlist(in *instantiation) {
	k := len(cs.unfired) - 1
	last := cs.unfired[k]
	cs.unfired[in.pos], last.pos = last, in.pos
	cs.unfired[k] = nil
	cs.unfired = cs.unfired[:k]
	in.pos = -1
}

// recycle makes the instantiations deactivated so far reusable. The
// engine calls it where the network recycles its token graveyard: when
// no right-hand side is executing.
func (cs *conflictSet) recycle() {
	cs.free = append(cs.free, cs.retired...)
	clear(cs.retired)
	cs.retired = cs.retired[:0]
}

// reset empties the conflict set for another engine, keeping its lists
// and instantiation records (tag slices included) for reuse, retired in
// slot order. The engine calls it when it settles, with no right-hand
// side executing.
func (cs *conflictSet) reset() {
	for _, in := range cs.slots {
		if in != nil {
			cs.retired = append(cs.retired, in)
		}
	}
	clear(cs.slots)
	cs.slots, cs.open = cs.slots[:0], cs.open[:0]
	clear(cs.unfired)
	cs.unfired = cs.unfired[:0]
	cs.recycle()
	for _, in := range cs.free {
		in.cp, in.token = nil, nil
	}
	cs.seq, cs.compares = 0, 0
}

// Size returns the number of unfired instantiations: what Resolve may
// still select.
func (cs *conflictSet) Size() int { return len(cs.unfired) }

// lexLess reports whether a's tag list is less recent than b's under
// the LEX ordering: compare descending-sorted timetags pairwise; the
// first larger tag wins; if one list is a prefix of the other, the
// longer list wins.
func lexLess(a, b []int) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// better reports whether x dominates y under the strategy.
func better(x, y *instantiation, strat Strategy) bool {
	if strat == MEA && x.first != y.first {
		return x.first > y.first
	}
	xt, yt := x.tags, y.tags
	if lexLess(xt, yt) {
		return false
	}
	if lexLess(yt, xt) {
		return true
	}
	// Equal recency: specificity.
	if x.cp.prod.Specificity != y.cp.prod.Specificity {
		return x.cp.prod.Specificity > y.cp.prod.Specificity
	}
	// Arbitrary in OPS5; deterministic here: earliest activation wins.
	return x.seq < y.seq
}

// Resolve picks the dominant unfired instantiation, or nil when the
// conflict set offers nothing (quiescence). better is a strict total
// order, so the order of the unfired list does not matter; each entry
// is charged one comparison.
func (cs *conflictSet) Resolve(strat Strategy) *instantiation {
	var best *instantiation
	for _, in := range cs.unfired {
		cs.compares++
		if best == nil || better(in, best, strat) {
			best = in
		}
	}
	return best
}

// takeCompares returns and resets the comparison counter.
func (cs *conflictSet) takeCompares() int {
	c := cs.compares
	cs.compares = 0
	return c
}
