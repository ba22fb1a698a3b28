// Constant-test dispatch: a WME change is offered only to the alpha
// memories that can accept it.
//
// Almost every condition element of a rule base begins with an equality
// against a constant (^type runway, ^constraint c17, ^result t), so of
// the alpha memories of a class — 60 for SPAM's check — a given WME can
// pass a handful. Forgy's and Doorenbos's alpha networks hash those
// tests; this one does it per class, on one attribute: at Freeze each
// class picks the attribute the most memories test for equality with a
// constant and maps each such constant to the memories a WME carrying
// it can reach — the memories keyed on that value plus the residual,
// those with no equality constant on the attribute. Add looks the WME's
// value up and runs the full filter of each candidate; every other
// memory would have failed its test on that attribute.
//
// The two invariants of memory.go hold here as well:
//
//  1. A candidate list is ascending in the class's memory order, and
//     each accepted memory is inserted into and right-activated before
//     the next candidate sees the WME — Add's discipline, verbatim — so
//     the activation order, and with it the conflict set's tie-breaking
//     sequence, is that of the sweep.
//  2. The skipped memories are charged: the sweep's whole cost (one
//     activation, one constant test, CostAlphaScan + the filter's cost
//     per memory of the class) is a per-class constant added in one
//     step, integers in float64, so Counters are byte-identical. A key
//     collision (see indexKey) only adds a candidate, which its own
//     filter then rejects.
//
// Capture needs one Activation per memory, so a capturing network
// sweeps; the naive template (SetIndexing(false)) builds no dispatch
// at all, which makes indexed ≡ naive the oracle for this file too
// (dispatch_test.go).
package rete

// classDispatch is one class's dispatch table, immutable once built.
type classDispatch struct {
	attr int
	// byKey[k] lists, in class memory order, the memories a WME whose
	// attr value has key k can pass: those keyed on a constant of that
	// key merged with the residual. A value no memory is keyed on
	// reaches the residual alone.
	byKey    map[indexKey][]*alphaMem
	residual []*alphaMem
	// sweepCost is what sweeping the class charges before any insert:
	// Σ (CostAlphaScan + filterCost) over its memories.
	sweepCost float64
}

// newClassDispatch builds the dispatch of a class with the given alpha
// memories, or returns nil when no memory of the class tests an
// attribute for equality with a constant. The dispatch attribute is the
// one keying the most memories, ties to the lowest slot: a pure
// function of the rule set.
func newClassDispatch(mems []*alphaMem) *classDispatch {
	d := &classDispatch{attr: -1, byKey: map[indexKey][]*alphaMem{}}
	keyed := map[int]int{} // attribute -> memories keyed on it, so far
	for _, am := range mems {
		for a := range am.consts {
			// Only a's count grew, so only a can have overtaken the best.
			if keyed[a]++; keyed[a] > keyed[d.attr] || keyed[a] == keyed[d.attr] && a < d.attr {
				d.attr = a
			}
		}
	}
	if d.attr < 0 {
		return nil
	}
	for _, am := range mems {
		d.sweepCost += CostAlphaScan + am.filterCost
		for _, v := range am.consts[d.attr] {
			d.byKey[keyOf(v)] = nil
		}
	}
	for _, am := range mems {
		vals, isKeyed := am.consts[d.attr]
		for _, v := range vals {
			// 55 and 55.0 in one disjunction share a key: list am once.
			if l := d.byKey[keyOf(v)]; len(l) == 0 || l[len(l)-1] != am {
				d.byKey[keyOf(v)] = append(l, am)
			}
		}
		if !isKeyed {
			d.residual = append(d.residual, am)
			for k, l := range d.byKey {
				d.byKey[k] = append(l, am)
			}
		}
	}
	return d
}
