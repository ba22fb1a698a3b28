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
// Two invariants make a dispatched Add indistinguishable from a sweep:
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
// sweeps; a template with dispatch off (SetDispatching(false)) builds no
// dispatch at all, which makes dispatched ≡ swept the oracle for this
// file (dispatch_test.go).
package rete

import (
	"math"

	"spampsm/internal/symtab"
)

// indexKey is the canonical hash key of an attribute value: one word.
// Values that are symtab.Value.Equal always share a key. Numbers
// collapse to their float64 image because OPS5 equality compares
// numerically across the integer/float representations; symbols (by
// intern id) and nil are placed among the bit patterns of negative
// NaNs, which no number Equal to anything occupies. Two values that are
// not Equal share a key only when one of them is a NaN — never Equal to
// anything, itself included — and such a candidate is rejected by its
// memory's filter (invariant 2). That is what lets the key be a single
// word (map[uint64], the runtime's fast path) rather than a
// collision-free (kind, bits) pair.
//
// A key holds a symbol's id, so it is process-local: it never leaves
// the network that computed it. AppendRouteDigest (seed.go) is the
// canonicalization that may cross a process boundary.
type indexKey uint64

const (
	nilKey     indexKey = 0xFFF0_0000_0000_0001
	symKeyBase indexKey = 0xFFF8_0000_0000_0000
)

// keyOf computes the canonical index key of a value.
func keyOf(v symtab.Value) indexKey {
	switch v.Kind() {
	case symtab.KindNil:
		return nilKey
	case symtab.KindSym:
		return symKeyBase | indexKey(v.SymID())
	default:
		f := v.FloatVal()
		if f == 0 {
			f = 0 // fold -0.0 into +0.0: they compare Equal
		}
		return indexKey(math.Float64bits(f))
	}
}

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
