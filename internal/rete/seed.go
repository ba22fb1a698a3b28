// Seed-load fast path: memoized alpha routing and batched WME
// insertion.
//
// A task runtime instantiates dozens of engines from one frozen
// Template and loads each with a seed working memory drawn from a
// shared scene — the same fragment WMEs reappear in many overlapping
// tasks. Routing such a WME through the template's constant-test alpha
// network is a pure function of (class, attribute values): the set of
// alpha memories that accept it never varies across instances of the
// template. The template therefore memoizes each distinct seed's
// acceptance set, keyed by a canonical value digest, and InsertBatch
// replays the memo into any instance without re-evaluating a single
// filter closure.
//
// The simulated cost model is unaffected. Every skipped constant test
// is charged arithmetically — CostAlphaScan + filterCost per alpha
// memory of the class, plus CostAlphaMemOp per acceptance — exactly
// the amounts Add would have charged by running the filters, the same
// discipline chargeSkippedJoinTests established for the hash indexes.
// The differential oracle (seed_test.go) proves byte-identical
// Counters, conflict sets and captured activation forests against the
// per-WME Add path.
//
// InsertBatch deliberately keeps Add's sequential activation
// discipline: each WME is inserted into an accepting alpha memory and
// that memory's successors are right-activated before the next memory
// — or the next WME — sees it. Inserting the whole batch into the
// alpha memories up front would let a beta cascade triggered by an
// early WME find later WMEs already present, duplicating pairings (see
// the note on Add). The batch path wins by separating WME construction
// from match propagation, not by reordering the propagation itself.
package rete

import (
	"encoding/binary"
	"math"

	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// RouteDigest returns the canonical routing key of a seed WME: two
// value vectors of the same class share a digest if and only if every
// attribute pair satisfies symtab.Value.Equal. Numbers collapse to
// their float64 image (with -0.0 folded into +0.0) because OPS5
// equality compares numerically across the integer/float
// representations — the same canonicalization keyOf applies to index
// buckets. All components are length-delimited, so no two distinct
// vectors can collide by concatenation.
//
// Unlike keyOf's keys, a digest is made of names, never intern ids: it
// is the same bytes in every process, which the session signer and the
// cluster's seed shipping rely on.
func RouteDigest(class string, vals []symtab.Value) string {
	return string(AppendRouteDigest(make([]byte, 0, 16+len(class)+16*len(vals)), class, vals))
}

// AppendRouteDigest appends RouteDigest's bytes to b: a caller that
// hashes many rows reuses one buffer instead of keeping a string each.
func AppendRouteDigest(b []byte, class string, vals []symtab.Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(class)))
	b = append(b, class...)
	for _, v := range vals {
		switch {
		case v.IsNil():
			b = append(b, 'n')
		case v.Kind() == symtab.KindSym:
			s := v.SymVal()
			b = append(b, 's')
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		default:
			f := v.FloatVal()
			if f == 0 {
				f = 0 // fold -0.0 into +0.0: they compare Equal
			}
			b = append(b, 'f')
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b
}

// classRoutes memoizes the alpha routing of one class's seed WMEs:
// the class's alpha memories (the template's per-class slice, stable
// once frozen), the aggregate constant-test sweep cost Add would
// charge for any WME of the class, and the acceptance set per distinct
// value digest.
type classRoutes struct {
	mems     []*alphaMem
	scanCost float64            // Σ (CostAlphaScan + filterCost) over mems
	accepted map[string][]int32 // digest -> accepting positions in mems
}

// route returns the memoized routing of w, computing and caching the
// acceptance set on first sight of the digest. The digest must equal
// RouteDigest(w.Class.Name, w.Vals); callers that precomputed it pass
// it in, "" computes it here. Safe for concurrent use from any number
// of network instances of the template: filters are immutable template
// closures and are evaluated outside the lock (a racing miss computes
// the same set twice; the first store wins).
func (t *Template) route(w *wm.WME, digest string) (*classRoutes, []int32) {
	cn := t.byClass[w.Class.Name]
	if cn == nil {
		return nil, nil
	}
	mems := cn.mems
	if digest == "" {
		digest = RouteDigest(w.Class.Name, w.Vals)
	}
	t.routeMu.RLock()
	cr := t.routes[w.Class.Name]
	var acc []int32
	hit := false
	if cr != nil {
		acc, hit = cr.accepted[digest]
	}
	t.routeMu.RUnlock()
	if hit {
		return cr, acc
	}
	acc = make([]int32, 0, len(mems))
	for i, am := range mems {
		if am.filter == nil || am.filter(w) {
			acc = append(acc, int32(i))
		}
	}
	t.routeMu.Lock()
	if t.routes == nil {
		t.routes = map[string]*classRoutes{}
	}
	cr = t.routes[w.Class.Name]
	if cr == nil {
		cr = &classRoutes{mems: mems, accepted: map[string][]int32{}}
		for _, am := range mems {
			cr.scanCost += CostAlphaScan + am.filterCost
		}
		t.routes[w.Class.Name] = cr
	}
	if prev, ok := cr.accepted[digest]; ok {
		acc = prev
	} else {
		cr.accepted[digest] = acc
	}
	t.routeMu.Unlock()
	return cr, acc
}

// SetSeedRouting enables or disables the template's memoized alpha
// routing for this instance's InsertBatch calls (default on). With
// routing off, InsertBatch degrades to per-WME Add — the reference
// path the seed-load differential oracle compares against.
func (n *Network) SetSeedRouting(on bool) { n.noSeedRouting = !on }

// InsertBatch asserts a seed set, semantically identical to calling
// Add on each WME in order: same memory contents, same conflict set,
// same Counters, same captured activation forests. digests may be nil;
// otherwise it is parallel to wmes and a non-empty entry — which must
// equal RouteDigest over the WME's class and values — marks the WME as
// shared across engines and routes it through the template's memo.
// WMEs with no digest (values unique to this task) take the plain Add
// path and never populate the cache.
func (n *Network) InsertBatch(wmes []*wm.WME, digests []string) {
	n.frozen = true
	for i, w := range wmes {
		d := ""
		if digests != nil {
			d = digests[i]
		}
		if d == "" || n.noSeedRouting {
			n.Add(w)
			continue
		}
		cr, acc := n.tmpl.route(w, d)
		if cr == nil {
			continue // class feeds no alpha memory; Add would no-op too
		}
		n.replayRoute(w, cr, acc)
	}
}

// replayRoute inserts w along its memoized route. With capture on it
// reproduces Add's per-memory activation structure (identical forests);
// with capture off the constant-test sweep is charged in one arithmetic
// step and only the accepting memories are touched. Either way the
// per-memory discipline holds: insert, then right-activate the
// memory's successors in reverse order, before any later memory sees w.
func (n *Network) replayRoute(w *wm.WME, cr *classRoutes, acc []int32) {
	if n.capturing {
		k := 0
		for i, am := range cr.mems {
			n.beginBase(am.actLabel, CostAlphaScan)
			n.charge(am.filterCost)
			n.totals.ConstTests++
			ok := k < len(acc) && int(acc[k]) == i
			if ok {
				n.charge(CostAlphaMemOp)
				am.insert(w, n)
			}
			n.end()
			if ok {
				k++
				for j := len(am.successors) - 1; j >= 0; j-- {
					am.successors[j].rightActivate(w, n)
				}
			}
		}
		return
	}
	// One arithmetic charge for the whole sweep. Every network charge
	// is an integer number of simulated instructions, so float64 sums
	// are exact and order-independent: the aggregate equals Add's
	// incremental charging byte-for-byte.
	n.totals.Activations += len(cr.mems)
	n.totals.ConstTests += len(cr.mems)
	n.totals.Cost += cr.scanCost + float64(len(acc))*CostAlphaMemOp
	for _, idx := range acc {
		am := cr.mems[idx]
		am.insert(w, n)
		for j := len(am.successors) - 1; j >= 0; j-- {
			am.successors[j].rightActivate(w, n)
		}
	}
}
