// Memory structures of the Rete network: insertion-ordered WME and
// token lists with O(1) unlink, and the equality hash indexes that let
// join and negative nodes activate only the bucket of a memory that
// can possibly pass their first variable-consistency test (Doorenbos,
// "Production Matching for Large Learning Systems", ch. 2.3).
//
// The template/instance split puts the *declarations* (which
// attributes and (level, attr) locations are indexed) on the template
// nodes in rete.go and the *contents* (item lists, bucket maps) in the
// per-instance state structs here: alphaState for alpha memories,
// storeInst for token stores. Template nodes reach their state through
// the Network's state arrays, indexed by the dense ids assigned at
// compile time.
//
// Two invariants govern everything in this file:
//
//  1. Iteration order is insertion order, always. The network's
//     activation order — and through it the conflict set's tie-breaking
//     sequence and every captured activation forest — must be
//     reproducible across runs, which rules out Go map iteration over
//     memory contents. Bucket lists are appended on insert, so a bucket
//     walk visits its members in the same relative order a full memory
//     scan would.
//
//  2. Indexing must not perturb the simulated cost model. The paper's
//     curves are calibrated to the 1990 interpreted matcher, so the
//     pairs an index lets us skip are still charged: each skipped pair
//     would have failed the node's first equality test after exactly
//     one CostJoinTest, and the activation charges that amount
//     arithmetically from |memory| − |bucket| without iterating.
//     The same arithmetic makes a bucket collision cost-neutral: a
//     member that shares a bucket without being Equal to the probe is
//     walked instead of skipped, fails the node's first equality test,
//     and is charged the one CostJoinTest its skip would have been. That
//     is what lets indexKey be a single word (map[uint64], the runtime's
//     fast path) rather than a collision-free (kind, bits) pair.
package rete

import (
	"math"

	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// indexKey is the canonical hash key of an attribute value: one word.
// Values that are symtab.Value.Equal always share a key. Numbers
// collapse to their float64 image because OPS5 equality compares
// numerically across the integer/float representations; symbols (by
// intern id) and nil are placed among the bit patterns of negative
// NaNs, which no number Equal to anything occupies. Two values that are
// not Equal share a key only when one of them is a NaN — never Equal to
// anything, itself included — and such a bucket member is rejected by
// the join test like any other non-matching pair (invariant 2).
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

// ---------------------------------------------------------------------------
// WME lists and alpha-memory state

// wmeEntry is one membership of a WME in a wmeList.
type wmeEntry struct {
	w          *wm.WME
	prev, next *wmeEntry
	list       *wmeList
}

// wmeList is an insertion-ordered list of WMEs with O(1) unlink.
type wmeList struct {
	head, tail *wmeEntry
	size       int
}

func (l *wmeList) pushBack(w *wm.WME, n *Network) *wmeEntry {
	e := n.getWMEEntry()
	e.w = w
	e.list = l
	e.prev = l.tail
	e.next = nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.size++
	return e
}

func (l *wmeList) unlink(e *wmeEntry, n *Network) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	l.size--
	n.putWMEEntry(e)
}

// wmeIndex is the per-instance half of one alpha-memory equality
// index: the bucket map over one attribute's values. Indexes are
// materialized lazily: until the first bucket lookup, inserts skip the
// index entirely (built=false), so memories whose indexed side never
// activates — e.g. feeding a join whose opposite memory stays empty —
// pay nothing for registration. The first lookup backfills from the
// insertion-ordered item list, which preserves the
// bucket-order-equals-insertion-order invariant.
type wmeIndex struct {
	attr    int
	built   bool
	buckets map[indexKey]*wmeList
}

// alphaState is the per-instance contents of one alpha memory: the
// insertion-ordered WME list and the bucket maps of the registered
// indexes (parallel to the template's indexAttrs).
type alphaState struct {
	items   wmeList
	indexes []wmeIndex
}

// alphaRef records one WME's membership in an alpha memory: its entry
// in the ordered item list plus its entry in each registered index
// bucket (parallel to the memory's index list). A WME's memberships
// form a list through next, in insertion order, headed by its
// wmeState.
type alphaRef struct {
	am      *alphaMem
	entry   *wmeEntry
	buckets []*wmeEntry
	next    *alphaRef
}

// insert adds a WME to the memory's item list and every built index,
// and appends the membership record to the WME's state for later O(1)
// removal. Bucket slots of unbuilt indexes stay nil until buildIndex
// patches them.
func (am *alphaMem) insert(w *wm.WME, n *Network) {
	st := am.state(n)
	ref := n.newAlphaRef(len(st.indexes))
	ref.am, ref.entry = am, st.items.pushBack(w, n)
	for i := range st.indexes {
		if st.indexes[i].built {
			ref.buckets[i] = st.indexes[i].push(w, n)
		}
	}
	ws := n.state(w)
	if ws.refTail != nil {
		ws.refTail.next = ref
	} else {
		ws.refHead = ref
	}
	ws.refTail = ref
}

// push adds one WME to its bucket and returns the bucket entry.
func (ix *wmeIndex) push(w *wm.WME, n *Network) *wmeEntry {
	k := keyOf(w.GetAt(ix.attr))
	if ix.buckets == nil {
		ix.buckets = map[indexKey]*wmeList{}
	}
	b := ix.buckets[k]
	if b == nil {
		b = &wmeList{}
		ix.buckets[k] = b
	}
	return b.pushBack(w, n)
}

// removeRef unlinks one WME membership (item list and all buckets).
// Emptied bucket lists stay in their index map: attribute values recur,
// and reusing the list beats a delete-and-reallocate cycle.
func (am *alphaMem) removeRef(ref *alphaRef, n *Network) {
	am.state(n).items.unlink(ref.entry, n)
	for _, be := range ref.buckets {
		if be != nil { // nil: index not yet materialized at insert time
			be.list.unlink(be, n)
		}
	}
}

// bucket returns the WMEs whose indexed attribute equals the key
// (nil when the bucket is empty), materializing the index on first
// use.
func (am *alphaMem) bucket(idx int, k indexKey, n *Network) *wmeList {
	st := am.state(n)
	ix := &st.indexes[idx]
	if !ix.built {
		am.buildIndex(idx, ix, st, n)
	}
	return ix.buckets[k]
}

// buildIndex backfills a lazily-registered index from the item list,
// patching each member's membership record (held in its wmeState's
// alphaRef for this memory) so removal stays O(1).
func (am *alphaMem) buildIndex(idx int, ix *wmeIndex, st *alphaState, n *Network) {
	ix.built = true
	for e := st.items.head; e != nil; e = e.next {
		be := ix.push(e.w, n)
		for ref := n.states[e.w.TimeTag].refHead; ref != nil; ref = ref.next {
			if ref.am == am {
				ref.buckets[idx] = be
				break
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Token lists and store state

// tokenEntry is one membership of a token in a tokenList.
type tokenEntry struct {
	t          *Token
	prev, next *tokenEntry
	list       *tokenList
}

// tokenList is an insertion-ordered list of tokens with O(1) unlink.
type tokenList struct {
	head, tail *tokenEntry
	size       int
}

func (l *tokenList) pushBack(t *Token, n *Network) *tokenEntry {
	e := n.getTokenEntry()
	e.t = t
	e.list = l
	e.prev = l.tail
	e.next = nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.size++
	return e
}

func (l *tokenList) unlink(e *tokenEntry, n *Network) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	l.size--
	n.putTokenEntry(e)
}

// levelAttr identifies one (condition-element level, attribute slot)
// binding a token index hashes on.
type levelAttr struct{ level, attr int }

// tokenIndex is the per-instance half of one token-store equality
// index: the bucket map over the value tokens bind at one (level,
// attr) location. Tokens with no WME at that level (the level belongs
// to a negated CE, or the token is the dummy) appear in the item list
// but in no bucket: they can never pass an equality test against that
// location, so a bucket walk correctly treats them as first-test
// failures.
//
// Like wmeIndex, token indexes are materialized lazily on the first
// bucket lookup, except in eager stores (built is preset at
// instantiation from the template's eager flag).
type tokenIndex struct {
	at      levelAttr
	built   bool
	buckets map[indexKey]*tokenList
}

// storeInst is the per-instance contents of one token store (beta
// memory, negative node or production node): the ordered token list
// plus the bucket maps of any equality indexes registered by the join
// work that iterates the store.
type storeInst struct {
	items   tokenList
	indexes []tokenIndex
}

// insert adds a token to the item list and every index bucket whose
// (level, attr) location the token binds, returning the membership
// records. The bucket slice is parallel to the index list; entries are
// nil for locations the token does not bind. The caller provides the
// bucket slice to fill (so the token's own storage can be reused).
func (s *storeInst) insert(t *Token, buckets []*tokenEntry, n *Network) (*tokenEntry, []*tokenEntry) {
	entry := s.items.pushBack(t, n)
	for i := range s.indexes {
		var be *tokenEntry
		if s.indexes[i].built {
			be = s.indexes[i].push(t, n)
		}
		buckets = append(buckets, be)
	}
	return entry, buckets
}

// push adds one token to its bucket (none when the token binds no WME
// at the indexed level) and returns the bucket entry.
func (ix *tokenIndex) push(t *Token, n *Network) *tokenEntry {
	bound := t.WMEAt(ix.at.level)
	if bound == nil {
		return nil
	}
	k := keyOf(bound.GetAt(ix.at.attr))
	if ix.buckets == nil {
		ix.buckets = map[indexKey]*tokenList{}
	}
	b := ix.buckets[k]
	if b == nil {
		b = &tokenList{}
		ix.buckets[k] = b
	}
	return b.pushBack(t, n)
}

// removeEntries unlinks one token membership (item entry plus bucket
// entries) from the store's lists.
func (s *storeInst) removeEntries(entry *tokenEntry, buckets []*tokenEntry, n *Network) {
	s.items.unlink(entry, n)
	for _, be := range buckets {
		if be != nil {
			be.list.unlink(be, n)
		}
	}
}

// bucket returns the tokens whose bound value at the index's location
// equals the key (nil when the bucket is empty), materializing the
// index on first use.
func (s *storeInst) bucket(idx int, k indexKey, n *Network) *tokenList {
	ix := &s.indexes[idx]
	if !ix.built {
		s.buildIndex(idx, ix, n)
	}
	return ix.buckets[k]
}

// buildIndex backfills a lazily-registered index from the item list,
// patching each member token's storeBuckets record so removal stays
// O(1). Only node-owned memberships can exist in a lazy store (eager
// stores never reach here), so storeBuckets is always the right
// record to patch.
func (s *storeInst) buildIndex(idx int, ix *tokenIndex, n *Network) {
	ix.built = true
	for e := s.items.head; e != nil; e = e.next {
		if be := ix.push(e.t, n); be != nil {
			e.t.storeBuckets[idx] = be
		}
	}
}

// ---------------------------------------------------------------------------
// Entry free lists and arena draws

// newAlphaRef returns a zeroed membership record with k bucket slots,
// from the borrowed arena or the heap.
func (n *Network) newAlphaRef(k int) *alphaRef {
	if a := n.arena; a != nil {
		ref := a.alphaRefs.take()
		if k > 0 {
			ref.buckets = a.wmeBuckets.takeN(k)
		}
		return ref
	}
	ref := &alphaRef{}
	if k > 0 {
		ref.buckets = make([]*wmeEntry, k)
	}
	return ref
}

func (n *Network) getWMEEntry() *wmeEntry {
	if len(n.wmeEntryPool) > 0 {
		e := n.wmeEntryPool[len(n.wmeEntryPool)-1]
		n.wmeEntryPool = n.wmeEntryPool[:len(n.wmeEntryPool)-1]
		return e
	}
	if a := n.arena; a != nil {
		return a.wmeEntries.take()
	}
	return &wmeEntry{}
}

func (n *Network) putWMEEntry(e *wmeEntry) {
	*e = wmeEntry{}
	n.wmeEntryPool = append(n.wmeEntryPool, e)
}

func (n *Network) getTokenEntry() *tokenEntry {
	if len(n.tokenEntryPool) > 0 {
		e := n.tokenEntryPool[len(n.tokenEntryPool)-1]
		n.tokenEntryPool = n.tokenEntryPool[:len(n.tokenEntryPool)-1]
		return e
	}
	if a := n.arena; a != nil {
		return a.tokenEntries.take()
	}
	return &tokenEntry{}
}

func (n *Network) putTokenEntry(e *tokenEntry) {
	*e = tokenEntry{}
	n.tokenEntryPool = append(n.tokenEntryPool, e)
}
