// Memory structures of the Rete network: insertion-ordered WME and
// token lists with O(1) unlink. A join or negative node activates by
// scanning the whole opposite memory. Working-memory distribution keeps
// those memories small — each task's engine holds only its task's WMEs
// — so a scan is the one join path, and every pair a scan offers is
// charged by the node's own tests. (Equality hash indexes over memories
// this small measured no faster: docs/PERFORMANCE.md, "Join indexes
// retired".)
//
// The template/instance split puts the topology on the template nodes
// in rete.go and the *contents* — one wmeList per alpha memory, one
// tokenList per token store — in the Network's alphaItems and
// storeItems arrays, indexed by the dense ids assigned at compile time.
//
// Iteration order is insertion order, always. The network's activation
// order — and through it the conflict set's tie-breaking sequence and
// every captured activation forest — must be reproducible across runs,
// which rules out Go map iteration over memory contents.
package rete

import "spampsm/internal/wm"

// ---------------------------------------------------------------------------
// WME lists and alpha-memory state

// wmeEntry is one membership of a WME in a wmeList.
type wmeEntry struct {
	w          *wm.WME
	prev, next *wmeEntry
}

// wmeList is an insertion-ordered list of WMEs with O(1) unlink.
type wmeList struct {
	head, tail *wmeEntry
}

func (l *wmeList) pushBack(w *wm.WME, n *Network) *wmeEntry {
	e := n.getWMEEntry()
	e.w = w
	e.prev = l.tail
	e.next = nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
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
	n.putWMEEntry(e)
}

// alphaRef records one WME's membership in an alpha memory: its entry
// in the memory's item list. A WME's memberships form a list through
// next, in insertion order, headed by its wmeState.
type alphaRef struct {
	am    *alphaMem
	entry *wmeEntry
	next  *alphaRef
}

// insert adds a WME to the memory's item list and appends the
// membership record to the WME's state for later O(1) removal.
func (am *alphaMem) insert(w *wm.WME, n *Network) {
	ref := n.newAlphaRef()
	ref.am, ref.entry = am, am.items(n).pushBack(w, n)
	ws := n.state(w)
	if ws.refTail != nil {
		ws.refTail.next = ref
	} else {
		ws.refHead = ref
	}
	ws.refTail = ref
}

// removeRef unlinks one WME membership from the memory's item list.
func (am *alphaMem) removeRef(ref *alphaRef, n *Network) {
	am.items(n).unlink(ref.entry, n)
}

// ---------------------------------------------------------------------------
// Token lists and store state

// tokenEntry is one membership of a token in a tokenList.
type tokenEntry struct {
	t          *Token
	prev, next *tokenEntry
}

// tokenList is an insertion-ordered list of tokens with O(1) unlink.
type tokenList struct {
	head, tail *tokenEntry
}

func (l *tokenList) pushBack(t *Token, n *Network) *tokenEntry {
	e := n.getTokenEntry()
	e.t = t
	e.prev = l.tail
	e.next = nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
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
	n.putTokenEntry(e)
}

// ---------------------------------------------------------------------------
// Entry free lists and arena draws

// newAlphaRef returns a zeroed membership record, from the borrowed
// arena or the heap.
func (n *Network) newAlphaRef() *alphaRef {
	if a := n.arena; a != nil {
		return a.alphaRefs.take()
	}
	return &alphaRef{}
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
