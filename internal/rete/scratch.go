// Scratch: a task process's match arena. The paper forks its task
// processes once; after that a task is "just a working memory
// element, which initializes the production system of the process" —
// the process's match state outlives the task. A Scratch is that
// per-process state for a worker goroutine: slabs of tokens, list
// entries, per-WME records and per-node state that a network
// instantiated with NewNetworkScratch *borrows* for the length of one
// task and gives back, all at once, when the worker calls Settle. The
// task's working memory borrows from it too (Network.NewMemory): WME
// structs, the value vectors its seed rows and its rules make, the tag
// table. So does the engine layer, which parks its emptied conflict set
// here between loans, with the buffers its runs reuse (KeepAgenda). A network
// built without a scratch owns its memory and allocates from the Go
// heap.
//
// The loan is exclusive: one borrower at a time. A borrower that never
// settles (its task panicked, was interrupted or abandoned
// mid-operation, so its structures may be inconsistent) keeps what it
// drew; the next NewNetworkScratch on the same scratch notices the
// outstanding loan, forgets the old slabs for the collector and starts
// on fresh ones.
package rete

import (
	"unsafe"

	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

const (
	// slabFirst is the object count of a slab's first chunk and
	// slabMaxChunk the cap on the doubling that follows, so a 20-token
	// task holds a few KB while a large one amortises its growth.
	slabFirst    = 16
	slabMaxChunk = 1 << 15
	// TrimWindow is how many consecutive loans must leave a slab's top
	// chunks unreached before Trim gives them back. Trimming to the last
	// loan alone made every ordinary task that followed a small one
	// regrow its arena: over 13 cluster_2proc rounds slab.takeN was 47%
	// of the workers' sampled allocation (126 MB a round against 70 MB
	// for the same tasks in-process). A 16-loan window was enough within
	// one phase queue, but every task process trims, and an
	// interpretation's RTF tasks, at the start of each dataset's round,
	// then dropped the chunks LCC had grown for LCC to grow again: +22%
	// alloc_mb_per_op on interpret_cli, +19% on session_update. 256
	// loans span a round's phases and still shed a one-off peak within
	// 256 tasks. They do not make the arena allocation-free in steady
	// state: over internal/core's BenchmarkInterpretRound (profiled
	// exactly, -memprofilerate 1) the token slab allocated 15.96 MB in a
	// 10-round run and 59.48 MB in a 40-round one, 1.45 MB a round that
	// recurs after warm-up, and the negJoinResult slab 0.35 MB a round
	// (go1.24, linux/amd64, 144-byte tokens; `make alloc-profile` prints
	// both runs, sampled).
	TrimWindow = 256
)

// slab is a bump allocator over geometrically growing chunks of T.
// Objects are handed out zeroed and are only ever returned wholesale,
// by rewind.
type slab[T any] struct {
	chunks [][]T
	cur    int // chunk being drawn from
	used   int // objects drawn from chunks[cur]
	// idle counts the consecutive loans that left the top chunk
	// unreached; reach is the furthest chunk count any of them drew from.
	idle, reach int
}

// take returns one object.
func (s *slab[T]) take() *T { return &s.takeN(1)[0] }

// takeN returns n contiguous objects (length and capacity n).
func (s *slab[T]) takeN(n int) []T {
	for ; s.cur < len(s.chunks); s.cur, s.used = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.used+n <= len(c) {
			out := c[s.used : s.used+n : s.used+n]
			s.used += n
			return out
		}
	}
	size := slabFirst
	if k := len(s.chunks); k > 0 {
		size = min(2*len(s.chunks[k-1]), slabMaxChunk)
	}
	size = max(size, n)
	s.chunks = append(s.chunks, make([]T, size))
	s.used = n
	return s.chunks[s.cur][:n:n]
}

// rewind takes back every object drawn since the last rewind — each
// touched span is cleared — and returns the cursor to the start.
func (s *slab[T]) rewind() {
	for i := 0; i <= s.cur && i < len(s.chunks); i++ {
		c := s.chunks[i]
		if i == s.cur {
			c = c[:s.used]
		}
		clear(c)
	}
	if r := s.cur + 1; r >= len(s.chunks) {
		s.idle, s.reach = 0, 0
	} else {
		s.idle, s.reach = s.idle+1, max(s.reach, r)
	}
	s.cur, s.used = 0, 0
}

// trim drops the chunks that TrimWindow consecutive loans left
// unreached and reports whether there were any. Chunks double, so what
// stays holds less than twice the objects the largest of those loans
// drew (plus the first chunk).
func (s *slab[T]) trim() bool {
	if s.idle < TrimWindow {
		return false
	}
	clear(s.chunks[s.reach:])
	s.chunks = s.chunks[:s.reach]
	s.idle, s.reach = 0, 0
	return true
}

// size reports the slab's held chunks and their bytes.
func (s *slab[T]) size() (chunks int, bytes int64) {
	var zero T
	for _, c := range s.chunks {
		bytes += int64(len(c)) * int64(unsafe.Sizeof(zero))
	}
	return len(s.chunks), bytes
}

// Scratch is one worker's match arena (see the file comment). It is
// single-owner: not safe for concurrent use, lent to one network at a
// time.
type Scratch struct {
	tokens       slab[Token]
	negStates    slab[negState]
	tokenEntries slab[tokenEntry]
	wmeEntries   slab[wmeEntry]
	wmeStates    slab[wmeState]
	alphaRefs    slab[alphaRef]
	joinResults  slab[negJoinResult]
	alphaItems   slab[wmeList]
	storeItems   slab[tokenList]
	// The borrower's working memory: WME structs and the value vectors
	// made for them — by its rules, and for its plain seed rows (a shared
	// seed row's vector is the scene's, adopted as it stands).
	wmes slab[wm.WME]
	vals slab[symtab.Value]

	// Backing arrays of the borrower's free lists, so recycling within
	// a task does not regrow them per engine; the borrower uses negPool,
	// its negative-node states' free list, in place.
	tokenPool      []*Token
	graveyard      []*Token
	negPool        []*negState
	wmeEntryPool   []*wmeEntry
	tokenEntryPool []*tokenEntry
	// Backing arrays of the borrower's per-WME state table, of its
	// working memory's tag table and of its operand buffer.
	states   []*wmeState
	tags     []*wm.WME
	operands []symtab.Value

	// agenda is the engine layer's agenda, emptied and parked between
	// loans for the next borrower (KeepAgenda); rete never reads it.
	agenda Agenda

	// borrower is the network currently drawing from the arena.
	borrower *Network
}

// KeepAgenda parks an emptied agenda with the scratch, so the next
// engine built on it reuses the agenda's maps, lists and records instead
// of growing its own: ops5 parks its conflict set when it settles.
// TakeAgenda returns the parked agenda once, or nil.
func (s *Scratch) KeepAgenda(a Agenda) { s.agenda = a }

// TakeAgenda: see KeepAgenda.
func (s *Scratch) TakeAgenda() Agenda {
	a := s.agenda
	s.agenda = nil
	return a
}

// Arena reports what the scratch currently holds for reuse: the number
// of slab chunks and their total bytes. With a borrower outstanding this
// includes what the borrower has drawn.
func (s *Scratch) Arena() (slabs int, bytes int64) {
	for _, sl := range s.slabs() {
		n, b := sl.size()
		slabs, bytes = slabs+n, bytes+b
	}
	return slabs, bytes
}

// anySlab is a slab of any element type.
type anySlab interface {
	rewind()
	trim() bool
	size() (int, int64)
}

// slabs lists the arena's slabs for the operations that treat them
// alike.
func (s *Scratch) slabs() [11]anySlab {
	return [...]anySlab{&s.tokens, &s.negStates, &s.tokenEntries, &s.wmeEntries, &s.wmeStates, &s.alphaRefs,
		&s.joinResults, &s.alphaItems, &s.storeItems, &s.wmes, &s.vals}
}

// Trim bounds what an idle scratch keeps for the next task: less than
// twice the objects (per kind) that the largest of the last TrimWindow
// settled tasks drew, the rest dropped for the collector. A tlp.Pool
// task process calls it after every task — a worker's arena lives as
// long as its pool, which on the serving path and in a cluster worker
// is the process — so that one SF-x10-sized task does not pin its peak
// arena: TrimWindow ordinary tasks after it the excess is released,
// while a queue that mixes small and ordinary tasks keeps the ordinary
// task's arena and allocates nothing. With a loan outstanding Trim
// does nothing.
func (s *Scratch) Trim() {
	if s.borrower != nil {
		return
	}
	dropped := false
	for _, sl := range s.slabs() {
		dropped = sl.trim() || dropped
	}
	if dropped {
		// The free lists' backing arrays may still point, beyond their
		// length, into dropped chunks; let them go too.
		s.tokenPool, s.graveyard, s.negPool, s.wmeEntryPool, s.tokenEntryPool = nil, nil, nil, nil, nil
		// The state and tag tables are as long as the largest task's tag
		// count, and the parked agenda as large as its conflict set; they
		// go with the chunks that task grew.
		s.states, s.tags, s.agenda = nil, nil, nil
	}
}

// lend makes n the scratch's borrower. An outstanding loan means the
// previous borrower was never settled: what it drew stays with it, for
// the collector, and n starts on fresh slabs.
func (s *Scratch) lend(n *Network) {
	if s.borrower != nil {
		s.borrower.arena = nil
		*s = Scratch{}
	}
	s.borrower = n
	n.arena = s
	n.tokenPool, n.graveyard = s.tokenPool[:0], s.graveyard[:0]
	n.wmeEntryPool, n.tokenEntryPool = s.wmeEntryPool[:0], s.tokenEntryPool[:0]
	n.states = s.states[:0]
	n.operands = s.operands[:0]
}

// NewMemory returns the working memory whose WMEs the network will
// match, with the network as its wm.Arena. A borrowing network's memory
// borrows with it — WME structs, the vectors wm.Memory.NewVals hands
// out and the tag table come from the scratch, and Settle releases
// them, leaving the memory empty; an owning network's memory draws on
// the heap and is never released. One memory a network.
func (n *Network) NewMemory(classes *wm.Classes) *wm.Memory {
	var tags []*wm.WME
	if a := n.arena; a != nil {
		tags, a.tags = a.tags, nil
	}
	n.mem = wm.NewMemoryIn(classes, n, tags)
	return n.mem
}

// NewWME and NewVals make the network its working memory's wm.Arena.
// They go through the network rather than straight to the scratch so
// that a borrower whose loan was revoked (see lend) falls back to the
// heap instead of drawing on the next borrower's slabs.
func (n *Network) NewWME() *wm.WME {
	if a := n.arena; a != nil {
		return a.wmes.take()
	}
	return new(wm.WME)
}

func (n *Network) NewVals(k int) []symtab.Value {
	if a := n.arena; a != nil {
		return a.vals.takeN(k)
	}
	return make([]symtab.Value, k)
}

// Settle ends the network's loan: every object it and its working
// memory drew from the worker's scratch, live or free, goes back in
// time proportional to the objects drawn, reset for the next borrower.
// The network keeps its counters and peaks (Totals, PeakTokens) but no
// match state, and its memory no WME — it must not be asserted into,
// retracted from or run again. Call it only
// on a network that finished its work normally; one that panicked or
// was abandoned mid-operation is simply never settled (see lend). It
// returns the scratch, or nil for a network that owns its memory, for
// which Settle does nothing.
func (n *Network) Settle() *Scratch {
	s := n.arena
	if s == nil {
		return nil
	}
	for _, sl := range s.slabs() {
		sl.rewind()
	}
	s.tokenPool, s.graveyard = n.tokenPool[:0], n.graveyard[:0]
	s.negPool = s.negPool[:0]
	s.wmeEntryPool, s.tokenEntryPool = n.wmeEntryPool[:0], n.tokenEntryPool[:0]
	clear(n.states)
	s.states = n.states[:0]
	s.operands = n.operands[:0]
	if n.mem != nil {
		s.tags = n.mem.Release()
	}
	s.borrower = nil
	n.arena = nil
	n.agenda = nil
	n.alphaItems, n.storeItems, n.operands, n.states, n.dummyTok = nil, nil, nil, nil, nil
	n.tokenPool, n.graveyard, n.wmeEntryPool, n.tokenEntryPool = nil, nil, nil, nil
	n.batch, n.stack = nil, nil
	return s
}
