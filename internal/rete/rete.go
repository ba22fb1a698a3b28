// Package rete implements the Rete match network used by the OPS5
// engine: a constant-test alpha network with shared alpha memories, a
// beta network of join and negative nodes with variable-consistency
// tests, production nodes feeding a conflict-set agenda, and tree-based
// token deletion (after Doorenbos, "Production Matching for Large
// Learning Systems").
//
// The network also accounts for match cost at the granularity ParaOPS5
// parallelizes: every node activation (an alpha-memory delta arriving
// at a join/negative node, or a token arriving at a node) is recorded
// as an Activation with its instruction cost and its child activations.
// The per-cycle forest of activations is the schedulable workload for
// the match-parallelism studies.
//
// A join or negative node activates by scanning the whole opposite
// memory (memory.go): each task's engine holds only its task's WMEs, so
// memories stay small, and most are empty. An activation that would
// meet an empty memory is charged at its call site and not made, unless
// the network is capturing (nullActivation). What is hashed is the
// constant-test half of a working-memory change (dispatch.go), whose
// simulated cost is charged as if it swept — the differential oracle
// (differential_test.go)
// proves the dispatched and swept matchers produce byte-identical
// Counters and identical firing sequences. See docs/PERFORMANCE.md.
//
// The network is split into an immutable compiled Template (node
// topology, test lists, production data — built once per rule set) and
// lightweight per-engine instances (Network: memories, counters,
// capture state). Template.NewNetworkScratch instantiates a shared
// template in O(nodes) pointer setup, so a task runtime spawning
// hundreds of engines over one rule set compiles it exactly once; the
// template/instance differential oracle (template_test.go) proves
// instances of one template byte-identical to freshly compiled ones.
package rete

import (
	"fmt"

	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// Instruction costs of the primitive match operations, in simulated
// NS32332 instructions (the Encore Multimax processor of the paper).
// The constants reflect the interpreted OPS5 match of the era (symbol
// dereferencing, tag checks, list traversal), calibrated so that one
// node activation lands near the ~100-instruction subtask granularity
// ParaOPS5 reports.
const (
	CostAlphaFilterTerm = 60  // one constant test in the alpha network
	CostAlphaMemOp      = 100 // insert/remove in an alpha memory
	CostJoinTest        = 160 // one variable consistency test
	CostTokenOp         = 260 // token create/delete incl. memory insert
	CostNegJoinResult   = 190 // negative-node join result bookkeeping
	CostAgendaOp        = 300 // conflict-set insert/remove
	CostActivationBase  = 120 // scheduling overhead of one node activation
	// CostAlphaScan is the (small) dispatch cost of testing one alpha
	// memory during the constant-test sweep of a WME change; the sweep
	// is cheap relative to the beta activations it triggers.
	CostAlphaScan = 20
)

// Activation records one node activation: its label, instruction cost,
// and the child activations it spawned. ParaOPS5 executes each node
// activation as an independent ~100-instruction subtask; the forest of
// activations per recognize-act cycle is what match parallelism
// schedules.
type Activation struct {
	Label    string
	Cost     float64 // instructions
	Children []*Activation
}

// TotalCost returns the cost of the activation and all descendants.
func (a *Activation) TotalCost() float64 {
	t := a.Cost
	for _, c := range a.Children {
		t += c.TotalCost()
	}
	return t
}

// Count returns the number of activations in the tree rooted at a.
func (a *Activation) Count() int {
	n := 1
	for _, c := range a.Children {
		n += c.Count()
	}
	return n
}

// PredFn evaluates a join-test predicate over (wme value, token value).
type PredFn func(own, bound symtab.Value) bool

// JoinTest is one variable-consistency test of a join or negative node:
// the new WME's attribute OwnAttr is compared against attribute
// TokenAttr of the WME bound at condition-element index TokenLevel.
// Pred is the comparison; nil is equality (symtab.Value.Equal), which
// the node tests inline instead of calling a function for each pair.
type JoinTest struct {
	OwnAttr    int
	TokenLevel int
	TokenAttr  int
	Pred       PredFn
}

// Pattern is the compiled form of one condition element.
type Pattern struct {
	Negated bool
	Class   string
	// Signature identifies the alpha test so equivalent patterns share
	// one alpha memory.
	Signature string
	// Filter applies the CE's constant and intra-element tests.
	Filter func(*wm.WME) bool
	// FilterCost is the instruction cost of one Filter evaluation.
	FilterCost float64
	// Consts are equality-constant conjuncts Filter was built from
	// (^a c, ^a << c1 c2 >>), as data: a WME Filter accepts has, at each
	// attribute slot listed, a value symtab.Value.Equal to one of the
	// slot's constants. The template dispatches a WME change on them
	// (dispatch.go); leaving a conjunct out only loses the speed-up,
	// listing one Filter does not enforce loses matches. A class none of
	// whose patterns declares Consts is swept: the reference matcher is
	// the same patterns without them.
	Consts map[int][]symtab.Value
	// Tests are the inter-element variable consistency tests.
	Tests []JoinTest
}

// Token is a partial instantiation: a chain of WMEs, one level per
// condition element (negated CEs and production nodes hold nil WMEs).
//
// Tokens carry intrusive links for every list they belong to, so that
// deletion — the retraction hot path — is O(1) per membership instead
// of a linear scan: the sibling list of their parent token, the token
// list of the WME they bind, and the membership record of their
// holder's store; a negative node's token keeps the rest of its state
// in a negState. Deleted tokens are
// recycled through the network's free list; recycling is deferred to
// the next StartBatch so that an engine firing a production can still
// read the (already retracted) instantiation token's bindings.
type Token struct {
	parent *Token
	W      *wm.WME
	node   tokenHolder
	level  int32 // condition-element index; -1 for the dummy token
	// Slot is the agenda's to use: a production node's token carries
	// the conflict-set slot of its instantiation. The network never
	// reads it.
	Slot int32

	// Intrusive child list; children are deleted newest-first, which
	// preserves the deletion order of the original slice-based
	// implementation.
	firstChild, lastChild *Token
	prevSib, nextSib      *Token

	// Intrusive membership of the binding WME's token list.
	wmePrev, wmeNext *Token

	// Membership record in the holder's token store (memory.go).
	storeEntry *tokenEntry

	// neg is a negative node's state for its token; nil for every other
	// token.
	neg *negState
}

// negState is what a negative node's token holds beyond a token: the
// intrusive list of WMEs currently blocking the negated condition, and
// its membership in the bridge memory that feeds the next join level,
// while the condition holds (bridge.entry nil otherwise). A negative
// node feeds one bridge memory, or none when it is the last condition.
type negState struct {
	jrHead, jrTail *negJoinResult
	bridge         tokenRef
}

// tokenRef is one token membership in a bridge memory.
type tokenRef struct {
	mem   *betaMemory
	entry *tokenEntry
}

// WMEAt returns the WME bound at condition-element level k (nil for
// negated levels).
func (t *Token) WMEAt(k int) *wm.WME {
	for tok := t; tok != nil; tok = tok.parent {
		if int(tok.level) == k {
			return tok.W
		}
	}
	return nil
}

// WMEs returns the positive-CE WMEs of the token in CE order.
func (t *Token) WMEs() []*wm.WME {
	var rev []*wm.WME
	for tok := t; tok != nil && tok.level >= 0; tok = tok.parent {
		if tok.W != nil {
			rev = append(rev, tok.W)
		}
	}
	out := make([]*wm.WME, len(rev))
	for i, w := range rev {
		out[len(rev)-1-i] = w
	}
	return out
}

// AppendTimeTags appends the timetags of the token's positive-CE WMEs
// to dst, last condition element first, and returns the extended
// slice: the conflict set's view of WMEs without the two slices.
func (t *Token) AppendTimeTags(dst []int) []int {
	for tok := t; tok != nil && tok.level >= 0; tok = tok.parent {
		if tok.W != nil {
			dst = append(dst, tok.W.TimeTag)
		}
	}
	return dst
}

func (t *Token) appendChild(c *Token) {
	c.prevSib = t.lastChild
	c.nextSib = nil
	if t.lastChild != nil {
		t.lastChild.nextSib = c
	} else {
		t.firstChild = c
	}
	t.lastChild = c
}

func (t *Token) removeChild(c *Token) {
	if c.prevSib != nil {
		c.prevSib.nextSib = c.nextSib
	} else {
		t.firstChild = c.nextSib
	}
	if c.nextSib != nil {
		c.nextSib.prevSib = c.prevSib
	} else {
		t.lastChild = c.prevSib
	}
	c.prevSib, c.nextSib = nil, nil
}

// blocked reports whether a WME blocks the negated condition.
func (g *negState) blocked() bool { return g.jrHead != nil }

func (g *negState) pushJR(jr *negJoinResult) {
	jr.ownerPrev = g.jrTail
	jr.ownerNext = nil
	if g.jrTail != nil {
		g.jrTail.ownerNext = jr
	} else {
		g.jrHead = jr
	}
	g.jrTail = jr
}

func (g *negState) unlinkJR(jr *negJoinResult) {
	if jr.ownerPrev != nil {
		jr.ownerPrev.ownerNext = jr.ownerNext
	} else {
		g.jrHead = jr.ownerNext
	}
	if jr.ownerNext != nil {
		jr.ownerNext.ownerPrev = jr.ownerPrev
	} else {
		g.jrTail = jr.ownerPrev
	}
	jr.ownerPrev, jr.ownerNext = nil, nil
}

// negJoinResult records one WME blocking one negative-node token. It
// is a member of two intrusive lists: the owner token's join-result
// list and the blocking WME's per-state list.
type negJoinResult struct {
	owner                *Token
	wme                  *wm.WME
	ownerPrev, ownerNext *negJoinResult
	wmePrev, wmeNext     *negJoinResult
}

// wmeState tracks the network's per-WME bookkeeping: the WME's alpha
// memory memberships, the tokens binding it (intrusive list), and the
// negative join results it blocks (intrusive list).
type wmeState struct {
	refHead, refTail *alphaRef
	tokHead, tokTail *Token
	jrHead, jrTail   *negJoinResult
}

func (st *wmeState) pushToken(t *Token) {
	t.wmePrev = st.tokTail
	t.wmeNext = nil
	if st.tokTail != nil {
		st.tokTail.wmeNext = t
	} else {
		st.tokHead = t
	}
	st.tokTail = t
}

func (st *wmeState) unlinkToken(t *Token) {
	if t.wmePrev != nil {
		t.wmePrev.wmeNext = t.wmeNext
	} else {
		st.tokHead = t.wmeNext
	}
	if t.wmeNext != nil {
		t.wmeNext.wmePrev = t.wmePrev
	} else {
		st.tokTail = t.wmePrev
	}
	t.wmePrev, t.wmeNext = nil, nil
}

func (st *wmeState) pushJR(jr *negJoinResult) {
	jr.wmePrev = st.jrTail
	jr.wmeNext = nil
	if st.jrTail != nil {
		st.jrTail.wmeNext = jr
	} else {
		st.jrHead = jr
	}
	st.jrTail = jr
}

func (st *wmeState) unlinkJR(jr *negJoinResult) {
	if jr.wmePrev != nil {
		jr.wmePrev.wmeNext = jr.wmeNext
	} else {
		st.jrHead = jr.wmeNext
	}
	if jr.wmeNext != nil {
		jr.wmeNext.wmePrev = jr.wmePrev
	} else {
		st.jrTail = jr.wmePrev
	}
	jr.wmePrev, jr.wmeNext = nil, nil
}

// tokenHolder is any node that stores tokens. Nodes are immutable
// template objects; the instance the token lives in is passed in.
type tokenHolder interface {
	removeToken(t *Token, n *Network)
}

// tokenChild receives a bare token from a memory-ish parent.
type tokenChild interface {
	leftActivateToken(t *Token, n *Network)
}

// rightChild receives alpha-memory deltas.
type rightChild interface {
	rightActivate(w *wm.WME, n *Network)
}

// alphaMem is the compiled (template) form of one alpha memory: the
// constant-test filter shared by equivalent condition elements and the
// successor list. Per-instance contents (the WME list) live in the
// Network's alphaItems slot at id.
type alphaMem struct {
	signature  string
	actLabel   string // "alpha:<signature>", the activation label
	class      string
	filter     func(*wm.WME) bool
	filterCost float64
	consts     map[int][]symtab.Value // Pattern.Consts: what the class dispatches on
	successors []rightSucc
	id         int // index into Network.alphaItems
}

// rightSucc is one successor of an alpha memory: the join or negative
// node a new WME right-activates, and the token store (sid) it scans.
// Naming the store lets Add charge a null activation without making it.
type rightSucc struct {
	node  rightChild
	store int
}

// leftSucc is one child of a beta memory: the node a new token
// left-activates and, for a join, the alpha memory it scans (alpha id;
// -1 for a negative node, whose activation stores the token whatever it
// finds).
type leftSucc struct {
	node  tokenChild
	alpha int
}

func (am *alphaMem) items(n *Network) *wmeList { return &n.alphaItems[am.id] }

// storeT is the compiled (template) half of a token store: its id. The
// per-instance half (the token list) is the Network's storeItems slot
// at sid.
type storeT struct {
	sid int // index into Network.storeItems
}

func (s *storeT) items(n *Network) *tokenList { return &n.storeItems[s.sid] }

// betaMemory stores the tokens matching a prefix of positive CEs.
type betaMemory struct {
	storeT
	children []leftSucc
	label    string
}

func (m *betaMemory) removeToken(t *Token, n *Network) {
	m.items(n).unlink(t.storeEntry, n)
}

func (m *betaMemory) leftActivatePair(t *Token, w *wm.WME, level int, n *Network) {
	tok := n.newToken(m, t, w, level)
	tok.storeEntry = m.items(n).pushBack(tok, n)
	m.activateChildren(tok, n)
}

// activateChildren left-activates the memory's children with tok. A
// join whose alpha memory is empty would open an activation, scan
// nothing and close it: with capture off it is charged as that null
// activation and not made.
func (m *betaMemory) activateChildren(tok *Token, n *Network) {
	for _, c := range m.children {
		if c.alpha >= 0 && !n.capturing && n.alphaItems[c.alpha].head == nil {
			n.nullActivation()
			continue
		}
		c.node.leftActivateToken(tok, n)
	}
}

// joinNode joins a parent beta memory with an alpha memory. It is
// fully immutable and shared across instances.
type joinNode struct {
	parent *betaMemory
	amem   *alphaMem
	tests  []JoinTest
	ops    int // the tests' operand frame (see operands)
	child  joinTarget
	level  int
	label  string
	// actLabel is "join:<label>".
	actLabel string
}

// joinTarget is what a join node feeds: the next beta memory, a
// negative node does not appear here (negatives hang off memories),
// or a production node.
type joinTarget interface {
	leftActivatePair(t *Token, w *wm.WME, level int, n *Network)
}

// Operands. An activation pairs one fixed side — the new WME of a
// right activation, the new token of a left one — with every item of
// the opposite memory, so it reads the fixed side's operand of each
// test once, into the node's frame of the network's operand buffer: a
// join's or negative node's frame starts at its ops offset, after the
// frames of the earlier nodes of its production. An activation nests
// only activations of later nodes of its production, so no frame is
// in use twice. Every pair still runs its tests in order, each one
// charged, up to the first failure.

// ownOperands reads w's operand of every test, for a right activation.
func (n *Network) ownOperands(tests []JoinTest, at int, w *wm.WME) []symtab.Value {
	ops := n.operands[at : at+len(tests)]
	for i := range tests {
		ops[i] = w.GetAt(tests[i].OwnAttr)
	}
	return ops
}

// boundOperands reads t's operand of every test, for a left activation,
// and returns how many tests have one: the first test whose level binds
// no WME (a negated level) fails every pair.
func (n *Network) boundOperands(tests []JoinTest, at int, t *Token) ([]symtab.Value, int) {
	ops := n.operands[at : at+len(tests)]
	for i := range tests {
		bound := t.WMEAt(tests[i].TokenLevel)
		if bound == nil {
			return ops, i
		}
		ops[i] = bound.GetAt(tests[i].TokenAttr)
	}
	return ops, len(tests)
}

// passesRight runs the tests over one pair of a right activation: the
// stored token t and the new WME, whose operands are own.
func (n *Network) passesRight(tests []JoinTest, own []symtab.Value, t *Token) bool {
	for i := range tests {
		ts := &tests[i]
		n.chargeTest()
		bound := t.WMEAt(ts.TokenLevel)
		if bound == nil {
			return false
		}
		if other := bound.GetAt(ts.TokenAttr); ts.Pred == nil {
			if !own[i].Equal(other) {
				return false
			}
		} else if !ts.Pred(own[i], other) {
			return false
		}
	}
	return true
}

// passesLeft runs the tests over one pair of a left activation: the
// stored WME w and the new token, whose first nBound operands are bound.
func (n *Network) passesLeft(tests []JoinTest, bound []symtab.Value, nBound int, w *wm.WME) bool {
	for i := range tests {
		ts := &tests[i]
		n.chargeTest()
		if i == nBound {
			return false
		}
		if own := w.GetAt(ts.OwnAttr); ts.Pred == nil {
			if !own.Equal(bound[i]) {
				return false
			}
		} else if !ts.Pred(own, bound[i]) {
			return false
		}
	}
	return true
}

func (n *Network) chargeTest() {
	n.charge(CostJoinTest)
	n.totals.JoinTests++
}

func (j *joinNode) leftActivateToken(t *Token, n *Network) {
	n.begin(j.actLabel)
	defer n.end()
	bound, nBound := n.boundOperands(j.tests, j.ops, t)
	for e := j.amem.items(n).head; e != nil; e = e.next {
		if n.passesLeft(j.tests, bound, nBound, e.w) {
			j.child.leftActivatePair(t, e.w, j.level, n)
		}
	}
}

func (j *joinNode) rightActivate(w *wm.WME, n *Network) {
	n.begin(j.actLabel)
	defer n.end()
	own := n.ownOperands(j.tests, j.ops, w)
	for e := j.parent.items(n).head; e != nil; e = e.next {
		if n.passesRight(j.tests, own, e.t) {
			j.child.leftActivatePair(e.t, w, j.level, n)
		}
	}
}

// negativeNode implements a negated CE. It stores the tokens that have
// passed the prefix and, for each, the set of WMEs currently matching
// the negated condition (join results). A token flows on to the
// children only while its join-result set is empty.
type negativeNode struct {
	storeT
	amem     *alphaMem
	tests    []JoinTest
	ops      int // the tests' operand frame (see operands)
	children []tokenChild
	level    int
	label    string
	actLabel string // "neg:<label>"
}

func (g *negativeNode) removeToken(t *Token, n *Network) {
	g.items(n).unlink(t.storeEntry, n)
}

// block records w as a join result blocking tok.
func (g *negativeNode) block(tok *Token, w *wm.WME, n *Network) {
	jr := n.newJoinResult()
	jr.owner, jr.wme = tok, w
	tok.neg.pushJR(jr)
	n.state(w).pushJR(jr)
}

func (g *negativeNode) leftActivateToken(t *Token, n *Network) {
	n.begin(g.actLabel)
	tok := n.newToken(g, t, nil, g.level)
	tok.neg = n.newNegState()
	tok.storeEntry = g.items(n).pushBack(tok, n)
	bound, nBound := n.boundOperands(g.tests, g.ops, tok)
	for e := g.amem.items(n).head; e != nil; e = e.next {
		if n.passesLeft(g.tests, bound, nBound, e.w) {
			n.charge(CostNegJoinResult)
			g.block(tok, e.w, n)
		}
	}
	n.end()
	if !tok.neg.blocked() {
		for _, c := range g.children {
			c.leftActivateToken(tok, n)
		}
	}
}

func (g *negativeNode) rightActivate(w *wm.WME, n *Network) {
	n.begin(g.actLabel)
	defer n.end()
	own := n.ownOperands(g.tests, g.ops, w)
	for e := g.items(n).head; e != nil; e = e.next {
		tok := e.t
		if !n.passesRight(g.tests, own, tok) {
			continue
		}
		n.charge(CostNegJoinResult)
		if !tok.neg.blocked() {
			// The negation just became false: retract downstream and
			// withdraw the token from the bridge memory feeding the
			// next join level.
			for tok.lastChild != nil {
				n.deleteToken(tok.lastChild)
			}
			n.leaveBridge(tok)
		}
		g.block(tok, w, n)
	}
}

// PNode is a production node: its tokens (held in the instance's store
// slot) are the instantiations of one production currently in the
// conflict set. PNodes are template objects shared by every instance;
// Name, Data and the store id are immutable after compilation.
type PNode struct {
	Name string
	// Data carries the production object of the owning rule compiler.
	Data interface{}
	storeT
	level    int
	actLabel string // "p:<Name>"
}

func newPNode(name string, data interface{}, level int) *PNode {
	return &PNode{Name: name, Data: data, level: level, actLabel: "p:" + name}
}

func (p *PNode) removeToken(t *Token, n *Network) {
	p.items(n).unlink(t.storeEntry, n)
}

func (p *PNode) leftActivatePair(t *Token, w *wm.WME, level int, n *Network) {
	n.begin(p.actLabel)
	tok := n.newToken(p, t, w, level)
	tok.storeEntry = p.items(n).pushBack(tok, n)
	n.charge(CostAgendaOp)
	n.end()
	n.agenda.Activate(p, tok)
}

func (p *PNode) leftActivateToken(t *Token, n *Network) {
	p.leftActivatePair(t, nil, p.level, n)
}

// Agenda receives conflict-set activations and deactivations.
type Agenda interface {
	Activate(p *PNode, t *Token)
	Deactivate(p *PNode, t *Token)
}

// Counters aggregates network-wide match statistics. The differential
// oracle requires these to be byte-identical between the dispatched and
// swept matchers: wall-clock optimisations must never perturb the
// simulated-instruction accounting.
type Counters struct {
	ConstTests    int
	JoinTests     int
	TokensCreated int
	TokensDeleted int
	Activations   int
	Cost          float64 // instructions
}

// classNodes is what the template knows about one WME class: the alpha
// memories a WME of the class is offered to (in compilation order), the
// labels of its retraction activations and, once the template is
// frozen, how a WME of the class is dispatched to the memories that can
// accept it (dispatch.go).
type classNodes struct {
	mems                            []*alphaMem
	retract, retractTok, negUnblock string
	dispatch                        *classDispatch
}

// Template is the immutable compiled form of a Rete network: alpha
// memories with their filters and successor lists, the beta topology
// of join/negative/production nodes, and each class's constant-test
// dispatch. A Template is built once (AddProduction per production),
// then instantiated any number of times with NewNetworkScratch; after
// the first instantiation it is frozen and safe for concurrent
// instantiation from multiple goroutines.
type Template struct {
	amems    map[string]*alphaMem
	byClass  map[string]*classNodes
	alphas   []*alphaMem // in id order
	nStores  int         // token stores, numbered by sid
	dummyTop *betaMemory
	prods    []*PNode
	frozen   bool
	// nOperands sizes a network's operand buffer: the most tests of any
	// one production (see operands).
	nOperands int
	// byDef is byClass keyed by the definitions of the registry the
	// template was bound to (BindClasses).
	byDef map[*wm.ClassDef]*classNodes
}

// BindClasses resolves the template's classes against the registry its
// networks' working memories are built over, so that Add and Remove
// find a WME's class nodes by its class pointer instead of hashing the
// class name. Call it after the last AddProduction and before the
// template is shared. Binding is optional: on an unbound template, and
// for a WME whose class is of another registry, the lookup is by name.
func (t *Template) BindClasses(cs *wm.Classes) {
	t.byDef = map[*wm.ClassDef]*classNodes{}
	for _, name := range cs.Names() {
		t.byDef[cs.Lookup(name)] = t.byClass[name] // nil: no pattern tests the class
	}
}

// nodesOf returns the nodes of a WME's class, nil when no pattern of
// the template tests the class.
func (t *Template) nodesOf(c *wm.ClassDef) *classNodes {
	if cn, ok := t.byDef[c]; ok {
		return cn
	}
	return t.byClass[c.Name]
}

// NewTemplate returns an empty template.
func NewTemplate() *Template {
	t := &Template{
		amems:   map[string]*alphaMem{},
		byClass: map[string]*classNodes{},
	}
	t.dummyTop = &betaMemory{label: "top"}
	t.registerStore(&t.dummyTop.storeT)
	return t
}

// registerStore assigns the next store id to a node's store half.
func (t *Template) registerStore(s *storeT) {
	s.sid = t.nStores
	t.nStores++
}

// Productions returns the compiled production nodes in addition order.
func (t *Template) Productions() []*PNode { return t.prods }

// AddProduction compiles a production's patterns into the template.
// All productions must be added before the first instantiation.
func (t *Template) AddProduction(name string, pats []Pattern, data interface{}) (*PNode, error) {
	if t.frozen {
		return nil, fmt.Errorf("rete: AddProduction(%s) after the template was frozen (instantiated, or matched against)", name)
	}
	if len(pats) == 0 {
		return nil, fmt.Errorf("rete: production %s has no patterns", name)
	}
	if pats[0].Negated {
		return nil, fmt.Errorf("rete: production %s: first pattern may not be negated", name)
	}
	mem := t.dummyTop
	ops := 0 // operand frames of the production's earlier nodes
	for i, pat := range pats {
		am := t.alpha(pat)
		last := i == len(pats)-1
		label := fmt.Sprintf("%s/%d", name, i+1)
		at := ops
		ops += len(pat.Tests)
		t.nOperands = max(t.nOperands, ops)
		if pat.Negated {
			neg := &negativeNode{
				amem: am, tests: pat.Tests, ops: at, level: i,
				label: label, actLabel: "neg:" + label,
			}
			t.registerStore(&neg.storeT)
			mem.children = append(mem.children, leftSucc{node: neg, alpha: -1})
			// Successors append in ancestor-before-descendant order per
			// chain; Add right-activates them in reverse, so descendants
			// run first (required when one alpha memory feeds several
			// levels of the same chain, or new-WME pairings double).
			am.successors = append(am.successors, rightSucc{node: neg, store: neg.sid})
			if last {
				p := newPNode(name, data, i+1)
				t.registerStore(&p.storeT)
				neg.children = append(neg.children, p)
				t.prods = append(t.prods, p)
				return p, nil
			}
			// The negative node acts as the memory for the next level,
			// via a bridge memory that holds its unblocked tokens.
			mem = t.negAdapter(neg)
			continue
		}
		j := &joinNode{parent: mem, amem: am, tests: pat.Tests, ops: at, level: i,
			label: label, actLabel: "join:" + label}
		mem.children = append(mem.children, leftSucc{node: j, alpha: am.id})
		am.successors = append(am.successors, rightSucc{node: j, store: mem.sid})
		if last {
			p := newPNode(name, data, i+1)
			t.registerStore(&p.storeT)
			j.child = p
			t.prods = append(t.prods, p)
			return p, nil
		}
		next := &betaMemory{label: label}
		t.registerStore(&next.storeT)
		j.child = next
		mem = next
	}
	return nil, fmt.Errorf("rete: production %s: unreachable", name)
}

// negAdapter makes a negative node usable as the parent memory of the
// next join level: the join iterates the negative node's unblocked
// tokens and receives new tokens via leftActivateToken.
func (t *Template) negAdapter(g *negativeNode) *betaMemory {
	// A thin real memory fed by the negative node keeps join-node logic
	// uniform: tokens whose negation holds are copied into it.
	m := &betaMemory{label: g.label + "/adapter"}
	t.registerStore(&m.storeT)
	g.children = append(g.children, (*negBridge)(m))
	return m
}

// negBridge forwards a token from a negative node into its adapter
// memory without adding a token level.
type negBridge betaMemory

func (b *negBridge) leftActivateToken(t *Token, n *Network) {
	m := (*betaMemory)(b)
	// Reuse the token itself: store and fan out. The token's holder
	// remains the negative node; the adapter tracks membership only.
	t.neg.bridge = tokenRef{mem: m, entry: m.items(n).pushBack(t, n)}
	m.activateChildren(t, n)
}

// leaveBridge withdraws a negative node's token from its bridge memory,
// if it is in it.
func (n *Network) leaveBridge(t *Token) {
	if b := &t.neg.bridge; b.entry != nil {
		b.mem.items(n).unlink(b.entry, n)
		*b = tokenRef{}
	}
}

func (t *Template) alpha(pat Pattern) *alphaMem {
	if am, ok := t.amems[pat.Signature]; ok {
		return am
	}
	am := &alphaMem{
		signature:  pat.Signature,
		actLabel:   "alpha:" + pat.Signature,
		class:      pat.Class,
		filter:     pat.Filter,
		filterCost: pat.FilterCost,
		consts:     pat.Consts,
		id:         len(t.alphas),
	}
	t.amems[pat.Signature] = am
	cn := t.byClass[pat.Class]
	if cn == nil {
		cn = &classNodes{
			retract:    "retract:" + pat.Class,
			retractTok: "retract-tok:" + pat.Class,
			negUnblock: "neg-unblock:" + pat.Class,
		}
		t.byClass[pat.Class] = cn
	}
	cn.mems = append(cn.mems, am)
	t.alphas = append(t.alphas, am)
	return am
}

// Freeze marks the template complete — no further AddProduction — and
// builds each class's constant-test dispatch (dispatch.go). It is
// idempotent and writes nothing on a frozen template; call it once
// after compilation, before the template is shared across goroutines
// (instantiation also freezes, but a concurrent *first* instantiation
// of a never-frozen template races on the flag).
func (t *Template) Freeze() {
	if t.frozen {
		return
	}
	for _, cn := range t.byClass {
		cn.dispatch = newClassDispatch(cn.mems)
	}
	t.frozen = true
}

// NewNetworkScratch instantiates the template: O(nodes) state-slot
// setup with no recompilation. The instance borrows its match state
// from a worker's Scratch until Settle (see scratch.go); with s nil it
// owns its memory. The template is frozen by the first instantiation;
// concurrent calls on a frozen template are safe.
func (t *Template) NewNetworkScratch(agenda Agenda, s *Scratch) *Network {
	t.Freeze()
	n := &Network{
		tmpl:   t,
		agenda: agenda,
	}
	if s != nil {
		s.lend(n)
	}
	n.instantiate()
	return n
}

// instantiate sizes the per-instance state arrays and installs the
// dummy token. A borrowing instance draws the arrays from the arena.
func (n *Network) instantiate() {
	t := n.tmpl
	if a := n.arena; a != nil {
		n.alphaItems = a.alphaItems.takeN(len(t.alphas))
		n.storeItems = a.storeItems.takeN(t.nStores)
	} else {
		n.alphaItems = make([]wmeList, len(t.alphas))
		n.storeItems = make([]tokenList, t.nStores)
	}
	if cap(n.operands) < t.nOperands {
		n.operands = make([]symtab.Value, t.nOperands)
	}
	n.operands = n.operands[:t.nOperands]
	n.dummyTok = n.allocToken()
	n.dummyTok.level, n.dummyTok.node = -1, t.dummyTop
	n.dummyTok.storeEntry = t.dummyTop.items(n).pushBack(n.dummyTok, n)
}

// Network is one Rete network instance over a compiled template:
// per-instance memories, counters and capture state. A
// Network is not safe for concurrent mutation; each SPAM/PSM task
// process owns its own network (that is the point of working-memory
// distribution). Instances of one shared template are independent —
// creating and running them from different goroutines is safe.
type Network struct {
	tmpl   *Template
	agenda Agenda

	alphaItems []wmeList
	storeItems []tokenList
	// operands holds the operand frames of the nodes' activations (see
	// operands), Template.nOperands long; a borrowing instance reuses
	// its arena's.
	operands  []symtab.Value
	dummyTok  *Token
	totals    Counters
	batch     []*Activation
	stack     []*Activation
	capturing bool

	// states[t] is the match state of the WME with timetag t, nil until
	// an alpha memory accepts it and again once it is removed. A network
	// only sees the WMEs of one wm.Memory, whose tags are dense, so the
	// slice costs 8 bytes per WME that memory ever made; a borrowing
	// instance draws it from, and returns it to, its arena.
	states []*wmeState

	// arena is the worker scratch the instance borrows its match state
	// from until Settle; nil for an instance that owns its memory (and
	// for a settled one). mem is the working memory borrowing with it
	// (NewMemory), which Settle releases.
	arena *Scratch
	mem   *wm.Memory

	// Free lists. Deleted tokens rest in the graveyard until the next
	// StartBatch: an engine may read a fired instantiation's (already
	// retracted) token until its recognize-act cycle ends.
	tokenPool      []*Token
	graveyard      []*Token
	wmeEntryPool   []*wmeEntry
	tokenEntryPool []*tokenEntry

	// Token occupancy for the memory model: live tokens and their
	// high-water mark. Purely observational — Counters and charges are
	// untouched, so the simulated cost model stays byte-identical. The
	// create/delete sequence is already proven identical between the
	// dispatched and swept matchers, so the peaks are too.
	liveTokens, peakTokens int32
}

// TokenBytes is the memory model's footprint of one beta-memory token,
// in simulated bytes: a round constant of the simulated machine, like
// the NS32332 instruction costs, and not the size of this package's
// Token record, which may change without changing a simulated figure.
const TokenBytes = 96

// Totals returns the aggregate match counters.
func (n *Network) Totals() Counters { return n.totals }

// PeakTokens returns the high-water mark of simultaneously-live beta
// tokens (the dummy top token included).
func (n *Network) PeakTokens() int { return int(n.peakTokens) }

// SetCapture enables or disables per-activation tree capture. With
// capture off only the aggregate counters are maintained, which keeps
// long runs (hundreds of thousands of firings) cheap.
func (n *Network) SetCapture(on bool) { n.capturing = on }

// StartBatch clears the pending activation forest; the activations
// produced by subsequent Add/Remove calls accumulate until TakeBatch.
// It is also the recycling point: tokens deleted since the previous
// batch return to the free list, so a caller holding a retracted
// token (the engine reading a fired instantiation's bindings) must
// not keep it across StartBatch.
func (n *Network) StartBatch() {
	n.batch = n.batch[:0]
	n.stack = n.stack[:0]
	for _, tok := range n.graveyard {
		if g := tok.neg; g != nil && n.arena != nil {
			*g = negState{}
			n.arena.negPool = append(n.arena.negPool, g)
		}
		*tok = Token{}
		n.tokenPool = append(n.tokenPool, tok)
	}
	n.graveyard = n.graveyard[:0]
}

// TakeBatch returns the activation forest accumulated since StartBatch.
func (n *Network) TakeBatch() []*Activation {
	out := n.batch
	n.batch = nil
	n.stack = n.stack[:0]
	return out
}

func (n *Network) begin(label string) { n.beginBase(label, CostActivationBase) }

// beginBase opens an activation with an explicit dispatch cost. Callers
// pass a label their template node or class built at compile time
// (actLabel, classNodes), never one concatenated here: an activation
// with capture off allocates nothing.
func (n *Network) beginBase(label string, base float64) {
	n.totals.Activations++
	n.totals.Cost += base
	if !n.capturing {
		return
	}
	a := &Activation{Label: label, Cost: base}
	if len(n.stack) == 0 {
		n.batch = append(n.batch, a)
	} else {
		p := n.stack[len(n.stack)-1]
		p.Children = append(p.Children, a)
	}
	n.stack = append(n.stack, a)
}

// nullActivation charges what a join or negative node activation that
// finds its opposite memory empty costs — it opens, scans nothing and
// closes — without making it. Only a network that is not capturing
// skips the call: a capturing one records every activation.
func (n *Network) nullActivation() {
	n.totals.Activations++
	n.totals.Cost += CostActivationBase
}

func (n *Network) end() {
	if !n.capturing || len(n.stack) == 0 {
		return
	}
	n.stack = n.stack[:len(n.stack)-1]
}

func (n *Network) charge(cost float64) {
	n.totals.Cost += cost
	if n.capturing && len(n.stack) > 0 {
		n.stack[len(n.stack)-1].Cost += cost
	}
}

// state returns w's match state, creating it on first use.
func (n *Network) state(w *wm.WME) *wmeState {
	for len(n.states) <= w.TimeTag {
		n.states = append(n.states, nil)
	}
	st := n.states[w.TimeTag]
	if st == nil {
		if a := n.arena; a != nil {
			st = a.wmeStates.take()
		} else {
			st = &wmeState{}
		}
		n.states[w.TimeTag] = st
	}
	return st
}

// lookup returns w's match state, or nil when it has none.
func (n *Network) lookup(w *wm.WME) *wmeState {
	if w.TimeTag >= len(n.states) {
		return nil
	}
	return n.states[w.TimeTag]
}

// allocToken returns a zeroed token from the free list, the borrowed
// arena, or the heap, in that order.
func (n *Network) allocToken() *Token {
	if k := len(n.tokenPool); k > 0 {
		tok := n.tokenPool[k-1]
		n.tokenPool = n.tokenPool[:k-1]
		return tok
	}
	if a := n.arena; a != nil {
		return a.tokens.take()
	}
	return &Token{}
}

// newNegState returns a zeroed negative-node state: from the borrowed
// arena's free list or slab, or for an owning instance from the heap.
func (n *Network) newNegState() *negState {
	a := n.arena
	if a == nil {
		return &negState{}
	}
	if k := len(a.negPool); k > 0 {
		g := a.negPool[k-1]
		a.negPool = a.negPool[:k-1]
		return g
	}
	return a.negStates.take()
}

func (n *Network) newJoinResult() *negJoinResult {
	if a := n.arena; a != nil {
		return a.joinResults.take()
	}
	return &negJoinResult{}
}

func (n *Network) newToken(holder tokenHolder, parent *Token, w *wm.WME, level int) *Token {
	n.charge(CostTokenOp)
	n.totals.TokensCreated++
	n.liveTokens++
	if n.liveTokens > n.peakTokens {
		n.peakTokens = n.liveTokens
	}
	tok := n.allocToken()
	tok.parent = parent
	tok.W = w
	tok.level = int32(level)
	tok.node = holder
	if parent != nil {
		parent.appendChild(tok)
	}
	if w != nil {
		n.state(w).pushToken(tok)
	}
	return tok
}

// Add asserts a WME into the network. Each alpha memory is activated
// completely — insert, then right-activate its successors — before the
// next alpha memory sees the WME. The discipline matters: if the WME
// were inserted into every memory first, a beta cascade triggered by
// an earlier condition element would find the WME already present in a
// later element's memory and the later memory's own right activation
// would pair it a second time, duplicating instantiations.
//
// The candidates are the memories of the WME's class that can accept
// it: every memory, for a class no pattern declares Consts of (the
// sweep), else the memories the class's dispatch (dispatch.go) names
// for the WME's value, in class order. Only candidates run their
// filters. Every memory of the class is still charged one activation
// and one constant test: a capturing network emits each in class order,
// a non-candidate's exactly as its failing filter would have left it;
// otherwise the whole charge is one step.
func (n *Network) Add(w *wm.WME) {
	cn := n.tmpl.nodesOf(w.Class)
	if cn == nil {
		return
	}
	cands := cn.mems
	walk := true // every memory of the class, one activation each
	if d := cn.dispatch; d != nil {
		var keyed bool
		if cands, keyed = d.byKey[keyOf(w.GetAt(d.attr))]; !keyed {
			cands = d.residual // no memory is keyed on w's value
		}
		if walk = n.capturing; !walk {
			n.totals.Activations += len(cn.mems)
			n.totals.ConstTests += len(cn.mems)
			n.totals.Cost += d.sweepCost
		}
	}
	mems := cands
	if walk {
		mems = cn.mems
	}
	for _, am := range mems {
		if walk {
			n.beginBase(am.actLabel, CostAlphaScan)
			n.charge(am.filterCost)
			n.totals.ConstTests++
			if len(cands) == 0 || cands[0] != am {
				n.end() // not a candidate: its filter would reject w
				continue
			}
			cands = cands[1:]
		}
		ok := am.filter == nil || am.filter(w)
		if ok {
			n.charge(CostAlphaMemOp)
			am.insert(w, n)
		}
		n.end()
		if ok {
			// Right-activate before the next alpha memory sees w (see
			// the duplicate-pairing note above); the cascades are
			// independent root activations for the match scheduler.
			// Successors run newest-first so that within a chain
			// descendants right-activate before ancestors (see
			// AddProduction).
			// A successor whose token store is empty makes a null
			// activation (see nullActivation).
			for i := len(am.successors) - 1; i >= 0; i-- {
				sc := am.successors[i]
				if !n.capturing && n.storeItems[sc.store].head == nil {
					n.nullActivation()
					continue
				}
				sc.node.rightActivate(w, n)
			}
		}
	}
}

// Remove retracts a WME from the network.
func (n *Network) Remove(w *wm.WME) {
	st := n.lookup(w)
	if st == nil {
		return
	}
	// A WME has state only after an alpha memory of its class accepted
	// it, so the class is known to the template.
	labels := n.tmpl.nodesOf(w.Class)
	n.begin(labels.retract)
	for ref := st.refHead; ref != nil; ref = ref.next {
		n.charge(CostAlphaMemOp)
		ref.am.removeRef(ref, n)
	}
	n.end()
	// Delete tokens referencing w (the token trees rooted at each).
	// Each root deletion is a schedulable node activation: ParaOPS5
	// parallelizes retraction the same way as assertion.
	for st.tokTail != nil {
		tok := st.tokTail
		n.begin(labels.retractTok)
		n.deleteToken(tok)
		n.end()
	}
	// Negative join results: conditions that were blocked by w may now
	// succeed. No join result can be added to w here (it is gone from
	// every alpha memory) and the unblock cascades only create tokens,
	// so walking the intrusive list is safe.
	for jr := st.jrHead; jr != nil; jr = jr.wmeNext {
		owner := jr.owner
		owner.neg.unlinkJR(jr)
		n.begin(labels.negUnblock)
		n.charge(CostNegJoinResult)
		if !owner.neg.blocked() {
			for _, c := range owner.node.(*negativeNode).children {
				c.leftActivateToken(owner, n)
			}
		}
		n.end()
	}
	n.states[w.TimeTag] = nil
}

func (n *Network) deleteToken(tok *Token) {
	for tok.lastChild != nil {
		n.deleteToken(tok.lastChild)
	}
	n.charge(CostTokenOp)
	n.totals.TokensDeleted++
	n.liveTokens--
	if p, ok := tok.node.(*PNode); ok {
		n.charge(CostAgendaOp)
		n.agenda.Deactivate(p, tok)
	}
	tok.node.removeToken(tok, n)
	if tok.W != nil {
		if st := n.lookup(tok.W); st != nil {
			st.unlinkToken(tok)
		}
	}
	if g := tok.neg; g != nil {
		n.leaveBridge(tok)
		for jr := g.jrHead; jr != nil; {
			next := jr.ownerNext
			if st := n.lookup(jr.wme); st != nil {
				st.unlinkJR(jr)
			}
			jr = next
		}
		g.jrHead, g.jrTail = nil, nil
	}
	if tok.parent != nil {
		tok.parent.removeChild(tok)
	}
	// Rest in the graveyard until the next StartBatch: the engine may
	// still read this (fired) instantiation's bindings while its RHS
	// executes.
	n.graveyard = append(n.graveyard, tok)
}
