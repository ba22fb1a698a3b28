// Package wm implements OPS5 working memory: element classes declared
// with literalize, working memory elements (WMEs) as attribute-value
// records, and timetags.
//
// Vector attributes are not supported (SPAM's knowledge base uses
// scalar attributes only); literalize declares a fixed set of scalar
// attributes per class.
package wm

import (
	"fmt"
	"sort"
	"strings"

	"spampsm/internal/symtab"
)

// ClassDef describes an element class: its name and attribute names in
// declaration order.
type ClassDef struct {
	Name  string
	Attrs []string
	index map[string]int
}

// NewClassDef builds a class definition. Attribute names must be unique.
func NewClassDef(name string, attrs ...string) (*ClassDef, error) {
	c := &ClassDef{Name: name, Attrs: attrs, index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if _, dup := c.index[a]; dup {
			return nil, fmt.Errorf("wm: class %s: duplicate attribute %s", name, a)
		}
		c.index[a] = i
	}
	return c, nil
}

// AttrIndex returns the slot index of an attribute, or -1 if the class
// has no such attribute.
func (c *ClassDef) AttrIndex(attr string) int {
	if i, ok := c.index[attr]; ok {
		return i
	}
	return -1
}

// NumAttrs returns the number of declared attributes.
func (c *ClassDef) NumAttrs() int { return len(c.Attrs) }

// Classes is a registry of element classes.
type Classes struct {
	byName map[string]*ClassDef
}

// NewClasses returns an empty registry.
func NewClasses() *Classes { return &Classes{byName: make(map[string]*ClassDef)} }

// Declare registers a class (the literalize declaration). Re-declaring
// an existing class name is an error.
func (cs *Classes) Declare(name string, attrs ...string) (*ClassDef, error) {
	if _, dup := cs.byName[name]; dup {
		return nil, fmt.Errorf("wm: class %s already declared", name)
	}
	c, err := NewClassDef(name, attrs...)
	if err != nil {
		return nil, err
	}
	cs.byName[name] = c
	return c, nil
}

// Lookup returns the class with the given name, or nil.
func (cs *Classes) Lookup(name string) *ClassDef { return cs.byName[name] }

// Names returns all declared class names, sorted.
func (cs *Classes) Names() []string {
	out := make([]string, 0, len(cs.byName))
	for n := range cs.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WME is a working memory element: an instance of a class with one
// value per declared attribute and a creation timetag. WMEs are
// immutable once asserted; OPS5 modify is remove-then-make.
type WME struct {
	Class   *ClassDef
	Vals    []symtab.Value
	TimeTag int
}

// Get returns the value of the named attribute (Nil for undeclared or
// unset attributes).
func (w *WME) Get(attr string) symtab.Value {
	i := w.Class.AttrIndex(attr)
	if i < 0 {
		return symtab.Nil
	}
	return w.Vals[i]
}

// GetAt returns the value at slot index i.
func (w *WME) GetAt(i int) symtab.Value {
	if i < 0 || i >= len(w.Vals) {
		return symtab.Nil
	}
	return w.Vals[i]
}

// String renders the WME in OPS5 display form.
func (w *WME) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s", w.Class.Name)
	for i, a := range w.Class.Attrs {
		if !w.Vals[i].IsNil() {
			fmt.Fprintf(&b, " ^%s %s", a, w.Vals[i])
		}
	}
	b.WriteString(")")
	return b.String()
}

// Modeled WME memory footprint, in simulated bytes. Like the NS32332
// instruction costs in internal/rete, these are round model constants,
// not Go heap measurements: a WME record (class pointer, timetag,
// value-vector header) plus one slot per declared attribute. They only
// need to be consistent across tasks and policies — scheduling compares
// footprints, it never allocates them.
const (
	// WMEBaseBytes is the fixed per-WME record overhead.
	WMEBaseBytes = 64
	// SlotBytes is the cost of one attribute slot.
	SlotBytes = 16
)

// WMEBytes returns the modeled footprint of a WME with n attribute
// slots.
func WMEBytes(n int) float64 { return float64(WMEBaseBytes + n*SlotBytes) }

// Arena supplies a Memory's records: WME structs and value vectors,
// zeroed. A memory that borrows them (NewMemoryIn) holds them until the
// lender takes everything back at once (Memory.Release) — a task
// worker's match arena is such a lender (rete.Scratch, through its
// borrowing rete.Network); NewMemory's draws on the heap.
type Arena interface {
	NewWME() *WME
	NewVals(n int) []symtab.Value
}

type heap struct{}

func (heap) NewWME() *WME                 { return new(WME) }
func (heap) NewVals(n int) []symtab.Value { return make([]symtab.Value, n) }

// Memory is a working memory: the live set of WMEs keyed by timetag.
type Memory struct {
	classes *Classes
	arena   Arena // where WME structs and value vectors come from
	// byTag[t] is the live WME with timetag t, nil once removed. Tags are
	// dense (1, 2, 3…; slot 0 stays empty), so the next tag is the
	// slice's length and a walk is in tag order. The price is 8 bytes per
	// WME ever made, which a long ops5run session pays for its removed
	// ones too.
	byTag []*WME
	live  int

	// Peak-occupancy accounting for the memory-aware scheduler: the
	// high-water mark of live WMEs and of their modeled footprint.
	// Asserts and retracts are sequential within one engine, so plain
	// fields suffice.
	liveBytes float64
	peakBytes float64
	peakSize  int
}

// NewMemory returns an empty working memory over the given classes.
func NewMemory(classes *Classes) *Memory {
	return NewMemoryIn(classes, heap{}, nil)
}

// NewMemoryIn returns an empty working memory that draws its WME
// structs and the vectors NewVals hands out from a, and grows its tag
// table on the lent backing array tags. Everything it holds is a loan:
// Release ends it.
func NewMemoryIn(classes *Classes, a Arena, tags []*WME) *Memory {
	return &Memory{classes: classes, arena: a, byTag: append(tags[:0], nil)}
}

// Release ends a borrowing memory's loan: it forgets every WME — a
// released memory is empty, with its peaks intact — and returns the
// tag table's backing array, cleared, for the lender to keep. The
// memory must not be asserted into afterwards.
func (m *Memory) Release() []*WME {
	tags := m.byTag
	clear(tags)
	m.byTag, m.live, m.liveBytes = nil, 0, 0
	return tags[:0]
}

// NewVals returns a zeroed value vector for a WME the caller is about
// to make with MakeVals: from the arena of a borrowing memory, from the
// heap otherwise.
func (m *Memory) NewVals(n int) []symtab.Value { return m.arena.NewVals(n) }

// Classes returns the registry the memory was built over.
func (m *Memory) Classes() *Classes { return m.classes }

// Make asserts a new WME of the named class. Unset attributes are Nil.
func (m *Memory) Make(class string, sets map[string]symtab.Value) (*WME, error) {
	c := m.classes.Lookup(class)
	if c == nil {
		return nil, fmt.Errorf("wm: make of undeclared class %s", class)
	}
	vals := m.NewVals(c.NumAttrs())
	for a, v := range sets {
		i := c.AttrIndex(a)
		if i < 0 {
			return nil, fmt.Errorf("wm: class %s has no attribute %s", class, a)
		}
		vals[i] = v
	}
	return m.assert(c, vals), nil
}

// MakeVals asserts a new WME of the named class from a slot-ordered
// value vector, adopting vals without copying. The caller must never
// mutate vals afterwards — WMEs are immutable (a modify is remove +
// make), so one vector may safely back WMEs in any number of memories;
// that sharing is what makes batched seed distribution cheap.
func (m *Memory) MakeVals(class string, vals []symtab.Value) (*WME, error) {
	c := m.classes.Lookup(class)
	if c == nil {
		return nil, fmt.Errorf("wm: make of undeclared class %s", class)
	}
	if len(vals) != c.NumAttrs() {
		return nil, fmt.Errorf("wm: class %s has %d attributes, got %d values",
			class, c.NumAttrs(), len(vals))
	}
	return m.assert(c, vals), nil
}

// assert gives vals the next timetag and records the new WME against
// the high-water marks.
func (m *Memory) assert(c *ClassDef, vals []symtab.Value) *WME {
	w := m.arena.NewWME()
	*w = WME{Class: c, Vals: vals, TimeTag: len(m.byTag)}
	m.byTag = append(m.byTag, w)
	m.live++
	m.liveBytes += WMEBytes(len(vals))
	if m.liveBytes > m.peakBytes {
		m.peakBytes = m.liveBytes
	}
	if m.live > m.peakSize {
		m.peakSize = m.live
	}
	return w
}

// Remove retracts a WME. Removing a WME not in memory is an error
// (OPS5 signals this too).
func (m *Memory) Remove(w *WME) error {
	if t := w.TimeTag; t <= 0 || t >= len(m.byTag) || m.byTag[t] != w {
		return fmt.Errorf("wm: remove of absent wme (timetag %d)", w.TimeTag)
	}
	m.byTag[w.TimeTag] = nil
	m.live--
	m.liveBytes -= WMEBytes(len(w.Vals))
	return nil
}

// Size returns the number of live WMEs.
func (m *Memory) Size() int { return m.live }

// PeakSize returns the high-water mark of live WMEs.
func (m *Memory) PeakSize() int { return m.peakSize }

// PeakBytes returns the high-water mark of the modeled WME footprint
// (WMEBytes summed over the largest simultaneously-live set).
func (m *Memory) PeakBytes() float64 { return m.peakBytes }

// Snapshot returns the live WMEs ordered by timetag.
func (m *Memory) Snapshot() []*WME {
	out := make([]*WME, 0, m.live)
	for _, w := range m.byTag {
		if w != nil {
			out = append(out, w)
		}
	}
	return out
}

// OfClass returns the live WMEs of a class, ordered by timetag.
func (m *Memory) OfClass(class string) []*WME {
	c := m.classes.Lookup(class)
	var out []*WME
	for _, w := range m.byTag {
		if w != nil && w.Class == c {
			out = append(out, w)
		}
	}
	return out
}

// CopyClasses returns the live WMEs of the named classes, per class in
// timetag order, as copies that share nothing with the memory: one WME
// array and one value array per class, each exactly as large as its
// rows. It is what outlives a borrowing memory — result extraction
// copies the few classes it reads before the loan ends. A name that is
// not a declared class, or has no live WME, maps to nil.
func (m *Memory) CopyClasses(names []string) map[string][]*WME {
	out := make(map[string][]*WME, len(names))
	for _, name := range names {
		rows, slots := m.OfClass(name), 0
		for _, w := range rows {
			slots += len(w.Vals)
		}
		recs, vals := make([]WME, len(rows)), make([]symtab.Value, slots)
		for i, w := range rows {
			k := copy(vals, w.Vals)
			recs[i] = WME{Class: w.Class, Vals: vals[:k:k], TimeTag: w.TimeTag}
			rows[i], vals = &recs[i], vals[k:]
		}
		out[name] = rows
	}
	return out
}
