// Seed working memory. A task runtime loads every engine with a seed
// working memory before Run; Assert pays a map-backed wm.Make per WME.
// A seed row is instead a Seed — a class and its slot-ordered vector —
// that the engine adopts as it stands (AssertSeed). Its assembler
// writes rows straight into a SeedSink: an engine, whose plain rows
// take their vectors from its working memory (and so from its worker's
// arena, see WithScratch), or any other consumer of a task's rows. The
// simulated cost accounting is Assert's, row for row (the differential
// oracles prove byte equality).
package ops5

import (
	"fmt"
	"slices"

	"spampsm/internal/rete"
	"spampsm/internal/symtab"
)

// A Seed is one prebuilt seed WME: a class and its slot-ordered value
// vector, adopted as it stands by the engine it is asserted into
// (wm.Memory.MakeVals). A plain row's vector comes from its sink
// (SeedSink.NewVals) and backs that one WME. A non-empty Digest
// (SharedSeed) declares the seed reusable across tasks and names its
// content: its vector is built once, is immutable, and backs the WME in
// every engine the row is asserted into; the cluster ships such a row
// once per worker and refers to it by digest afterwards. An engine
// loads both kinds alike.
type Seed struct {
	Class  string
	Vals   []symtab.Value
	Digest string
}

// SeedClass is the slot layout of one declared class, cached on the
// Program so builders resolve attribute names to slots once per class
// rather than once per assertion.
type SeedClass struct {
	name  string
	slots map[string]int
	nAttr int
}

// Name returns the declared class name.
func (sc *SeedClass) Name() string { return sc.name }

// SeedClass returns the (cached) slot layout of the named declared
// class. Safe for concurrent use.
func (pr *Program) SeedClass(name string) (*SeedClass, error) {
	pr.seedMu.Lock()
	defer pr.seedMu.Unlock()
	return pr.seedClass(name)
}

// seedClass is SeedClass with seedMu held.
func (pr *Program) seedClass(name string) (*SeedClass, error) {
	if sc, ok := pr.seedClasses[name]; ok {
		return sc, nil
	}
	for _, c := range pr.Classes {
		if c.Name != name {
			continue
		}
		sc := &SeedClass{name: name, slots: make(map[string]int, len(c.Attrs)), nAttr: len(c.Attrs)}
		for i, a := range c.Attrs {
			sc.slots[a] = i
		}
		if pr.seedClasses == nil {
			pr.seedClasses = map[string]*SeedClass{}
		}
		pr.seedClasses[name] = sc
		return sc, nil
	}
	return nil, fmt.Errorf("ops5: seed of undeclared class %s", name)
}

// Seed builds a plain (per-task) seed: unset attributes are Nil, as in
// Assert. Use SharedSeed for values that recur across engines. Of
// several undeclared attributes, the error names the lexically first.
func (sc *SeedClass) Seed(sets map[string]symtab.Value) (Seed, error) {
	vals := make([]symtab.Value, sc.nAttr)
	for a, v := range sets {
		i, ok := sc.slots[a]
		if !ok {
			for b := range sets {
				if _, ok := sc.slots[b]; !ok && b < a {
					a = b
				}
			}
			return Seed{}, fmt.Errorf("ops5: class %s has no attribute %s", sc.name, a)
		}
		vals[i] = v
	}
	return Seed{Class: sc.name, Vals: vals}, nil
}

// SharedSeed builds a seed declared shareable across tasks: its digest
// is computed here, once, for every consumer that addresses the row by
// content.
func (sc *SeedClass) SharedSeed(sets map[string]symtab.Value) (Seed, error) {
	s, err := sc.Seed(sets)
	if err != nil {
		return Seed{}, err
	}
	s.Digest = rete.RouteDigest(s.Class, s.Vals)
	return s, nil
}

// SeedRow is a SeedClass with one attribute list resolved to slots: a
// builder that assembles many rows of one shape resolves the names once
// and then fills value vectors by position.
type SeedRow struct {
	class *SeedClass
	attrs []string
	slots []int
}

// SeedRow returns the (cached) shape of one kind of plain row of the
// named declared class: the attributes its values set, in the order Put
// takes them. Safe for concurrent use.
func (pr *Program) SeedRow(class string, attrs ...string) (*SeedRow, error) {
	pr.seedMu.Lock()
	defer pr.seedMu.Unlock()
	for _, r := range pr.seedRows {
		if r.class.name == class && slices.Equal(r.attrs, attrs) {
			return r, nil
		}
	}
	sc, err := pr.seedClass(class)
	if err != nil {
		return nil, err
	}
	r := &SeedRow{class: sc, attrs: slices.Clone(attrs), slots: make([]int, len(attrs))}
	for i, a := range attrs {
		slot, ok := sc.slots[a]
		if !ok {
			return nil, fmt.Errorf("ops5: class %s has no attribute %s", sc.name, a)
		}
		r.slots[i] = slot
	}
	pr.seedRows = append(pr.seedRows, r)
	return r, nil
}

// Put writes one row of the shape into the sink: the vector the sink
// hands out, unset attributes Nil as in Assert, one value per attribute
// the shape names.
func (r *SeedRow) Put(sink SeedSink, vals ...symtab.Value) error {
	out := sink.NewVals(r.class.nAttr)
	for i, slot := range r.slots {
		out[slot] = vals[i]
	}
	return sink.AssertSeed(Seed{Class: r.class.name, Vals: out})
}

// A SeedSink takes a task's seed rows one at a time, in assertion
// order. NewVals hands out the zeroed vector a plain row is written
// into, and AssertSeed takes the row, adopting that vector. An Engine
// is the sink a task's own rows go to.
type SeedSink interface {
	NewVals(n int) []symtab.Value
	AssertSeed(Seed) error
}

// NewVals returns a zeroed vector from the engine's working memory: a
// borrowing engine's comes from its worker's arena and goes back with
// it at Settle.
func (e *Engine) NewVals(n int) []symtab.Value { return e.mem.NewVals(n) }

// AssertSeed asserts one seed row, adopting its vector: the same WME,
// timetag, conflict set, Counters and Init charge as asserting the row
// with Assert, without the attribute map.
func (e *Engine) AssertSeed(s Seed) error {
	if err := e.mutable("AssertSeed"); err != nil {
		return err
	}
	w, err := e.mem.MakeVals(s.Class, s.Vals)
	if err != nil {
		return err
	}
	e.seed(w)
	return nil
}

// AssertBatch asserts a seed set in order with AssertSeed.
func (e *Engine) AssertBatch(seeds []Seed) error {
	if err := e.mutable("AssertBatch"); err != nil {
		return err
	}
	for _, s := range seeds {
		if err := e.AssertSeed(s); err != nil {
			return err
		}
	}
	return nil
}
