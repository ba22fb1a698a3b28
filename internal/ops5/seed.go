// Seed working memory. A task runtime loads every engine with a seed
// working memory before Run; Assert pays a map-backed wm.Make per WME.
// AssertBatch instead takes prebuilt Seed values — slot-ordered vectors
// the caller constructs once and shares across every engine that needs
// them — and adopts each vector as it stands. The simulated cost
// accounting is unchanged (the batch's Init charge is the sum of the
// per-Assert charges; the differential oracles prove byte equality).
package ops5

import (
	"fmt"

	"spampsm/internal/rete"
	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// A Seed is one prebuilt seed WME: a class and its slot-ordered value
// vector. Vals is immutable once built — it is adopted directly by
// every engine the seed is asserted into (wm.Memory.MakeVals), so one
// vector backs the WME in all of them. A non-empty Digest (SharedSeed)
// declares the seed reusable across tasks and names its content: the
// cluster ships such a row once per worker and refers to it by digest
// afterwards. An engine loads both kinds alike.
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
// Assert. Use SharedSeed for values that recur across engines.
func (sc *SeedClass) Seed(sets map[string]symtab.Value) (Seed, error) {
	vals := make([]symtab.Value, sc.nAttr)
	for a, v := range sets {
		i, ok := sc.slots[a]
		if !ok {
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
	slots []int
}

// Row resolves the attributes a kind of row sets, in the order its
// values will be given.
func (sc *SeedClass) Row(attrs ...string) (*SeedRow, error) {
	r := &SeedRow{class: sc, slots: make([]int, len(attrs))}
	for i, a := range attrs {
		slot, ok := sc.slots[a]
		if !ok {
			return nil, fmt.Errorf("ops5: class %s has no attribute %s", sc.name, a)
		}
		r.slots[i] = slot
	}
	return r, nil
}

// Seed builds the plain seed SeedClass.Seed builds from the same
// attribute/value pairs, one value per attribute Row named.
func (r *SeedRow) Seed(vals ...symtab.Value) Seed {
	out := make([]symtab.Value, r.class.nAttr)
	for i, slot := range r.slots {
		out[slot] = vals[i]
	}
	return Seed{Class: r.class.name, Vals: out}
}

// AssertBatch asserts a seed set into working memory, semantically
// identical to asserting each seed in order with Assert: same WMEs and
// timetags, same conflict set, same Counters, same Init charge — without
// the per-assertion attribute map, and adopting each seed's vector
// instead of copying it.
func (e *Engine) AssertBatch(seeds []Seed) error {
	if err := e.mutable("AssertBatch"); err != nil {
		return err
	}
	before := e.net.Totals().Cost
	for _, s := range seeds {
		w, err := e.mem.MakeVals(s.Class, s.Vals)
		if err != nil {
			return err
		}
		e.net.Add(w)
		e.log.Mem.SeedWMEs++
		e.log.Mem.SeedBytes += wm.WMEBytes(len(s.Vals))
	}
	e.log.Init += e.net.Totals().Cost - before
	e.syncMem()
	return nil
}
