// Batched seed-WM distribution. A task runtime loads every engine
// with a seed working memory before Run; Assert pays a map-backed
// wm.Make plus a full alpha-network walk per WME. AssertBatch instead
// takes prebuilt Seed values — slot-ordered vectors the caller
// constructs once and shares across every engine that needs them — and
// hands the whole set to rete.Network.InsertBatch, which routes shared
// seeds through the compiled template's memoized acceptance sets. The
// simulated cost accounting is unchanged (the batch's Init charge is
// the sum of the per-Assert charges; the differential oracles prove
// byte equality).
package ops5

import (
	"fmt"

	"spampsm/internal/rete"
	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// WithPerWMEAssert makes AssertBatch fall back to the per-WME Assert
// path (individual wm.Make + Network.Add, no route memoization): the
// escape hatch the batched-vs-unbatched differential oracle and the
// seed-load benchmark baseline select.
func WithPerWMEAssert() Option { return func(e *Engine) { e.perWMEAssert = true } }

// A Seed is one prebuilt seed WME: a class and its slot-ordered value
// vector. Vals is immutable once built — it is adopted directly by
// every engine the seed is asserted into (wm.Memory.MakeVals), so one
// vector backs the WME in all of them. A non-empty Digest (SharedSeed)
// declares the seed reusable across engines and routes it through the
// compiled template's memoized alpha acceptance sets; a plain Seed
// (empty Digest) is asserted by an ordinary alpha-network walk and
// never populates the route cache.
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

// SharedSeed builds a seed declared shareable across engines: its
// routing digest is computed here, once, so every engine that asserts
// it replays the template's memoized alpha acceptance set instead of
// re-running the constant tests.
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
// timetags, same conflict set, same Counters, same Init charge. The
// batch path builds the WMEs without per-assertion attribute maps and
// lets shared seeds (non-empty Digest) skip the constant-test walk via
// the template route memo; WithPerWMEAssert selects the reference
// per-WME path instead.
func (e *Engine) AssertBatch(seeds []Seed) error {
	if err := e.mutable("AssertBatch"); err != nil {
		return err
	}
	if e.perWMEAssert {
		for _, s := range seeds {
			w, err := e.mem.MakeVals(s.Class, s.Vals)
			if err != nil {
				return err
			}
			before := e.net.Totals().Cost
			e.net.Add(w)
			e.log.Init += e.net.Totals().Cost - before
			e.log.Mem.SeedWMEs++
			e.log.Mem.SeedBytes += wm.WMEBytes(len(w.Vals))
		}
		e.syncMem()
		return nil
	}
	wmes := e.batchWMEs[:0]
	digests := e.batchDigests[:0]
	for _, s := range seeds {
		w, err := e.mem.MakeVals(s.Class, s.Vals)
		if err != nil {
			return err
		}
		wmes = append(wmes, w)
		digests = append(digests, s.Digest)
		e.log.Mem.SeedWMEs++
		e.log.Mem.SeedBytes += wm.WMEBytes(len(s.Vals))
	}
	before := e.net.Totals().Cost
	e.net.InsertBatch(wmes, digests)
	e.log.Init += e.net.Totals().Cost - before
	e.batchWMEs = wmes[:0]
	e.batchDigests = digests[:0]
	e.syncMem()
	return nil
}
