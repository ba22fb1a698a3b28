package ops5

import (
	"fmt"
	"testing"

	"spampsm/internal/symtab"
)

// seedProgram returns a 40-rule program whose rules carry 40 distinct
// constant-test signatures over one class, so every seed WME must be
// routed through 40 alpha memories — the alpha-network shape that
// makes seed distribution expensive.
func seedProgram() *Program {
	src := `
(literalize item kind size flag)
(literalize out n)
`
	for i := 0; i < 40; i++ {
		src += fmt.Sprintf("(p r%d (item ^kind k%d ^size > %d) --> (make out ^n %d))\n",
			i, i%8, i*10, i)
	}
	return MustParse(src)
}

// BenchmarkSeedLoad contrasts the ways a task engine's seed working
// memory is loaded: "unbatched" asserts each WME with Assert (a
// per-assertion attribute map and a fresh vector), "batched" asserts
// ready-made shared seeds with AssertBatch, adopting their vectors, and
// "batched-sweep" does the same on the naive template, whose Add offers
// each seed to all 40 alpha memories instead of dispatching it to the
// five keyed on its ^kind. The simulated Counters are byte-identical
// all three ways (see the seed differential oracles).
func BenchmarkSeedLoad(b *testing.B) {
	prog := seedProgram()
	sc, err := prog.SeedClass("item")
	if err != nil {
		b.Fatal(err)
	}
	// Mostly-rejected seeds — the realistic shape: a task's fragments
	// are relevant to a handful of its rules, but the per-WME path
	// still walks every rule's constant tests for every one of them.
	var seeds []Seed
	var sets []map[string]symtab.Value
	for i := 0; i < 64; i++ {
		m := map[string]symtab.Value{
			"kind": symtab.Sym(fmt.Sprintf("k%d", i%8)),
			"size": symtab.Int(int64(i % 13)),
			"flag": symtab.Sym("t"),
		}
		s, err := sc.SharedSeed(m)
		if err != nil {
			b.Fatal(err)
		}
		seeds = append(seeds, s)
		sets = append(sets, m)
	}

	b.Run("unbatched", func(b *testing.B) {
		if _, err := NewEngine(prog); err != nil { // warm the variant cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := NewEngine(prog)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range sets {
				if _, err := e.Assert("item", m); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	batched := func(opts ...Option) func(*testing.B) {
		return func(b *testing.B) {
			if _, err := NewEngine(prog, opts...); err != nil { // warm the variant cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := NewEngine(prog, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.AssertBatch(seeds); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("batched", batched())
	b.Run("batched-sweep", batched(WithNaiveMatch()))
}
