package ops5

import (
	"testing"

	"spampsm/internal/symtab"
)

// BenchmarkRecognizeActCycle measures raw engine throughput on the
// counter loop (one modify per firing).
func BenchmarkRecognizeActCycle(b *testing.B) {
	prog := MustParse(`
(literalize count n limit)
(p step (count ^n <n> ^limit > <n>) --> (modify 1 ^n (compute <n> + 1)))
`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Assert("count", map[string]symtab.Value{
			"n": symtab.Int(0), "limit": symtab.Int(1000),
		}); err != nil {
			b.Fatal(err)
		}
		fired, err := e.Run(0)
		if err != nil || fired != 1000 {
			b.Fatalf("fired %d err %v", fired, err)
		}
	}
}

// BenchmarkJoinHeavyMatch measures a join-heavy workload: each firing
// re-matches a three-way join over a populated working memory.
func BenchmarkJoinHeavyMatch(b *testing.B) {
	prog := MustParse(`
(literalize tick n limit)
(literalize item id group val)
(p drive (tick ^n <n> ^limit > <n>) --> (modify 1 ^n (compute <n> + 1)))
`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(prog)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 200; j++ {
			e.Assert("item", map[string]symtab.Value{
				"id": symtab.Int(int64(j)), "group": symtab.Int(int64(j % 8)),
				"val": symtab.Int(int64(-j)),
			})
		}
		e.Assert("tick", map[string]symtab.Value{"n": symtab.Int(0), "limit": symtab.Int(200)})
		if _, err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProgram returns the mid-sized 40-rule program used by the
// engine-construction benchmarks.
func benchProgram() *Program {
	src := `
(literalize a x y z)
(literalize b u v w)
`
	for i := 0; i < 40; i++ {
		src += `
(p rule` + string(rune('a'+i%26)) + string(rune('0'+i/26)) + `
   (a ^x <x> ^y > 3)
   (b ^u <x> ^v <> <x>)
 - (b ^w <x>)
  -->
   (make a ^x (compute <x> + 1)))
`
	}
	return MustParse(src)
}

// freshEngine builds an engine on a private compile of prog, bypassing
// the Program's compiled-variant cache: the pre-template cost of
// NewEngine.
func freshEngine(prog *Program) error {
	cp, err := compileVariant(prog, false, false)
	if err == nil {
		_, err = cp.NewEngine()
	}
	return err
}

// BenchmarkCompile measures production-memory compilation (Rete
// template construction) for a mid-sized program: every iteration pays
// the full compile.
func BenchmarkCompile(b *testing.B) {
	prog := benchProgram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := freshEngine(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBuild contrasts the two ways a task engine comes into
// existence: "recompile" builds the Rete network from scratch per
// engine (the pre-template behavior), while "instantiate" reuses the
// Program's cached compiled template and pays only O(nodes) state
// setup. The ratio is the per-task saving of the compile-once design.
func BenchmarkEngineBuild(b *testing.B) {
	prog := benchProgram()
	b.Run("recompile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := freshEngine(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instantiate", func(b *testing.B) {
		if _, err := NewEngine(prog); err != nil { // warm the variant cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewEngine(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
}
