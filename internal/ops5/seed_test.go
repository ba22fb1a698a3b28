package ops5

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spampsm/internal/symtab"
)

// Engine-level seed-load oracle: AssertBatch — on its own or freely
// interleaved with Assert — must leave the engine in the identical
// state as asserting every row with Assert:
// same working-memory snapshot and timetags, same conflict set, same
// match counters and Init charge, and the same subsequent run.

// seedRow is one seed WM row in both spellings: the Assert argument
// map and the ready-made Seed.
type seedRow struct {
	class string
	sets  map[string]symtab.Value
	seed  Seed
}

// diffSeedRows builds the diffPrograms seed WM as rows. Node rows are
// built as shared seeds (with a digest), link rows as plain ones: an
// engine must load both alike.
func diffSeedRows(t *testing.T, prog *Program) []seedRow {
	t.Helper()
	var rows []seedRow
	add := func(class string, shared bool, sets map[string]symtab.Value) {
		sc, err := prog.SeedClass(class)
		if err != nil {
			t.Fatal(err)
		}
		var s Seed
		if shared {
			s, err = sc.SharedSeed(sets)
		} else {
			s, err = sc.Seed(sets)
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, seedRow{class: class, sets: sets, seed: s})
	}
	colors := []string{"blue", "red", "blue", "green", "blue", "red"}
	for i := 0; i < 6; i++ {
		add("node", true, map[string]symtab.Value{
			"id": symtab.Int(int64(i)), "color": symtab.Sym(colors[i]),
		})
	}
	if hasClass(prog, "link") {
		for _, l := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}, {2, 0}} {
			add("link", false, map[string]symtab.Value{
				"from": symtab.Int(int64(l[0])), "to": symtab.Int(int64(l[1])),
			})
		}
	}
	return rows
}

func hasClass(prog *Program, name string) bool {
	for _, c := range prog.Classes {
		if c.Name == name {
			return true
		}
	}
	return false
}

// engineState snapshots everything the oracle compares.
type engineState struct {
	dump     string
	conflict []string
	counters string
	init     float64
	timetags []int
}

func snapshot(e *Engine) engineState {
	var dump bytes.Buffer
	e.DumpWM(&dump)
	var tags []int
	for _, w := range e.WMEs("node") {
		tags = append(tags, w.TimeTag)
	}
	return engineState{
		dump:     dump.String(),
		conflict: e.ConflictSet(),
		counters: fmt.Sprintf("%+v", e.MatchCounters()),
		init:     e.Log().Init,
		timetags: tags,
	}
}

func statesEqual(t *testing.T, label string, ref, got engineState) {
	t.Helper()
	if ref.dump != got.dump {
		t.Errorf("%s: WM snapshot differs:\nref:\n%s\ngot:\n%s", label, ref.dump, got.dump)
	}
	if !reflect.DeepEqual(ref.conflict, got.conflict) {
		t.Errorf("%s: conflict set differs:\nref: %v\ngot: %v", label, ref.conflict, got.conflict)
	}
	if ref.counters != got.counters {
		t.Errorf("%s: match counters differ:\nref: %s\ngot: %s", label, ref.counters, got.counters)
	}
	if ref.init != got.init {
		t.Errorf("%s: Init charge differs: ref=%g got=%g", label, ref.init, got.init)
	}
	if !reflect.DeepEqual(ref.timetags, got.timetags) {
		t.Errorf("%s: timetags differ: ref=%v got=%v", label, ref.timetags, got.timetags)
	}
}

// TestDifferentialAssertBatchVsAssert loads the same seed set by
// per-row Assert and by AssertBatch, on the production engine (whose
// Add dispatches on constant tests) and the reference one (whose Add
// sweeps), then runs each engine to quiescence. All must agree on WM,
// conflict set, counters, Init, firing trace and run statistics.
func TestDifferentialAssertBatchVsAssert(t *testing.T) {
	for _, tc := range diffPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			rows := diffSeedRows(t, prog)

			load := func(name string, opts ...Option) (*Engine, *bytes.Buffer, engineState) {
				var trace bytes.Buffer
				e, err := NewEngine(prog, append(opts, WithTrace(&trace))...)
				if err != nil {
					t.Fatal(err)
				}
				switch name {
				case "assert", "assert-reference":
					for _, r := range rows {
						if _, err := e.Assert(r.class, r.sets); err != nil {
							t.Fatal(err)
						}
					}
				default:
					seeds := make([]Seed, len(rows))
					for i, r := range rows {
						seeds[i] = r.seed
					}
					if err := e.AssertBatch(seeds); err != nil {
						t.Fatal(err)
					}
				}
				return e, &trace, snapshot(e)
			}

			refEng, refTrace, ref := load("assert")
			if _, err := refEng.Run(5000); err != nil {
				t.Fatal(err)
			}
			refStats := refEng.Stats()
			for _, variant := range []struct {
				name string
				opts []Option
			}{
				{"batched", nil},
				{"batched-reference", []Option{WithReference()}},
				{"assert-reference", []Option{WithReference()}},
			} {
				e, trace, got := load(variant.name, variant.opts...)
				statesEqual(t, variant.name, ref, got)
				if _, err := e.Run(5000); err != nil {
					t.Fatal(err)
				}
				if trace.String() != refTrace.String() {
					t.Errorf("%s: firing trace differs from Assert reference", variant.name)
				}
				if sgot := e.Stats(); refStats != sgot {
					t.Errorf("%s: run stats differ:\nref: %+v\ngot: %+v", variant.name, refStats, sgot)
				}
			}
		})
	}
}

// TestDifferentialInterleavedAssertBatch is the property-style oracle
// for interleaved Assert/AssertBatch: for random permutations of the
// seed set split into random runs of Assert calls and AssertBatch
// chunks, the working-memory snapshot, WME timetags, conflict set,
// match counters and Init charge must equal the all-Assert reference
// for the same permutation.
func TestDifferentialInterleavedAssertBatch(t *testing.T) {
	for _, tc := range diffPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			rows := diffSeedRows(t, prog)
			rng := rand.New(rand.NewSource(1990))
			for trial := 0; trial < 25; trial++ {
				perm := rng.Perm(len(rows))

				ref, err := NewEngine(prog)
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range perm {
					if _, err := ref.Assert(rows[i].class, rows[i].sets); err != nil {
						t.Fatal(err)
					}
				}

				mixed, err := NewEngine(prog)
				if err != nil {
					t.Fatal(err)
				}
				for at := 0; at < len(perm); {
					n := 1 + rng.Intn(4)
					if at+n > len(perm) {
						n = len(perm) - at
					}
					chunk := perm[at : at+n]
					at += n
					if rng.Intn(2) == 0 {
						for _, i := range chunk {
							if _, err := mixed.Assert(rows[i].class, rows[i].sets); err != nil {
								t.Fatal(err)
							}
						}
					} else {
						seeds := make([]Seed, len(chunk))
						for k, i := range chunk {
							seeds[k] = rows[i].seed
						}
						if err := mixed.AssertBatch(seeds); err != nil {
							t.Fatal(err)
						}
					}
				}
				statesEqual(t, fmt.Sprintf("trial %d", trial), snapshot(ref), snapshot(mixed))
			}
		})
	}
}

// TestSeedUnknownAttributeErrorIsDeterministic: a seed that sets two
// undeclared attributes is refused naming the lexically first, whichever
// of them map iteration reaches first.
func TestSeedUnknownAttributeErrorIsDeterministic(t *testing.T) {
	prog := MustParse(`(literalize node id color)`)
	sc, err := prog.SeedClass("node")
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string]symtab.Value{
		"id": symtab.Int(1), "weight": symtab.Int(2), "shape": symtab.Sym("round"), "color": symtab.Sym("red"),
	}
	const want = "ops5: class node has no attribute shape"
	for range 100 {
		if _, err := sc.Seed(sets); err == nil || err.Error() != want {
			t.Fatalf("Seed: %v, want %q", err, want)
		}
	}
}
