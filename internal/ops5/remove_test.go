package ops5

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"spampsm/internal/rete"
	"spampsm/internal/symtab"
)

// Engine-level retraction oracles, driven by `remove` actions: the
// diffPrograms — join- and negation-heavy — are extended with control
// rules that retract working memory from the right-hand side, and an
// engine that loaded, ran and retracted must be observably identical
// to a fresh one loaded with the surviving rows. These are the direct
// tests of rete.Network.Remove under negative nodes (removing a path
// unblocks `start`, removing a link deletes tokens with negative-node
// children) and of token deletion leaving no residue. Absolute timetags
// are the one legitimate difference — a used engine's tag counter never
// rewinds — so the oracles compare tag-normalized projections: every
// timetag is replaced by its rank in the engine's own sorted tag
// population, and firing numbers are dropped.

// withRemoveRules extends a diffProgram with the control rules: a
// (sweep) row removes every WME of every class and then itself; a
// (victim) row removes the one node or link it names and then itself.
// Control rows are asserted last, so LEX fires their rules before any
// of the program's own.
func withRemoveRules(t *testing.T, src string) *Program {
	t.Helper()
	base, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(src)
	b.WriteString("(literalize sweep go)\n(literalize victim class k1 k2)\n")
	for _, c := range base.Classes {
		fmt.Fprintf(&b, "(p sweep-%s (sweep) (%s) --> (remove 2))\n", c.Name, c.Name)
	}
	b.WriteString("(p sweep-done (sweep) --> (remove 1))\n")
	b.WriteString("(p drop-node (victim ^class node ^k1 <i>) (node ^id <i>) --> (remove 2) (remove 1))\n")
	if hasClass(base, "link") {
		b.WriteString("(p drop-link (victim ^class link ^k1 <f> ^k2 <t>) (link ^from <f> ^to <t>) --> (remove 2) (remove 1))\n")
	}
	prog, err := Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

var (
	fireLineRE = regexp.MustCompile(`^\d+\. (.+ )\[([0-9 ]*)\]$`)
	wmLineRE   = regexp.MustCompile(`^((?:=>|<=)WM: )(\d+)( .*)$`)
)

// traceTags records every timetag a firing trace mentions.
func traceTags(trace string, tags map[int]bool) {
	for _, line := range strings.Split(trace, "\n") {
		if m := fireLineRE.FindStringSubmatch(line); m != nil {
			for _, f := range strings.Fields(m[2]) {
				n, _ := strconv.Atoi(f)
				tags[n] = true
			}
		} else if m := wmLineRE.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[2])
			tags[n] = true
		}
	}
}

// remapTrace rewrites the timetag fields of a firing trace through the
// rank map and drops the firing numbers, leaving WME bodies untouched.
func remapTrace(trace string, rank map[int]int) string {
	var b strings.Builder
	for _, line := range strings.Split(trace, "\n") {
		if m := fireLineRE.FindStringSubmatch(line); m != nil {
			fields := strings.Fields(m[2])
			for i, f := range fields {
				n, _ := strconv.Atoi(f)
				fields[i] = strconv.Itoa(rank[n])
			}
			b.WriteString(m[1] + "[" + strings.Join(fields, " ") + "]")
		} else if m := wmLineRE.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[2])
			b.WriteString(m[1] + strconv.Itoa(rank[n]) + m[3])
		} else {
			b.WriteString(line)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// normState is the tag-normalized engine projection the oracles
// compare: firing trace, live WM and unfired conflict set, with every
// timetag replaced by its rank.
type normState struct {
	trace    string
	dump     string
	conflict []string
}

func normalizedState(e *Engine, trace string) normState {
	tags := map[int]bool{}
	traceTags(trace, tags)
	for _, w := range e.Memory().Snapshot() {
		tags[w.TimeTag] = true
	}
	for _, in := range e.cs.insts {
		for _, tg := range in.tags {
			tags[tg] = true
		}
	}
	sorted := make([]int, 0, len(tags))
	for tg := range tags {
		sorted = append(sorted, tg)
	}
	sort.Ints(sorted)
	rank := make(map[int]int, len(sorted))
	for i, tg := range sorted {
		rank[tg] = i + 1
	}

	var dump bytes.Buffer
	for _, w := range e.Memory().Snapshot() {
		fmt.Fprintf(&dump, "%d: %s\n", rank[w.TimeTag], w)
	}
	var cs []string
	for _, in := range e.cs.unfired {
		rtags := make([]int, len(in.tags))
		for i, tg := range in.tags {
			rtags[i] = rank[tg]
		}
		cs = append(cs, fmt.Sprintf("%s %v", in.cp.prod.Name, rtags))
	}
	sort.Strings(cs)
	return normState{trace: remapTrace(trace, rank), dump: dump.String(), conflict: cs}
}

func normStatesEqual(t *testing.T, label string, ref, got normState) {
	t.Helper()
	if ref.trace != got.trace {
		t.Errorf("%s: firing traces differ:\nref:\n%s\ngot:\n%s", label, ref.trace, got.trace)
	}
	if ref.dump != got.dump {
		t.Errorf("%s: WM snapshots differ:\nref:\n%s\ngot:\n%s", label, ref.dump, got.dump)
	}
	if !reflect.DeepEqual(ref.conflict, got.conflict) {
		t.Errorf("%s: conflict sets differ:\nref: %v\ngot: %v", label, ref.conflict, got.conflict)
	}
}

func subCounters(a, b rete.Counters) rete.Counters {
	return rete.Counters{
		ConstTests:    a.ConstTests - b.ConstTests,
		JoinTests:     a.JoinTests - b.JoinTests,
		TokensCreated: a.TokensCreated - b.TokensCreated,
		TokensDeleted: a.TokensDeleted - b.TokensDeleted,
		Activations:   a.Activations - b.Activations,
		Cost:          a.Cost - b.Cost,
	}
}

func rowSeeds(rows []seedRow) []Seed {
	seeds := make([]Seed, len(rows))
	for i, r := range rows {
		seeds[i] = r.seed
	}
	return seeds
}

// loadAndRun asserts the seeds and runs to quiescence.
func loadAndRun(t *testing.T, e *Engine, seeds []Seed) {
	t.Helper()
	if err := e.AssertBatch(seeds); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(5000); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialSweepAndReloadVsFresh: after a full load-and-run
// cycle, removing the whole working memory through the network (the
// sweep rules) must leave it with no residue — empty memory, empty
// conflict set — and reloading and re-running must replay what a fresh
// engine produces: same normalized firing trace, WM and conflict set,
// and the same match-counter delta over the load+run window, token
// creation included.
func TestDifferentialSweepAndReloadVsFresh(t *testing.T) {
	for _, tc := range diffPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog := withRemoveRules(t, tc.src)
			seeds := rowSeeds(diffSeedRows(t, prog))

			var freshTrace bytes.Buffer
			fresh := mustNewEngine(t, prog, WithTrace(&freshTrace))
			loadAndRun(t, fresh, seeds)
			ref := normalizedState(fresh, freshTrace.String())
			if ref.trace == "" {
				t.Fatal("trace empty: program did not fire")
			}

			var usedTrace bytes.Buffer
			used := mustNewEngine(t, prog, WithTrace(&usedTrace))
			loadAndRun(t, used, seeds)
			if _, err := used.Assert("sweep", map[string]symtab.Value{"go": symtab.Sym("t")}); err != nil {
				t.Fatal(err)
			}
			if _, err := used.Run(5000); err != nil {
				t.Fatal(err)
			}
			if n := used.Memory().Size(); n != 0 {
				t.Fatalf("sweep left %d live WMEs", n)
			}
			if n := len(used.cs.insts); n != 0 {
				t.Fatalf("sweep left %d live instantiations", n)
			}
			base := used.MatchCounters()
			usedTrace.Reset()
			loadAndRun(t, used, seeds)
			normStatesEqual(t, tc.name, ref, normalizedState(used, usedTrace.String()))
			if delta := subCounters(used.MatchCounters(), base); delta != fresh.MatchCounters() {
				t.Errorf("match-counter delta differs from fresh totals:\nfresh: %+v\ndelta: %+v",
					fresh.MatchCounters(), delta)
			}
		})
	}
}

// TestDifferentialRemoveReassertChurn is the property-style churn
// oracle: for random seed subsets, loading everything, removing the
// subset (one victim row per member, each firing a drop rule) and
// re-asserting it must be observably identical to a fresh engine that
// asserted the kept rows followed by the subset — before and after
// running to quiescence.
func TestDifferentialRemoveReassertChurn(t *testing.T) {
	for _, tc := range diffPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog := withRemoveRules(t, tc.src)
			rows := diffSeedRows(t, prog)
			rng := rand.New(rand.NewSource(1990))
			for trial := 0; trial < 12; trial++ {
				var kept, subset []seedRow
				for len(subset) == 0 || len(kept) == 0 {
					kept, subset = nil, nil
					for _, r := range rows {
						if rng.Intn(3) == 0 {
							subset = append(subset, r)
						} else {
							kept = append(kept, r)
						}
					}
				}

				var churnTrace bytes.Buffer
				churn := mustNewEngine(t, prog, WithTrace(&churnTrace))
				if err := churn.AssertBatch(rowSeeds(rows)); err != nil {
					t.Fatal(err)
				}
				for _, r := range subset {
					v := map[string]symtab.Value{"class": symtab.Sym(r.class)}
					if r.class == "node" {
						v["k1"] = r.sets["id"]
					} else {
						v["k1"], v["k2"] = r.sets["from"], r.sets["to"]
					}
					if _, err := churn.Assert("victim", v); err != nil {
						t.Fatal(err)
					}
				}
				// Every drop instantiation holds a victim row, newer than
				// any seed: LEX fires exactly the drops first.
				if n, err := churn.Run(len(subset)); err != nil || n != len(subset) {
					t.Fatalf("drop run fired %d of %d (err %v)", n, len(subset), err)
				}
				if n := churn.Memory().Size(); n != len(kept) {
					t.Fatalf("%d WMEs live after dropping %d of %d rows", n, len(subset), len(rows))
				}
				churnTrace.Reset()
				if err := churn.AssertBatch(rowSeeds(subset)); err != nil {
					t.Fatal(err)
				}

				var refTrace bytes.Buffer
				ref := mustNewEngine(t, prog, WithTrace(&refTrace))
				if err := ref.AssertBatch(rowSeeds(kept)); err != nil {
					t.Fatal(err)
				}
				if err := ref.AssertBatch(rowSeeds(subset)); err != nil {
					t.Fatal(err)
				}

				label := fmt.Sprintf("trial %d (churn %d/%d)", trial, len(subset), len(rows))
				normStatesEqual(t, label+" preRun", normalizedState(ref, ""), normalizedState(churn, ""))
				if _, err := churn.Run(5000); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Run(5000); err != nil {
					t.Fatal(err)
				}
				normStatesEqual(t, label, normalizedState(ref, refTrace.String()),
					normalizedState(churn, churnTrace.String()))
			}
		})
	}
}
