// Package matchbench reproduces the context of the paper's Figure 3:
// ParaOPS5 match-parallelism speedups on three match-intensive OPS5
// systems — Rubik, Weaver and Tourney. The original programs are not
// publicly available; these synthetic stand-ins are built to have the
// same *structural* match profiles, which is what determines the
// curves:
//
//   - Rubik: every cycle's WM change affects many productions, each
//     with real join work → a wide per-cycle activation forest → good
//     match speedup.
//   - Weaver: a moderate number of affected productions → moderate
//     speedup.
//   - Tourney: each change affects only a few productions whose joins
//     chain serially → almost no exploitable match parallelism, the
//     "quite low" curve of the figure.
//
// All three are match-dominated (> 90% match), like the originals, so
// Amdahl is not the binding constraint — per-cycle match width is.
package matchbench

import (
	"fmt"
	"strings"

	"spampsm/internal/ops5"
	"spampsm/internal/pmatch"
	"spampsm/internal/stats"
	"spampsm/internal/symtab"
)

// Spec defines one synthetic match-intensive system.
type Spec struct {
	Name     string
	Watchers int // productions affected by each cycle's WM change
	Items    int // item WMEs in working memory (8 groups)
	Depth    int // extra chained CEs per watcher (serializes the match)
	Chain    bool
	Cycles   int // driver firings to run
}

// The three systems of Figure 3.
var (
	// Rubik: wide, shallow match — many independent activations/cycle.
	Rubik = Spec{Name: "rubik", Watchers: 48, Items: 90, Depth: 0, Cycles: 120}
	// Weaver: moderately wide.
	Weaver = Spec{Name: "weaver", Watchers: 10, Items: 80, Depth: 0, Cycles: 120}
	// Tourney: narrow and deep — each watcher walks a linked chain of
	// items (selective ^nxt joins), so the per-cycle activation forest
	// has almost no width for the match processes to exploit.
	Tourney = Spec{Name: "tourney", Watchers: 2, Items: 16, Depth: 12, Chain: true, Cycles: 120}
)

// Source generates the OPS5 program for a spec: a driver production
// that advances a tick counter each cycle, and Watchers dormant
// productions that re-match against the item WMEs on every tick change
// (their final condition never holds, so only the driver fires — the
// match work is the workload, as in a match-intensive system).
func Source(s Spec) string {
	var b strings.Builder
	b.WriteString(`(literalize tick n limit)
(literalize item id group val nxt)
(literalize probe id)
`)
	b.WriteString(`
(p drive
   (tick ^n <n> ^limit > <n>)
  -->
   (modify 1 ^n (compute <n> + 1)))
`)
	for w := 0; w < s.Watchers; w++ {
		group := w % 8
		var ces []string
		ces = append(ces, fmt.Sprintf("   (tick ^n { <n> > %d })", w%5))
		if s.Chain {
			// Selective chain: each level joins exactly the next linked
			// item, so tokens form narrow sequential strands.
			ces = append(ces, fmt.Sprintf("   (item ^group %d ^val <> <n> ^id <i0> ^nxt <x1>)", group))
			for d := 1; d <= s.Depth; d++ {
				ces = append(ces, fmt.Sprintf("   (item ^id <x%d> ^nxt <x%d>)", d, d+1))
			}
		} else {
			ces = append(ces, fmt.Sprintf("   (item ^group %d ^val <> <n> ^id <i0>)", group))
			for d := 0; d < s.Depth; d++ {
				ces = append(ces, fmt.Sprintf("   (item ^group %d ^id { <i%d> > <i%d> })", group, d+1, d))
			}
		}
		// The probe class is never asserted: the production stays quiet
		// while its joins run on every tick.
		ces = append(ces, "   (probe ^id <n>)")
		fmt.Fprintf(&b, `
(p watch-%d
%s
  -->
   (make probe ^id 0))
`, w, strings.Join(ces, "\n"))
	}
	return b.String()
}

// Build compiles a spec into a loaded engine with capture enabled.
// Extra engine options (e.g. ops5.WithReference for the reference
// matcher) are appended after capture.
func Build(s Spec, opts ...ops5.Option) (*ops5.Engine, error) {
	prog, err := ops5.Parse(Source(s))
	if err != nil {
		return nil, fmt.Errorf("matchbench %s: %w", s.Name, err)
	}
	e, err := ops5.NewEngine(prog, append([]ops5.Option{ops5.WithCapture()}, opts...)...)
	if err != nil {
		return nil, err
	}
	// Items are linked within their group: nxt points to the next item
	// of the same group (wrapping), which the Chain specs walk.
	groupItems := map[int][]int{}
	for i := 0; i < s.Items; i++ {
		g := i % 8
		groupItems[g] = append(groupItems[g], i)
	}
	nxt := map[int]int{}
	for _, ids := range groupItems {
		for k, id := range ids {
			nxt[id] = ids[(k+1)%len(ids)]
		}
	}
	for i := 0; i < s.Items; i++ {
		if _, err := e.Assert("item", map[string]symtab.Value{
			"id":    symtab.Int(int64(i)),
			"group": symtab.Int(int64(i % 8)),
			"val":   symtab.Int(int64(-1 - i)),
			"nxt":   symtab.Int(int64(nxt[i])),
		}); err != nil {
			return nil, err
		}
	}
	if _, err := e.Assert("tick", map[string]symtab.Value{
		"n": symtab.Int(0), "limit": symtab.Int(int64(s.Cycles)),
	}); err != nil {
		return nil, err
	}
	return e, nil
}

// Run executes a spec and returns its cost log and stats.
func Run(s Spec, opts ...ops5.Option) (*ops5.CostLog, ops5.RunStats, error) {
	e, err := Build(s, opts...)
	if err != nil {
		return nil, ops5.RunStats{}, err
	}
	if _, err := e.Run(0); err != nil {
		return nil, ops5.RunStats{}, err
	}
	return e.Log(), e.Stats(), nil
}

// SpeedupSeries computes the match-parallelism speedup curve of a run
// for 1..maxProcs match processes, as plotted in Figure 3.
func SpeedupSeries(name string, log *ops5.CostLog, maxProcs int, model pmatch.Model) stats.Series {
	s := stats.Series{Name: name}
	for m := 1; m <= maxProcs; m++ {
		s.Add(float64(m), model.Speedup(log, m))
	}
	return s
}
