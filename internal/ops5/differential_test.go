package ops5

import (
	"bytes"
	"testing"

	"spampsm/internal/rete"
	"spampsm/internal/symtab"
)

// Engine-level differential oracle: the same program and working
// memory run on the production engine and on the reference
// (WithReference: a private compile whose network sweeps) must produce
// the identical firing trace, identical final working memory, and
// byte-identical match counters.

// diffPrograms are join- and negation-heavy programs whose conflict
// sets are contested enough that any activation-order divergence
// between the matchers would change the firing trace.
var diffPrograms = []struct {
	name string
	src  string
}{
	{
		name: "transitive-links",
		src: `
(literalize node id color)
(literalize link from to)
(literalize path from to hops)
(p start
   (link ^from <a> ^to <b>)
  -(path ^from <a> ^to <b>)
  -->
   (make path ^from <a> ^to <b> ^hops 1))
(p extend
   (path ^from <a> ^to <b> ^hops <h>)
   (link ^from <b> ^to <c>)
  -(path ^from <a> ^to <c>)
   (node ^id <a> ^color blue)
  -->
   (make path ^from <a> ^to <c> ^hops (compute <h> + 1)))
`,
	},
	{
		name: "color-pairs",
		src: `
(literalize node id color)
(literalize pair a b)
(p pair-same-color
   (node ^id <a> ^color <c>)
   (node ^id <b> ^color <c>)
   (node ^id > <a>)
  -(pair ^a <a> ^b <b>)
  -->
   (make pair ^a <a> ^b <b>))
`,
	},
}

func seedDiffWM(t *testing.T, e *Engine) {
	t.Helper()
	colors := []string{"blue", "red", "blue", "green", "blue", "red"}
	for i := 0; i < 6; i++ {
		if _, err := e.Assert("node", map[string]symtab.Value{
			"id": symtab.Int(int64(i)), "color": symtab.Sym(colors[i]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Classes().Lookup("link") != nil {
		for _, l := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}, {2, 0}} {
			if _, err := e.Assert("link", map[string]symtab.Value{
				"from": symtab.Int(int64(l[0])), "to": symtab.Int(int64(l[1])),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func runDiff(t *testing.T, src string, reference bool) (string, string, rete.Counters, RunStats) {
	t.Helper()
	opts := []Option{}
	if reference {
		opts = append(opts, WithReference())
	}
	var trace bytes.Buffer
	opts = append(opts, WithTrace(&trace))
	e := mustEngine(t, src, opts...)
	seedDiffWM(t, e)
	if _, err := e.Run(5000); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	e.DumpWM(&dump)
	return trace.String(), dump.String(), e.MatchCounters(), e.Stats()
}

func TestEngineDifferentialIndexedVsNaive(t *testing.T) {
	for _, tc := range diffPrograms {
		t.Run(tc.name, func(t *testing.T) {
			iTrace, iWM, iCtr, iStats := runDiff(t, tc.src, false)
			nTrace, nWM, nCtr, nStats := runDiff(t, tc.src, true)
			if iTrace != nTrace {
				t.Errorf("firing traces differ:\nproduction:\n%s\nreference:\n%s", iTrace, nTrace)
			}
			if iWM != nWM {
				t.Errorf("final working memories differ:\nproduction:\n%s\nreference:\n%s", iWM, nWM)
			}
			if iCtr != nCtr {
				t.Errorf("match counters differ:\nproduction: %+v\nreference:  %+v", iCtr, nCtr)
			}
			if iStats != nStats {
				t.Errorf("run stats differ:\nproduction: %+v\nreference:  %+v", iStats, nStats)
			}
			if iTrace == "" {
				t.Fatal("trace empty: program did not fire")
			}
		})
	}
}
