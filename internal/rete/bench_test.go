package rete

import (
	"fmt"
	"testing"

	"spampsm/internal/symtab"
	"spampsm/internal/wm"
)

// Network-level join benchmarks: assert/retract churn against
// join-heavy productions whose memories grow far beyond a SPAM task's,
// the shape the retired join indexes were built for (docs/PERFORMANCE.md,
// "Join indexes retired"). The class has no constant tests, so there is
// no dispatch to switch: one case each.

// benchAgenda is a no-op agenda so the benchmark measures the network,
// not conflict resolution.
type benchAgenda struct{}

func (benchAgenda) Activate(p *PNode, t *Token)   {}
func (benchAgenda) Deactivate(p *PNode, t *Token) {}

// buildJoinBenchNet builds a network with group-joined productions:
// for each of eight focal groups, a 3-CE chain production whose CEs
// join on ^group equality and order on ^id.
func buildJoinBenchNet(b *testing.B) (*Network, *wm.Classes) {
	b.Helper()
	cs := wm.NewClasses()
	if _, err := cs.Declare("item", "id", "group", "val"); err != nil {
		b.Fatal(err)
	}
	net := New(benchAgenda{})
	gt := func(a, o symtab.Value) bool { return a.FloatVal() > o.FloatVal() }
	for p := 0; p < 8; p++ {
		pats := []Pattern{
			{Class: "item", Signature: "item*"},
			{Class: "item", Signature: "item*", Tests: []JoinTest{
				{OwnAttr: 1, TokenLevel: 0, TokenAttr: 1},
				{OwnAttr: 0, TokenLevel: 0, TokenAttr: 0, Pred: gt},
			}},
			{Class: "item", Signature: "item*", Tests: []JoinTest{
				{OwnAttr: 1, TokenLevel: 1, TokenAttr: 1},
				{OwnAttr: 0, TokenLevel: 1, TokenAttr: 0, Pred: gt},
			}},
		}
		if _, err := net.AddProduction(fmt.Sprintf("chain%d", p), pats, nil); err != nil {
			b.Fatal(err)
		}
	}
	return net, cs
}

// BenchmarkJoinChurn measures assert/retract churn over 8 three-CE
// group-joined productions and 384 WMEs in 64 groups.
func BenchmarkJoinChurn(b *testing.B) {
	const items, groups = 384, 64
	net, cs := buildJoinBenchNet(b)
	mem := wm.NewMemory(cs)
	wmes := make([]*wm.WME, 0, items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.StartBatch()
		wmes = wmes[:0]
		for j := 0; j < items; j++ {
			w, err := mem.Make("item", map[string]symtab.Value{
				"id":    symtab.Int(int64(j)),
				"group": symtab.Int(int64(j % groups)),
				"val":   symtab.Int(int64(-j)),
			})
			if err != nil {
				b.Fatal(err)
			}
			net.Add(w)
			wmes = append(wmes, w)
		}
		for _, w := range wmes {
			if err := mem.Remove(w); err != nil {
				b.Fatal(err)
			}
			net.Remove(w)
		}
	}
	b.StopTimer()
	tot := net.Totals()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(tot.TokensCreated+tot.TokensDeleted)/sec, "tokens/s")
	}
}

// BenchmarkWideEqJoin measures a single two-CE equality join over 1024
// WMEs in 128 groups: every asserted item pairs with the items of its
// group, so the scan of a large memory for a small group dominates.
func BenchmarkWideEqJoin(b *testing.B) {
	cs := wm.NewClasses()
	if _, err := cs.Declare("item", "id", "group", "val"); err != nil {
		b.Fatal(err)
	}
	net := New(benchAgenda{})
	pats := []Pattern{
		{Class: "item", Signature: "item*"},
		{Class: "item", Signature: "item*", Tests: []JoinTest{
			{OwnAttr: 1, TokenLevel: 0, TokenAttr: 1},
		}},
	}
	if _, err := net.AddProduction("pairs", pats, nil); err != nil {
		b.Fatal(err)
	}
	const items, groups = 1024, 128
	mem := wm.NewMemory(cs)
	wmes := make([]*wm.WME, 0, items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.StartBatch()
		wmes = wmes[:0]
		for j := 0; j < items; j++ {
			w, err := mem.Make("item", map[string]symtab.Value{
				"id":    symtab.Int(int64(j)),
				"group": symtab.Int(int64(j % groups)),
			})
			if err != nil {
				b.Fatal(err)
			}
			net.Add(w)
			wmes = append(wmes, w)
		}
		for _, w := range wmes {
			if err := mem.Remove(w); err != nil {
				b.Fatal(err)
			}
			net.Remove(w)
		}
	}
	b.StopTimer()
	tot := net.Totals()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(tot.TokensCreated+tot.TokensDeleted)/sec, "tokens/s")
	}
}

var sinkPass bool

// BenchmarkJoinTest measures one join node's test list — a symbol
// equality, then a numeric comparison — over one (token, WME) pair that
// passes both: the inner loop of every join and negative activation,
// with its charges.
func BenchmarkJoinTest(b *testing.B) {
	cs := wm.NewClasses()
	if _, err := cs.Declare("item", "id", "group"); err != nil {
		b.Fatal(err)
	}
	net := New(benchAgenda{})
	gt := func(a, o symtab.Value) bool { c, ok := a.Compare(o); return ok && c > 0 }
	if _, err := net.AddProduction("pair", []Pattern{
		{Class: "item", Signature: "item*"},
		{Class: "item", Signature: "item*", Tests: []JoinTest{
			{OwnAttr: 1, TokenLevel: 0, TokenAttr: 1},
			{OwnAttr: 0, TokenLevel: 0, TokenAttr: 0, Pred: gt},
		}},
	}, nil); err != nil {
		b.Fatal(err)
	}
	mem := wm.NewMemory(cs)
	item := func(id int64) *wm.WME {
		w, err := mem.Make("item", map[string]symtab.Value{"id": symtab.Int(id), "group": symtab.Sym("runway")})
		if err != nil {
			b.Fatal(err)
		}
		return w
	}
	net.Add(item(1))
	w := item(2)
	first := net.tmpl.dummyTop.children[0].node.(*joinNode)
	j := first.child.(*betaMemory).children[0].node.(*joinNode)
	tok := j.parent.items(net).head.t
	if !j.passes(tok, w, net) {
		b.Fatal("the pair must pass both tests")
	}
	for b.Loop() {
		sinkPass = j.passes(tok, w, net)
	}
}
