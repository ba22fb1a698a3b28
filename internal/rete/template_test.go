package rete

import (
	"sync"
	"testing"
)

// The template/instance differential oracle: networks instantiated
// from a shared compiled Template must be byte-identical — conflict-set
// event sequences, simulated Counters after every step, captured
// activation forests — to networks compiled freshly with New +
// AddProduction, for both the indexed and the naive matcher. O(nodes)
// instantiation changes construction cost, never match behavior.

func TestTemplateDifferentialVsFreshCompile(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s := genScript(seed)
		for _, indexed := range []bool{true, false} {
			fresh := s.replay(t, indexed)
			tmpl := s.template(t, indexed)
			// Two successive instances of the same template: both must
			// match the fresh compile (the first instance must not
			// perturb shared state read by the second).
			for i := 0; i < 2; i++ {
				rec := &seqRecorder{}
				inst := s.replayOn(t, tmpl.NewNetwork(rec), rec)
				diffRunsEqual(t, seed, fresh, inst, "fresh", "template-instance")
			}
		}
	}
}

// TestTemplateInstanceIsolation runs the same script on two instances
// of one template in interleaved steps via independent replays, then
// verifies a third, untouched instance saw nothing: instances share
// topology only, never memories or counters.
func TestTemplateInstanceIsolation(t *testing.T) {
	s := genScript(7)
	tmpl := s.template(t, true)
	recIdle := &seqRecorder{}
	idle := tmpl.NewNetwork(recIdle)

	recA := &seqRecorder{}
	runA := s.replayOn(t, tmpl.NewNetwork(recA), recA)
	recB := &seqRecorder{}
	runB := s.replayOn(t, tmpl.NewNetwork(recB), recB)
	diffRunsEqual(t, 7, runA, runB, "instanceA", "instanceB")

	if got := idle.Totals(); got != (Counters{}) {
		t.Fatalf("idle instance accumulated counters: %+v", got)
	}
	if len(recIdle.events) != 0 {
		t.Fatalf("idle instance saw %d conflict-set events", len(recIdle.events))
	}
}

// TestTemplateConcurrentInstantiation instantiates and runs many
// networks from one frozen template concurrently; meaningful under
// -race. Every run must equal the fresh-compiled reference.
func TestTemplateConcurrentInstantiation(t *testing.T) {
	s := genScript(11)
	fresh := s.replay(t, true)
	tmpl := s.template(t, true)
	// Freeze before fanning out, as CompiledProgram does.
	tmpl.NewNetwork(&seqRecorder{})

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &seqRecorder{}
			run := s.replayOn(t, tmpl.NewNetwork(rec), rec)
			if len(run.events) != len(fresh.events) || run.forests != fresh.forests {
				errs <- "concurrent instance diverged from fresh compile"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestTemplateFreeze pins the compile-once contract: no production may
// be added after the first instantiation, and template-instantiated
// networks reject AddProduction outright.
func TestTemplateFreeze(t *testing.T) {
	s := genScript(3)
	tmpl := s.template(t, true)
	net := tmpl.NewNetwork(&seqRecorder{})
	if _, err := tmpl.AddProduction("late", s.prods[0], nil); err == nil {
		t.Fatal("AddProduction on a frozen template must fail")
	}
	if _, err := net.AddProduction("late", s.prods[0], nil); err == nil {
		t.Fatal("AddProduction on a template-instantiated network must fail")
	}
}

// TestScratchReuseDeterminism replays scripts on successive instances
// borrowing one Scratch: an arena settled by one instance and recycled
// by the next must not perturb events, counters or forests, whichever
// script ran before, and must actually be reused rather than regrown.
func TestScratchReuseDeterminism(t *testing.T) {
	scratch := &Scratch{}
	for round := 0; round < 2; round++ {
		for _, seed := range []uint64{5, 9, 5} {
			s := genScript(seed)
			fresh := s.replay(t, true)
			rec := &seqRecorder{}
			net := s.template(t, true).NewNetworkScratch(rec, scratch)
			run := s.replayOn(t, net, rec)
			diffRunsEqual(t, seed, fresh, run, "fresh", "scratch-instance")
			totals, peak := net.Totals(), net.PeakTokens()
			_, before := scratch.Arena()
			if net.Settle() != scratch {
				t.Fatal("Settle did not return the borrowed scratch")
			}
			if _, after := scratch.Arena(); before == 0 || after > before {
				t.Fatalf("arena %d -> %d bytes across Settle; want it engaged and not grown", before, after)
			}
			if net.Totals() != totals || net.PeakTokens() != peak {
				t.Fatal("Settle changed the network's counters")
			}
			if net.Settle() != nil {
				t.Fatal("second Settle on a settled network must be a no-op")
			}
		}
	}
}

// TestScratchUnsettledBorrowerKeepsItsArena: a network that is never
// settled (its task failed mid-operation) keeps what it drew; the next
// borrower starts on fresh slabs, matches like a fresh network, and the
// abandoned network's memories are left intact.
func TestScratchUnsettledBorrowerKeepsItsArena(t *testing.T) {
	s := genScript(7)
	fresh := s.replay(t, true)
	tmpl := s.template(t, true)
	scratch := &Scratch{}
	rec0 := &seqRecorder{}
	abandoned := tmpl.NewNetworkScratch(rec0, scratch)
	s.replayOn(t, abandoned, rec0)
	liveBefore := abandoned.liveTokens
	chunk0 := &scratch.tokens.chunks[0][0]

	rec := &seqRecorder{}
	net := tmpl.NewNetworkScratch(rec, scratch)
	if &scratch.tokens.chunks[0][0] == chunk0 {
		t.Fatal("second borrower was handed the unsettled borrower's slab")
	}
	run := s.replayOn(t, net, rec)
	diffRunsEqual(t, 7, fresh, run, "fresh", "after-abandoned")
	if abandoned.liveTokens != liveBefore || abandoned.dummyTok == nil || abandoned.dummyTok.node == nil {
		t.Fatal("abandoned network's state was disturbed by the next borrower")
	}
	if abandoned.Settle(); scratch.borrower != net {
		t.Fatal("a superseded borrower's Settle must not end the current loan")
	}
}

// TestNetworkWithoutScratchDrawsNoSlabs pins the other half of the
// rule: an instance built without a scratch owns its memory.
func TestNetworkWithoutScratchDrawsNoSlabs(t *testing.T) {
	s := genScript(5)
	rec := &seqRecorder{}
	net := s.template(t, true).NewNetwork(rec)
	s.replayOn(t, net, rec)
	if net.arena != nil || net.Settle() != nil {
		t.Fatal("a network built without a scratch must not borrow or settle")
	}
	if net.dummyTok == nil {
		t.Fatal("Settle on an owning network must leave it intact")
	}
}
