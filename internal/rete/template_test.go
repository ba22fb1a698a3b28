package rete

import (
	"sync"
	"testing"

	"spampsm/internal/wm"
)

// The template/instance differential oracle: networks instantiated
// from a shared compiled Template must be byte-identical — conflict-set
// event sequences, simulated Counters after every step, captured
// activation forests — to networks compiled freshly (newTestNet +
// AddProduction), with constant-test dispatch on and off. O(nodes)
// instantiation changes construction cost, never match behavior.

func TestTemplateDifferentialVsFreshCompile(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s := genScript(seed)
		for _, dispatched := range []bool{true, false} {
			fresh := s.replay(t, dispatched)
			tmpl := s.template(t, dispatched)
			// Two successive instances of the same template: both must
			// match the fresh compile (the first instance must not
			// perturb shared state read by the second).
			for i := 0; i < 2; i++ {
				rec := &seqRecorder{}
				inst := s.replayOn(t, tmpl.NewNetworkScratch(rec, nil), rec)
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
	idle := tmpl.NewNetworkScratch(recIdle, nil)

	recA := &seqRecorder{}
	runA := s.replayOn(t, tmpl.NewNetworkScratch(recA, nil), recA)
	recB := &seqRecorder{}
	runB := s.replayOn(t, tmpl.NewNetworkScratch(recB, nil), recB)
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
	tmpl.NewNetworkScratch(&seqRecorder{}, nil)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &seqRecorder{}
			run := s.replayOn(t, tmpl.NewNetworkScratch(rec, nil), rec)
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
// be added after the first instantiation.
func TestTemplateFreeze(t *testing.T) {
	s := genScript(3)
	tmpl := s.template(t, true)
	tmpl.NewNetworkScratch(&seqRecorder{}, nil)
	if _, err := tmpl.AddProduction("late", s.prods[0], nil); err == nil {
		t.Fatal("AddProduction on a frozen template must fail")
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
	net := s.template(t, true).NewNetworkScratch(rec, nil)
	s.replayOn(t, net, rec)
	if net.arena != nil || net.Settle() != nil {
		t.Fatal("a network built without a scratch must not borrow or settle")
	}
	if net.dummyTok == nil {
		t.Fatal("Settle on an owning network must leave it intact")
	}
}

// TestArenaBackedWorkingMemoryLifecycle: the working memory of a
// borrowing network draws its WME structs, the vectors NewVals hands out
// and its tag table from the scratch; Settle takes them all back —
// leaving the memory empty with its peaks intact — and the next
// borrower reuses the very same records. A memory whose loan was
// revoked keeps what it drew and continues on the heap.
func TestArenaBackedWorkingMemoryLifecycle(t *testing.T) {
	s := genScript(5)
	tmpl := s.template(t, true)
	scratch := &Scratch{}
	load := func(net *Network, mem *wm.Memory, n int) []*wm.WME {
		t.Helper()
		var made []*wm.WME
		for k := 0; k < n; k++ {
			w, err := mem.Make(s.mkCls[k], s.makes[k])
			if err != nil {
				t.Fatal(err)
			}
			net.Add(w)
			made = append(made, w)
		}
		return made
	}

	net := tmpl.NewNetworkScratch(&seqRecorder{}, scratch)
	mem := net.NewMemory(s.classes)
	first := load(net, mem, 12)
	if len(scratch.wmes.chunks) == 0 || len(scratch.vals.chunks) == 0 {
		t.Fatal("a borrowing network's working memory drew nothing from the scratch")
	}
	if &scratch.wmes.chunks[0][0] != first[0] || &scratch.vals.chunks[0][0] != &first[0].Vals[0] {
		t.Error("the first WME and its vector are not the slabs' first records")
	}
	peak, peakBytes := mem.PeakSize(), mem.PeakBytes()
	net.Settle()
	if mem.Size() != 0 || len(mem.Snapshot()) != 0 || len(mem.OfClass(s.mkCls[0])) != 0 {
		t.Errorf("a settled network's working memory still holds %d WMEs", mem.Size())
	}
	if mem.PeakSize() != peak || mem.PeakBytes() != peakBytes || peak != 12 {
		t.Errorf("Settle changed the memory's peaks: %d/%g, were %d/%g", mem.PeakSize(), mem.PeakBytes(), peak, peakBytes)
	}
	if first[0].Class != nil || first[0].Vals != nil || cap(scratch.tags) < 13 {
		t.Error("Settle did not wipe the WME records or did not take the tag table back")
	}

	// The next borrower draws the same records, zeroed.
	net2 := tmpl.NewNetworkScratch(&seqRecorder{}, scratch)
	mem2 := net2.NewMemory(s.classes)
	second := load(net2, mem2, 5)
	if second[0] != first[0] || second[0].TimeTag != 1 {
		t.Error("the second borrower's first WME is not the recycled first record with tag 1")
	}

	// A third borrower arrives while the second is unsettled: the second
	// keeps its working memory and goes on, on the heap.
	chunk := &scratch.wmes.chunks[0][0]
	net3 := tmpl.NewNetworkScratch(&seqRecorder{}, scratch)
	mem3 := net3.NewMemory(s.classes)
	third := load(net3, mem3, 3)
	if third[0] == chunk {
		t.Fatal("the third borrower was handed the unsettled borrower's records")
	}
	more := load(net2, mem2, 2)
	if mem2.Size() != 7 || more[0].TimeTag != 6 || second[0].Class == nil {
		t.Errorf("the superseded borrower's memory: %d WMEs, next tag %d", mem2.Size(), more[0].TimeTag)
	}
	for _, c := range scratch.wmes.chunks {
		for i := range c {
			if &c[i] == more[0] {
				t.Fatal("a superseded borrower drew a WME from the current borrower's slab")
			}
		}
	}
	if net2.Settle() != nil || mem2.Size() != 7 {
		t.Error("a superseded borrower's Settle must be a no-op that leaves its memory alone")
	}
	net3.Settle()
	if mem3.Size() != 0 {
		t.Error("the current borrower's memory survived its Settle")
	}
}
