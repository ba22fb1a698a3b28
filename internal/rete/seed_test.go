package rete

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"spampsm/internal/wm"
)

// The seed-load differential oracle: InsertBatch — with the memoized
// route cache, with routing disabled, cold cache or warm — must be
// observably identical to per-WME Add: same conflict-set event
// sequence, byte-identical Counters after every step, identical
// captured activation forests.

// seedMode selects the insertion path of one seedReplay.
type seedMode int

const (
	seedPerWME   seedMode = iota // Add per WME: the reference
	seedBatched                  // InsertBatch with memoized routing
	seedUnrouted                 // InsertBatch with SetSeedRouting(false)
)

// seedReplay runs a script on a fresh instance of tmpl, grouping each
// run of consecutive makes into one batch step (the shape of task
// seed-loading); removals are replayed singly in between. All WMEs of
// a group are made before any is inserted, in both modes, so timetags
// align; every WME carries its routing digest, so the batched modes
// exercise the route memo on the full value space.
func seedReplay(t *testing.T, tmpl *Template, s *diffScript, mode seedMode, capture bool) *diffRun {
	t.Helper()
	rec := &seqRecorder{}
	net := tmpl.NewNetwork(rec)
	net.SetCapture(capture)
	if mode == seedUnrouted {
		net.SetSeedRouting(false)
	}
	mem := wm.NewMemory(s.classes)
	var live []*wm.WME
	run := &diffRun{}
	var forests strings.Builder
	record := func(step int) {
		run.events = append(run.events, rec.events...)
		rec.events = rec.events[:0]
		run.events = append(run.events, fmt.Sprintf("#%d", step))
		run.counters = append(run.counters, net.Totals())
		fmt.Fprintf(&forests, "#%d:", step)
		renderForest(net.TakeBatch(), &forests)
	}
	flush := func(group []int, step int) {
		if len(group) == 0 {
			return
		}
		net.StartBatch()
		wmes := make([]*wm.WME, len(group))
		digests := make([]string, len(group))
		for i, k := range group {
			w, err := mem.Make(s.mkCls[k], s.makes[k])
			if err != nil {
				t.Fatal(err)
			}
			wmes[i] = w
			digests[i] = RouteDigest(w.Class.Name, w.Vals)
			live = append(live, w)
		}
		if mode == seedPerWME {
			for _, w := range wmes {
				net.Add(w)
			}
		} else {
			net.InsertBatch(wmes, digests)
		}
		record(step)
	}
	var group []int
	for i, step := range s.steps {
		if step >= 0 {
			group = append(group, step)
			continue
		}
		flush(group, i)
		group = group[:0]
		net.StartBatch()
		k := ^step
		w := live[k]
		if err := mem.Remove(w); err != nil {
			t.Fatal(err)
		}
		net.Remove(w)
		live = append(live[:k], live[k+1:]...)
		record(i)
	}
	flush(group, len(s.steps))
	run.forests = forests.String()
	return run
}

// TestDifferentialBatchedSeedVsPerWME replays randomized scenarios
// through per-WME Add and batched InsertBatch — routed cold, routed
// warm (second instance of the same template, served from the memo),
// and with routing disabled — and requires byte-identical event
// sequences, Counters, and captured activation forests.
func TestDifferentialBatchedSeedVsPerWME(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		s := genScript(seed)
		tmpl := s.template(t, true)
		ref := seedReplay(t, tmpl, s, seedPerWME, true)
		cold := seedReplay(t, tmpl, s, seedBatched, true)
		diffRunsEqual(t, seed, ref, cold, "per-wme", "batched-cold")
		warm := seedReplay(t, tmpl, s, seedBatched, true)
		diffRunsEqual(t, seed, ref, warm, "per-wme", "batched-warm")
		unrouted := seedReplay(t, tmpl, s, seedUnrouted, true)
		diffRunsEqual(t, seed, ref, unrouted, "per-wme", "batched-unrouted")
	}
}

// TestDifferentialBatchedSeedAggregateCounters covers the capture-off
// replay path, where the constant-test sweep is charged in one
// arithmetic step: Counters and event sequences must still match the
// per-WME reference exactly.
func TestDifferentialBatchedSeedAggregateCounters(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		s := genScript(seed)
		tmpl := s.template(t, true)
		ref := seedReplay(t, tmpl, s, seedPerWME, false)
		got := seedReplay(t, tmpl, s, seedBatched, false)
		diffRunsEqual(t, seed, ref, got, "per-wme", "batched")
	}
}

// TestDifferentialBatchedSeedNaiveMatcher crosses the seed path with
// the unindexed matcher: the route memo lives above the join layer and
// must be equally exact there.
func TestDifferentialBatchedSeedNaiveMatcher(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		s := genScript(seed * 13)
		tmpl := s.template(t, false)
		ref := seedReplay(t, tmpl, s, seedPerWME, true)
		got := seedReplay(t, tmpl, s, seedBatched, true)
		diffRunsEqual(t, seed, ref, got, "per-wme-naive", "batched-naive")
	}
}

// TestConcurrentBatchedSeedLoad loads many instances of one template
// with the same shared seed set from concurrent goroutines — a pool's
// workers building one phase's engines — and requires every instance
// to agree with a sequential reference run. Run under -race this also
// proves the route memo's locking.
func TestConcurrentBatchedSeedLoad(t *testing.T) {
	s := genScript(7)
	tmpl := s.template(t, true)
	ref := seedReplay(t, tmpl, s, seedPerWME, true)

	const workers = 16
	runs := make([]*diffRun, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i] = seedReplay(t, tmpl, s, seedBatched, true)
		}(i)
	}
	wg.Wait()
	for i, run := range runs {
		diffRunsEqual(t, uint64(i), ref, run, "per-wme", "concurrent-batched")
	}
}
