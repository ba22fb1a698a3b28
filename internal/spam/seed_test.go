package spam

import (
	"testing"

	"spampsm/internal/tlp"
)

// TestConcurrentLCCBuildSeedCache builds and runs every LCC task of a
// scene on eight task processes — the workload that hammers the
// RegionStore's fragment-seed cache and the shared template's dispatch
// tables from many goroutines at once — and requires the results to
// match a serial reference. Run under -race (make oracle / CI) this is
// the regression test for the RegionStore.Register concurrency audit.
func TestConcurrentLCCBuildSeedCache(t *testing.T) {
	d := smallDC(t)
	rtf := BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 0, false)
	rtfResults, err := tlp.RunSerial(rtf)
	if err != nil {
		t.Fatal(err)
	}
	frags := ExtractFragments(rtfResults)
	if len(frags) == 0 {
		t.Fatal("RTF produced no fragments: concurrency test is vacuous")
	}

	refTasks := BuildLCCTasks(d.KB, d.Store, d.Progs.LCC, frags, Level3, false)
	refResults, err := tlp.RunSerial(refTasks)
	if err != nil {
		t.Fatal(err)
	}
	refPairs, refOuts := ExtractLCC(refResults)

	tasks := BuildLCCTasks(d.KB, d.Store, d.Progs.LCC, frags, Level3, false)
	results, err := (&tlp.Pool{Workers: 8}).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	pairs, outs := ExtractLCC(results)

	if len(pairs) != len(refPairs) || len(outs) != len(refOuts) {
		t.Fatalf("concurrent build diverged: %d/%d pairs, %d/%d outcomes",
			len(pairs), len(refPairs), len(outs), len(refOuts))
	}
	for i := range pairs {
		if pairs[i] != refPairs[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, pairs[i], refPairs[i])
		}
	}
	for i := range outs {
		if outs[i] != refOuts[i] {
			t.Fatalf("outcome %d differs: %+v vs %+v", i, outs[i], refOuts[i])
		}
	}
}
