package spam

import (
	"slices"
	"testing"

	"spampsm/internal/scene"
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

// TestLCCSeedsWriteEachFragmentOnce: an LCC task's seed rows hold each
// focal or partner fragment once, in first-appearance order, at Level 3
// and at Level 4, where one DC task has more fragments (68) than
// lccSeeds' list starts with on the stack.
func TestLCCSeedsWriteEachFragmentOnce(t *testing.T) {
	d, err := NewDataset(scene.DC)
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.Interpret(InterpretOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []Level{Level3, Level4} {
		units := unitsWith(d.KB, in.Fragments, level, partnerQuery(d.Store, in.Fragments))
		for _, sp := range lccUnitSpecs(d.Scene.Name, units, level, false) {
			var want []int
			add := func(f *Fragment) {
				if !slices.Contains(want, f.ID) {
					want = append(want, f.ID)
				}
			}
			for _, u := range sp.units {
				add(u.focal)
				for _, ck := range u.checks {
					for _, p := range ck.partners {
						add(p)
					}
				}
			}
			rows := tlp.NewWireSpec(d.Scene.Name, sp.phase, nil, sp.rows)
			if err := assemble(d.Progs.LCC, d.Store, &sp, rows); err != nil {
				t.Fatal(err)
			}
			var got []int
			for _, r := range rows.Seeds {
				if r.Class == "fragment" {
					got = append(got, int(r.Vals[0].IntVal()))
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: fragment rows %v, want %v", sp.key, got, want)
			}
			rows.Release()
		}
	}
}
