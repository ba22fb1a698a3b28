package spam

import (
	"context"
	"runtime"
	"testing"

	"spampsm/internal/scene"
)

// TestInterpretDCAllocationCeiling is the tier-1 allocation guard for
// the whole match path (the benchmark that measures bytes lives outside
// tier-1): one DC interpretation with re-entry on a warmed pool — its
// workers' arenas grown by an earlier interpretation — allocates 6,805
// heap objects and 1.01 MB (±0.1% run to run; 10,440 objects and 1.28
// MB while the phase planners grew their specs' members, pairs, checks
// and partner lists in fresh slices and maps and sorted each unit's
// checks through sort.Slice — 11,580 objects and 1.36 MB when the
// ceiling was last set — 14,980 objects and 2.17
// MB while each task copied its extract classes' rows out of its
// working memory instead of answering with its phase's output, 27,615
// objects and 4.40 MB while each task heap-allocated its seed set, its
// cost log's growth and its external calls' arguments, about 50,400
// objects while each engine grew a conflict set of its own instead of
// reusing the one the last engine on its worker parked, 66,055 while
// joins kept equality hash indexes, 1,723,000 before the match path
// stopped building activation labels, per-task match state and RHS
// attribute maps). The ceilings are those counts plus 25%.
func TestInterpretDCAllocationCeiling(t *testing.T) {
	const ceiling, byteCeiling = 8_510, 1_260_000
	d, err := NewDataset(scene.DC)
	if err != nil {
		t.Fatal(err)
	}
	opt := InterpretOptions{ReEntry: true}
	opt.Runner = privateQueue(opt.withDefaults())
	if _, err := d.Interpret(opt); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	in, err := d.Interpret(opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if in.TotalFirings() == 0 {
		t.Fatal("interpretation fired nothing: the guard is vacuous")
	}
	if got := after.Mallocs - before.Mallocs; got > ceiling {
		t.Errorf("one warmed DC interpretation allocated %d objects, ceiling %d", got, ceiling)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > byteCeiling {
		t.Errorf("one warmed DC interpretation allocated %d bytes, ceiling %d", got, byteCeiling)
	}
}

// TestSessionUpdateAllocationCeiling is the tier-1 allocation guard for
// a session update: one 2%-churn update of a MOFF session whose pool
// is warmed by its initial interpretation and two updates. It
// allocates 5,545 heap objects and 1.01 MB (±0.5% run to run); 24,770
// objects and 1.66 MB while every update's planning re-grew each FA
// object's pairs in a map of slices and each unit's checks and partner
// lists in slices of their own, and the signer heap-allocated a row's
// length prefix and every task's class sums. The ceilings are the
// measurement plus 25%.
func TestSessionUpdateAllocationCeiling(t *testing.T) {
	const ceiling, byteCeiling = 6_930, 1_260_000
	d, err := NewDataset(scene.MOFF)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(d, InterpretOptions{ReEntry: true})
	_, _, err = sess.Interpret(context.Background())
	for k := uint64(0); err == nil && k < 2; k++ {
		_, _, err = sess.Update(context.Background(), sess.Scene().Churn(scene.DefaultChurn(1990+k, 0.02)))
	}
	if err != nil {
		t.Fatal(err)
	}
	delta := sess.Scene().Churn(scene.DefaultChurn(1992, 0.02))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, rep, err := sess.Update(context.Background(), delta)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reused == 0 || rep.Rerun+rep.Fresh == 0 {
		t.Fatalf("the update reused %d tasks and ran %d: the guard measures no update", rep.Reused, rep.Rerun+rep.Fresh)
	}
	if got := after.Mallocs - before.Mallocs; got > ceiling {
		t.Errorf("one warmed MOFF session update allocated %d objects, ceiling %d", got, ceiling)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > byteCeiling {
		t.Errorf("one warmed MOFF session update allocated %d bytes, ceiling %d", got, byteCeiling)
	}
}

// TestSessionRetainedHeapCeiling is the tier-1 guard on what an open
// session pins: live heap (after a collection) with a MOFF session
// open after its initial interpretation and ten 2% updates, over the
// same reading with only the dataset loaded. A session keeps its scene
// clone, region store and every task's result — statistics, cost log,
// the task's output — and measures 2.92 MB (±2% run to run); 3.00 MB
// while it kept a partner grid across updates, 4.06 MB while it kept a
// snapshot of each task's extract classes instead
// (5,970 check rows where the outputs hold 1,318 pairs), 4.57 MB while
// each retained cost log kept its growth
// slack and 48 bytes a cycle (the 6.99 MB measured when sessions
// stopped keeping engines had drifted down to that since), and keeping
// each task's engine as well held 81.4 MB. The ceiling is the
// measurement plus 25%.
func TestSessionRetainedHeapCeiling(t *testing.T) {
	const ceiling = 3_650_000
	d, err := NewDataset(scene.MOFF)
	if err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := live()
	sess := NewSession(d, InterpretOptions{ReEntry: true})
	_, _, err = sess.Interpret(context.Background())
	for k := uint64(0); err == nil && k < 10; k++ {
		_, _, err = sess.Update(context.Background(), sess.Scene().Churn(scene.DefaultChurn(1990+k, 0.02)))
	}
	if err != nil {
		t.Fatal(err)
	}
	held := int64(live()) - int64(base)
	runtime.KeepAlive(sess)
	runtime.KeepAlive(d)
	if len(sess.tasks) == 0 {
		t.Fatal("the session caches nothing: the guard is vacuous")
	}
	if held > ceiling {
		t.Errorf("an open MOFF session after 10 updates holds %.2f MB of live heap, ceiling %.2f MB", float64(held)/1e6, float64(ceiling)/1e6)
	}
}
