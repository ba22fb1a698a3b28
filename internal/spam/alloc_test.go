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
// workers' arenas grown by an earlier interpretation — allocates
// 49,155 heap objects, 5.27 MB (±0.1% run to run; 66,055 while joins
// kept equality hash indexes, 1,723,000 before the match path stopped
// building activation labels, per-task match state and RHS attribute
// maps). The ceiling is that count plus 25%.
func TestInterpretDCAllocationCeiling(t *testing.T) {
	const ceiling = 61_500
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
}

// TestSessionRetainedHeapCeiling is the tier-1 guard on what an open
// session pins: live heap (after a collection) with a MOFF session
// open after its initial interpretation and ten 2% updates, over the
// same reading with only the dataset loaded. A session keeps its scene
// clone, region store, grid and every task's result — statistics, cost
// log, a snapshot of the extract classes — and measures 6.99 MB (±1%
// run to run); keeping each task's engine as well held 81.4 MB. The
// ceiling is the measurement plus 25%.
func TestSessionRetainedHeapCeiling(t *testing.T) {
	const ceiling = 8_750_000
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
