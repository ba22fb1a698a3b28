package spam

import (
	"runtime"
	"testing"

	"spampsm/internal/scene"
)

// TestInterpretDCAllocationCeiling is the tier-1 allocation guard for
// the whole match path (the benchmark that measures bytes lives outside
// tier-1): one DC interpretation with re-entry on a warmed pool — its
// workers' arenas grown by an earlier interpretation — allocates
// 103,090 heap objects (±0.1% run to run; 1,723,000 before the match
// path stopped building activation labels, per-task match state and
// RHS attribute maps). The ceiling is that count plus 25%.
func TestInterpretDCAllocationCeiling(t *testing.T) {
	const ceiling = 129_000
	d, err := NewDataset(scene.DC)
	if err != nil {
		t.Fatal(err)
	}
	opt := InterpretOptions{ReEntry: true}
	opt.Runner = newPoolRunner(opt.withDefaults())
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
