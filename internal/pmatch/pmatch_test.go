package pmatch

import (
	"math"
	"testing"
	"testing/quick"

	"spampsm/internal/ops5"
	"spampsm/internal/rete"
)

func leaf(c float64) *rete.Activation { return &rete.Activation{Cost: c} }

func node(c float64, kids ...*rete.Activation) *rete.Activation {
	return &rete.Activation{Cost: c, Children: kids}
}

func TestMakespanSerial(t *testing.T) {
	roots := []*rete.Activation{leaf(10), leaf(20), leaf(30)}
	if got := Makespan(roots, 1); got != 60 {
		t.Errorf("serial makespan = %v, want 60", got)
	}
	if got := Makespan(roots, 0); got != 60 {
		t.Errorf("m=0 makespan = %v, want 60", got)
	}
}

func TestMakespanIndependent(t *testing.T) {
	roots := []*rete.Activation{leaf(10), leaf(10), leaf(10), leaf(10)}
	if got := Makespan(roots, 2); got != 20 {
		t.Errorf("2 workers = %v, want 20", got)
	}
	if got := Makespan(roots, 4); got != 10 {
		t.Errorf("4 workers = %v, want 10", got)
	}
	if got := Makespan(roots, 100); got != 10 {
		t.Errorf("100 workers = %v, want 10 (bounded by task size)", got)
	}
}

func TestMakespanPrecedence(t *testing.T) {
	// A chain is not parallelizable.
	chain := node(10, node(10, node(10, leaf(10))))
	if got := Makespan([]*rete.Activation{chain}, 8); got != 40 {
		t.Errorf("chain makespan = %v, want 40", got)
	}
	// A root spawning 3 children: root first, then children in parallel.
	tree := node(10, leaf(10), leaf(10), leaf(10))
	if got := Makespan([]*rete.Activation{tree}, 3); got != 20 {
		t.Errorf("tree makespan = %v, want 20", got)
	}
	if got := Makespan([]*rete.Activation{tree}, 2); got != 30 {
		t.Errorf("tree on 2 = %v, want 30", got)
	}
}

func TestCriticalPath(t *testing.T) {
	tree := node(10, leaf(5), node(3, leaf(20)))
	if got := CriticalPath([]*rete.Activation{tree}); got != 33 {
		t.Errorf("critical path = %v, want 33", got)
	}
	if CriticalPath(nil) != 0 {
		t.Error("empty critical path should be 0")
	}
}

func TestMakespanNeverBelowCriticalPath(t *testing.T) {
	f := func(seed uint8) bool {
		// Build a deterministic random-ish forest from the seed.
		var roots []*rete.Activation
		s := uint64(seed) + 1
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s%97) + 1
		}
		for i := 0; i < 5; i++ {
			r := node(next(), node(next(), leaf(next())), leaf(next()))
			roots = append(roots, r)
		}
		serial := Makespan(roots, 1)
		cp := CriticalPath(roots)
		for m := 2; m <= 8; m++ {
			ms := Makespan(roots, m)
			if ms < cp-1e-9 || ms > serial+1e-9 {
				return false
			}
		}
		// Monotone: more workers never hurt.
		return Makespan(roots, 4) <= Makespan(roots, 2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func buildLog(t *testing.T) *ops5.CostLog {
	t.Helper()
	// Synthesize a log with wide match forests so parallelism helps.
	// Cycle sizes are SPAM-like (tens of thousands of instructions) so
	// the model's per-process sync costs are realistic in proportion.
	log := &ops5.CostLog{Init: 1000}
	for i := 0; i < 20; i++ {
		var roots []*rete.Activation
		var match float64
		for j := 0; j < 12; j++ {
			a := node(400, leaf(600))
			roots = append(roots, a)
			match += a.TotalCost()
		}
		log.Cycles = append(log.Cycles, ops5.CycleCost{Resolve: 500, Act: 9000, Match: match})
		log.CycleRoots = append(log.CycleRoots, roots)
	}
	return log
}

func TestTaskInstrBaselineMatchesLog(t *testing.T) {
	log := buildLog(t)
	mo := DefaultModel
	if got, want := mo.TaskInstr(log, 0), log.TotalInstr(); math.Abs(got-want) > 1e-9 {
		t.Errorf("baseline task time %v != log total %v", got, want)
	}
}

func TestMatchSpeedupSaturates(t *testing.T) {
	log := buildLog(t)
	mo := DefaultModel
	limit := AmdahlLimit(log)
	if limit <= 1 {
		t.Fatalf("limit = %v", limit)
	}
	s2 := mo.Speedup(log, 2)
	s6 := mo.Speedup(log, 6)
	s12 := mo.Speedup(log, 12)
	if s2 <= 1.0 {
		t.Errorf("2-process speedup = %v, want > 1", s2)
	}
	if s6 < s2 {
		t.Errorf("speedup should grow to ~6 processes: s2=%v s6=%v", s2, s6)
	}
	for _, s := range []float64{s2, s6, s12} {
		if s > limit {
			t.Errorf("speedup %v exceeds Amdahl limit %v", s, limit)
		}
	}
	// Far past the useful range, per-process sync overhead should stop
	// or reverse the gains.
	if s12 > s6+0.05 {
		t.Errorf("speedup should be flat/declining past saturation: s6=%v s12=%v", s6, s12)
	}
}

func TestAmdahlLimit(t *testing.T) {
	log := &ops5.CostLog{Init: 0, Cycles: []ops5.CycleCost{{Resolve: 0, Act: 50, Match: 50}}}
	if got := AmdahlLimit(log); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("limit = %v, want 2 (50%% match)", got)
	}
}

func TestCycleTimeNoCaptureFallsBack(t *testing.T) {
	c := ops5.CycleCost{Resolve: 10, Act: 20, Match: 30} // no roots captured
	mo := DefaultModel
	serial := mo.CycleTime(c, nil, 0)
	if serial != 60 {
		t.Errorf("serial cycle = %v", serial)
	}
	par := mo.CycleTime(c, nil, 4)
	if par <= serial {
		// Without captured roots the match cannot be parallelized, so
		// dedicated processes only add overhead.
		t.Errorf("uncaptured parallel cycle %v should exceed serial %v", par, serial)
	}
}

func TestMakespanDeterministic(t *testing.T) {
	roots := []*rete.Activation{node(7, leaf(3), leaf(9)), leaf(11), node(2, leaf(5))}
	a := Makespan(roots, 3)
	for i := 0; i < 10; i++ {
		if b := Makespan(roots, 3); b != a {
			t.Fatalf("nondeterministic makespan: %v vs %v", a, b)
		}
	}
}
