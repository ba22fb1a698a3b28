package machine

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randSpecs builds a deterministic pseudo-random task set with
// durations, footprints and a handful of groups.
func randSpecs(rng *rand.Rand, n int) []TaskSpec {
	groups := []string{"b", "rd", "rs", "f", "pl"}
	specs := make([]TaskSpec, n)
	for i := range specs {
		specs[i] = TaskSpec{
			Dur:   float64(rng.Intn(500)) * 1e4,
			Mem:   float64(1+rng.Intn(64)) * 1024,
			Group: groups[rng.Intn(len(groups))],
		}
	}
	return specs
}

// TestDifferentialFIFOSpecsMatchRun is the scheduling oracle's anchor:
// under the FIFO policy with no budget, RunSpecs must reproduce Run
// byte-for-byte — same float arithmetic, same Makespan, Busy and
// PerTask — so every other policy differs only by its permutation.
func TestDifferentialFIFOSpecsMatchRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ov := Overheads{Fork: 5e4, QueuePerTask: 2e4}
	for _, n := range []int{1, 2, 17, 100} {
		specs := randSpecs(rng, n)
		durs := make([]float64, n)
		for i, s := range specs {
			durs[i] = s.Dur
		}
		for _, p := range []int{1, 3, 7, 16, 64} {
			want := Run(durs, p, ov)
			got := RunSpecs(specs, Order(specs, PolicyFIFO), p, ov, 0)
			if got.Makespan != want.Makespan {
				t.Errorf("n=%d p=%d: makespan %v, Run gives %v", n, p, got.Makespan, want.Makespan)
			}
			if !reflect.DeepEqual(got.Busy, want.Busy) || !reflect.DeepEqual(got.PerTask, want.PerTask) {
				t.Errorf("n=%d p=%d: Busy/PerTask diverge from Run", n, p)
			}
		}
	}
}

func TestSchedZeroTasks(t *testing.T) {
	ov := Overheads{Fork: 5e4, QueuePerTask: 2e4}
	for _, pol := range Policies() {
		s := RunPolicy(nil, 4, ov, pol, 1024)
		if s.Makespan != 0 || s.PeakMem != 0 || s.ThrottleWaits != 0 || len(s.PerTask) != 0 {
			t.Errorf("%v: zero tasks must yield an empty schedule, got %+v", pol, s)
		}
	}
}

func TestSchedZeroDurationTasks(t *testing.T) {
	ov := Overheads{Fork: 1e4, QueuePerTask: 3e4}
	specs := make([]TaskSpec, 10)
	for i := range specs {
		specs[i] = TaskSpec{Mem: 512}
	}
	for _, pol := range Policies() {
		s := RunPolicy(specs, 4, ov, pol, 0)
		var busy float64
		for _, b := range s.Busy {
			busy += b
		}
		if want := float64(len(specs)) * ov.QueuePerTask; busy != want {
			t.Errorf("%v: busy %v, want queue overhead only %v", pol, busy, want)
		}
		for i, end := range s.PerTask {
			if end <= 0 {
				t.Fatalf("%v: zero-duration task %d never completed", pol, i)
			}
		}
	}
}

// TestSchedTieBreakDeterminism: with every duration, footprint and
// group equal, each policy must fall back to the original queue index,
// and repeated calls must agree.
func TestSchedTieBreakDeterminism(t *testing.T) {
	specs := make([]TaskSpec, 20)
	for i := range specs {
		specs[i] = TaskSpec{Dur: 1e5, Mem: 2048, Group: "g"}
	}
	for _, pol := range Policies() {
		order := Order(specs, pol)
		for i, ti := range order {
			if ti != i {
				t.Errorf("%v: tied tasks reordered: order[%d] = %d", pol, i, ti)
			}
		}
		if again := Order(specs, pol); !reflect.DeepEqual(order, again) {
			t.Errorf("%v: order not deterministic across calls", pol)
		}
	}
}

// TestQuickEveryPolicyPermutation: every policy's order executes the
// same task multiset — a permutation of 0..n-1, each index exactly
// once — and its schedule conserves the total work.
func TestQuickEveryPolicyPermutation(t *testing.T) {
	ov := Overheads{Fork: 5e4, QueuePerTask: 2e4}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		specs := randSpecs(rng, int(n%50)+1)
		var want float64
		for _, s := range specs {
			want += s.Dur + ov.QueuePerTask
		}
		for _, pol := range Policies() {
			order := Order(specs, pol)
			seen := make([]bool, len(specs))
			for _, ti := range order {
				if ti < 0 || ti >= len(specs) || seen[ti] {
					return false
				}
				seen[ti] = true
			}
			if len(order) != len(specs) {
				return false
			}
			sched := RunSpecs(specs, order, 6, ov, 0)
			var busy float64
			for _, b := range sched.Busy {
				busy += b
			}
			if busy != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchedBudgetRespected(t *testing.T) {
	ov := Overheads{QueuePerTask: 1e4}
	specs := make([]TaskSpec, 24)
	for i := range specs {
		// Uneven durations, footprints and subtrees, so the three
		// policies dispatch in three different orders.
		specs[i] = TaskSpec{Dur: 1e5 * float64(1+i%5), Mem: 60 + 10*float64(i%5), Group: string(rune('a' + i%3))}
	}
	const budget = 250 // room for two tasks in flight, not three of the largest
	for _, pol := range Policies() {
		unbounded := RunPolicy(specs, 8, ov, pol, 0)
		bounded := RunPolicy(specs, 8, ov, pol, budget)
		if unbounded.PeakMem <= budget {
			t.Fatalf("%s: unbounded peak %v under budget: test is vacuous", pol, unbounded.PeakMem)
		}
		if bounded.PeakMem > budget {
			t.Errorf("%s: bounded peak %v exceeds budget %v", pol, bounded.PeakMem, budget)
		}
		if bounded.ThrottleWaits == 0 {
			t.Errorf("%s: budget bound but no throttle waits recorded", pol)
		}
		if bounded.Makespan < unbounded.Makespan {
			t.Errorf("%s: throttled makespan %v beat unbounded %v", pol, bounded.Makespan, unbounded.Makespan)
		}
	}
}

// TestSchedOversizedTaskNoDeadlock: a task larger than the whole
// budget must drain the in-flight set and run alone, never stall the
// schedule, and surface its overrun in PeakMem.
func TestSchedOversizedTaskNoDeadlock(t *testing.T) {
	ov := Overheads{QueuePerTask: 1e4}
	specs := []TaskSpec{
		{Dur: 1e5, Mem: 100}, {Dur: 1e5, Mem: 100},
		{Dur: 1e5, Mem: 1000}, // over the whole budget
		{Dur: 1e5, Mem: 100}, {Dur: 1e5, Mem: 100},
	}
	sched := RunPolicy(specs, 4, ov, PolicyFIFO, 300)
	for i, end := range sched.PerTask {
		if end <= 0 {
			t.Fatalf("task %d never completed", i)
		}
	}
	if sched.PeakMem < 1000 {
		t.Errorf("oversized task's overrun invisible: peak %v", sched.PeakMem)
	}
}

// TestDifferentialPoliciesWorkConserved: the policies trade makespan
// and peak memory, never the amount of work.
func TestDifferentialPoliciesWorkConserved(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ov := Overheads{Fork: 5e4, QueuePerTask: 2e4}
	specs := randSpecs(rng, 60)
	var want float64
	for _, s := range specs {
		want += s.Dur + ov.QueuePerTask
	}
	for _, budget := range []float64{0, 16 * 1024, 48 * 1024} {
		for _, pol := range Policies() {
			sched := RunPolicy(specs, 8, ov, pol, budget)
			var busy float64
			for _, b := range sched.Busy {
				busy += b
			}
			if busy != want {
				t.Errorf("%v/B=%v: busy %v, want %v", pol, budget, busy, want)
			}
		}
	}
}

// BenchmarkSchedulerPolicies is the bench-quick scheduler
// microbenchmark: ordering and simulating a 2000-task queue under
// every policy, bounded and unbounded.
func BenchmarkSchedulerPolicies(b *testing.B) {
	rng := rand.New(rand.NewSource(1990))
	specs := randSpecs(rng, 2000)
	ov := Overheads{Fork: 5e4, QueuePerTask: 2e4}
	for _, pol := range Policies() {
		for _, budget := range []float64{0, 128 * 1024} {
			name := pol.String()
			if budget > 0 {
				name += "-bounded"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					RunPolicy(specs, 32, ov, pol, budget)
				}
			})
		}
	}
}
