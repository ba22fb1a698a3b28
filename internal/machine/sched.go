// Memory-aware task scheduling on the simulated machine. The
// decomposition is a tree (scene → phase → focal-class group →
// task), and the scheduling literature on exactly this shape —
// Marchal/Sinnen/Vivien, "Scheduling tree-shaped task graphs to
// minimize memory and makespan"; Eyraud-Dubois et al., "Parallel
// scheduling of task trees with limited memory" — shows that the
// traversal order trades peak memory against makespan, and that a
// memory budget turns list scheduling into an admission problem:
// defer dispatch when the aggregate in-flight footprint would exceed
// the budget.
//
// Every policy permutes only the queue order; each task's simulated
// execution is byte-identical across policies — the
// working-memory-distribution independence property, enforced by the
// differential oracles.
package machine

import (
	"container/heap"
	"fmt"
	"sort"

	"spampsm/internal/pmatch"
)

// Policy selects the order in which the simulated control process
// enqueues tasks. The real runtime has no policy: every tlp.Pool and
// cluster queue runs in the order it was submitted, the paper's FIFO.
type Policy uint8

const (
	// PolicyFIFO is the paper's order: tasks dispatched exactly as
	// generated. With no memory budget, RunSpecs reproduces Run
	// byte-for-byte under this policy.
	PolicyFIFO Policy = iota
	// PolicyLargest is longest-processing-time-first: sorting the
	// queue by decreasing duration removes the tail-end effect.
	PolicyLargest
	// PolicyPostOrder is the memory-peak-minimizing tree traversal:
	// tasks are emitted one decomposition subtree (Group) at a time,
	// subtrees in decreasing aggregate footprint, largest-footprint
	// tasks first within each subtree — the Marchal et al. post-order
	// by subtree weight, flattened onto the shared queue. Finishing
	// one subtree before starting the next bounds how many subtrees'
	// working memories are ever simultaneously resident.
	PolicyPostOrder
)

var policyNames = map[Policy]string{
	PolicyFIFO:      "fifo",
	PolicyLargest:   "largest",
	PolicyPostOrder: "postorder",
}

func (p Policy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Policies lists every policy, for experiment sweeps.
func Policies() []Policy { return []Policy{PolicyFIFO, PolicyLargest, PolicyPostOrder} }

// TaskSpec is one task as the scheduler sees it: a duration, a
// modeled memory footprint, and the decomposition subtree it belongs
// to.
type TaskSpec struct {
	Dur   float64 // simulated instructions (match processes applied)
	Mem   float64 // modeled peak footprint, ops5.MemStats.PeakBytes
	Group string  // decomposition subtree (focal-class group)
}

// Specs converts tasks to scheduler specs under m dedicated match
// processes per task process, pulling each task's footprint from its
// cost log's memory record.
func Specs(tasks []Task, m int, model pmatch.Model) []TaskSpec {
	out := make([]TaskSpec, len(tasks))
	for i, t := range tasks {
		out[i] = TaskSpec{Dur: model.TaskInstr(t.Log, m), Mem: t.Log.Mem.PeakBytes, Group: t.Group}
	}
	return out
}

// Order returns the dispatch order (a permutation of spec indices)
// under the given policy. Ties break on the original queue index, so
// every policy is deterministic.
func Order(specs []TaskSpec, pol Policy) []int {
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	switch pol {
	case PolicyFIFO:
		return order
	case PolicyLargest:
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if specs[a].Dur != specs[b].Dur {
				return specs[a].Dur > specs[b].Dur
			}
			return a < b
		})
		return order
	case PolicyPostOrder:
		// Aggregate footprint per subtree, subtrees kept in
		// first-appearance order for deterministic tie-breaks.
		rank := map[string]int{}
		var mem []float64
		for _, s := range specs {
			r, ok := rank[s.Group]
			if !ok {
				r = len(mem)
				rank[s.Group] = r
				mem = append(mem, 0)
			}
			mem[r] += s.Mem
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			ra, rb := rank[specs[a].Group], rank[specs[b].Group]
			if ra != rb {
				if mem[ra] != mem[rb] {
					return mem[ra] > mem[rb]
				}
				return ra < rb
			}
			if specs[a].Mem != specs[b].Mem {
				return specs[a].Mem > specs[b].Mem
			}
			return a < b
		})
		return order
	}
	return order
}

// flightHeap orders in-flight tasks by completion time (index
// tiebreak), for releasing memory reservations in event order.
type flightEntry struct {
	end float64
	mem float64
	seq int
}
type flightHeap []flightEntry

func (h flightHeap) Len() int { return len(h) }
func (h flightHeap) Less(i, j int) bool {
	if h[i].end != h[j].end {
		return h[i].end < h[j].end
	}
	return h[i].seq < h[j].seq
}
func (h flightHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *flightHeap) Push(x interface{}) { *h = append(*h, x.(flightEntry)) }
func (h *flightHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// RunSpecs simulates T task processes pulling tasks in the given
// dispatch order, under an optional memory budget (simulated bytes;
// 0 means unbounded). Whenever a processor frees it takes the next
// task — but if admitting the task would push the aggregate in-flight
// footprint past the budget, dispatch stalls until enough running
// tasks complete (memory-bounded list scheduling). A single task
// larger than the whole budget drains every in-flight task and then
// runs alone, so the schedule never deadlocks; its overrun is visible
// in PeakMem.
//
// With order = 0..n-1 (FIFO) and no budget, RunSpecs performs the
// same float arithmetic as Run and returns byte-identical schedules.
func RunSpecs(specs []TaskSpec, order []int, taskProcs int, ov Overheads, memBudget float64) Schedule {
	if taskProcs < 1 {
		taskProcs = 1
	}
	h := newProcHeap(taskProcs, ov.Fork)
	busy := make([]float64, taskProcs)
	per := make([]float64, len(specs))
	var makespan, inUse, peak float64
	var flight flightHeap
	waits := 0
	for seq, ti := range order {
		s := specs[ti]
		p := heap.Pop(&h).(procEntry)
		start := p.free
		// Release every reservation whose task completed by now.
		for len(flight) > 0 && flight[0].end <= start {
			inUse -= heap.Pop(&flight).(flightEntry).mem
		}
		if memBudget > 0 && inUse+s.Mem > memBudget && len(flight) > 0 {
			waits++
			for inUse+s.Mem > memBudget && len(flight) > 0 {
				e := heap.Pop(&flight).(flightEntry)
				inUse -= e.mem
				if e.end > start {
					start = e.end
				}
			}
		}
		cost := s.Dur + ov.QueuePerTask
		end := start + cost
		busy[p.idx] += cost
		per[ti] = end
		if end > makespan {
			makespan = end
		}
		inUse += s.Mem
		if inUse > peak {
			peak = inUse
		}
		heap.Push(&flight, flightEntry{end: end, mem: s.Mem, seq: seq})
		p.free = end
		heap.Push(&h, p)
	}
	return Schedule{Makespan: makespan, Busy: busy, PerTask: per, PeakMem: peak, ThrottleWaits: waits}
}

// RunPolicy orders specs under a policy and simulates the schedule.
func RunPolicy(specs []TaskSpec, taskProcs int, ov Overheads, pol Policy, memBudget float64) Schedule {
	return RunSpecs(specs, Order(specs, pol), taskProcs, ov, memBudget)
}

// Specs converts the experiment's tasks to scheduler specs under m
// dedicated match processes.
func (e *Experiment) Specs(m int) []TaskSpec {
	return Specs(e.Tasks, m, e.Model)
}
