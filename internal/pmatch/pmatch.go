// Package pmatch models ParaOPS5-style match parallelism: within each
// recognize-act cycle, the node activations triggered by the cycle's
// working-memory changes are scheduled onto M dedicated match processes.
//
// The model is structural, which is what gives the paper's saturation
// behaviour: match parallelism is bounded per cycle (a cycle only
// touches a few node activations, each ~100 instructions) and a
// synchronization barrier ends every cycle, so the speedup asymptote is
// governed by the match fraction (Amdahl) and the per-cycle activation
// forest's critical path — not by the number of processes thrown at it.
package pmatch

import (
	"container/heap"

	"spampsm/internal/ops5"
	"spampsm/internal/rete"
)

// Model holds the synchronization-cost parameters of the parallel
// matcher (simulated instructions).
type Model struct {
	// SyncBase is the per-cycle barrier cost paid once dedicated match
	// processes are present.
	SyncBase float64
	// SyncPerProc is the additional per-cycle cost of each match
	// process (work distribution, contention on the activation queue).
	SyncPerProc float64
	// OverlapFrac is the fraction of the act phase that dedicated match
	// processes overlap with: RHS actions stream their working-memory
	// changes to the match processes as they execute, so part of the
	// match is hidden behind the act. This is why even ONE dedicated
	// match process speeds a task up (the paper's Table 9 shows 1.21×
	// with a single match process).
	OverlapFrac float64
}

// DefaultModel matches the ParaOPS5 measurements: a modest per-cycle
// barrier plus per-process distribution overhead, with partial
// act/match overlap. With typical SPAM cycles these constants put the
// match-speedup peak at about 6 processes, as the paper reports.
var DefaultModel = Model{SyncBase: 60, SyncPerProc: 130, OverlapFrac: 0.35}

// finishHeap is a min-heap of running activation finish events.
type finishEvent struct {
	at   float64
	act  *rete.Activation
	tidx int // tiebreak: submission order, keeps the schedule deterministic
}

type finishHeap []finishEvent

func (h finishHeap) Len() int { return len(h) }
func (h finishHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].tidx < h[j].tidx
}
func (h finishHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *finishHeap) Push(x interface{}) { *h = append(*h, x.(finishEvent)) }
func (h *finishHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Makespan list-schedules an activation forest onto m workers,
// respecting spawn order (a child activation becomes ready when its
// parent completes) and returns the completion time in instructions.
// With m <= 1 it returns the serial sum.
func Makespan(roots []*rete.Activation, m int) float64 {
	if m <= 1 {
		var sum float64
		for _, r := range roots {
			sum += r.TotalCost()
		}
		return sum
	}
	ready := append([]*rete.Activation(nil), roots...)
	var running finishHeap
	free := m
	now := 0.0
	seq := 0
	for len(ready) > 0 || running.Len() > 0 {
		for free > 0 && len(ready) > 0 {
			a := ready[0]
			ready = ready[1:]
			seq++
			heap.Push(&running, finishEvent{at: now + a.Cost, act: a, tidx: seq})
			free--
		}
		if running.Len() == 0 {
			break
		}
		ev := heap.Pop(&running).(finishEvent)
		now = ev.at
		free++
		ready = append(ready, ev.act.Children...)
	}
	return now
}

// CriticalPath returns the forest's critical-path length: the lower
// bound on match time with unlimited match processes.
func CriticalPath(roots []*rete.Activation) float64 {
	var longest float64
	for _, r := range roots {
		if cp := pathLen(r); cp > longest {
			longest = cp
		}
	}
	return longest
}

func pathLen(a *rete.Activation) float64 {
	var deepest float64
	for _, c := range a.Children {
		if d := pathLen(c); d > deepest {
			deepest = d
		}
	}
	return a.Cost + deepest
}

// CycleTime returns the duration of one recognize-act cycle under m
// dedicated match processes, roots being its activation forest
// (ops5.CostLog.Roots). m == 0 is the baseline: the task process
// performs the match itself, serially, with no handoff overhead.
func (mo Model) CycleTime(c ops5.CycleCost, roots []*rete.Activation, m int) float64 {
	if m <= 0 {
		return c.Resolve + c.Act + c.Match
	}
	match := Makespan(roots, m)
	if len(roots) == 0 {
		// No capture available: fall back to serial match cost (the
		// schedule cannot be reconstructed).
		match = c.Match
	}
	// Part of the match hides behind the act: the RHS streams its WM
	// changes to the match processes as it runs.
	match -= mo.OverlapFrac * c.Act
	if match < 0 {
		match = 0
	}
	return c.Resolve + c.Act + match + mo.SyncBase + mo.SyncPerProc*float64(m)
}

// TaskInstr returns the full duration of a task (one engine run) under
// m dedicated match processes, including initialization (the loading of
// the task's working memory through the network, which the match
// processes also parallelize).
func (mo Model) TaskInstr(log *ops5.CostLog, m int) float64 {
	var total float64
	if m <= 0 {
		total = log.Init
	} else {
		init := Makespan(log.InitRoots, m)
		if len(log.InitRoots) == 0 {
			init = log.Init
		}
		total = init + mo.SyncBase + mo.SyncPerProc*float64(m)
	}
	for i, c := range log.Cycles {
		total += mo.CycleTime(c, log.Roots(i), m)
	}
	return total
}

// Speedup returns serial-time / m-process-time for one task log.
func (mo Model) Speedup(log *ops5.CostLog, m int) float64 {
	base := mo.TaskInstr(log, 0)
	par := mo.TaskInstr(log, m)
	if par <= 0 {
		return 0
	}
	return base / par
}

// AmdahlLimit returns the theoretical match-parallel speedup limit of a
// task: total / (total - match), i.e. the speedup with an infinitely
// fast match.
func AmdahlLimit(log *ops5.CostLog) float64 {
	total := log.TotalInstr()
	match := log.MatchInstr()
	rest := total - match
	if rest <= 0 {
		return 0
	}
	return total / rest
}
