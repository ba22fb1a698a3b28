package machine

import (
	"container/heap"
	"math"

	"spampsm/internal/faults"
	"spampsm/internal/stats"
)

// RunWithFailures simulates the shared-queue execution model of Run
// under processor loss: each failure kills one task process at a
// virtual time. A task in flight on a dying processor is charged as
// wasted work up to the moment of death and goes back to the head of
// the queue — exactly the recovery the SPAM/PSM design affords,
// because the task never synchronized with anything but the queue and
// can be rebuilt from scratch. Only the first failure per processor
// takes effect.
//
// The schedule is a pure function of its inputs, so fault experiments
// are reproducible. If every processor dies before the queue drains,
// the remaining tasks' completion times (and the makespan) are +Inf.
func RunWithFailures(durations []float64, taskProcs int, ov Overheads, failures []faults.ProcFailure) (Schedule, stats.Recovery) {
	if taskProcs < 1 {
		taskProcs = 1
	}
	dieAt := make(map[int]float64, len(failures))
	for _, f := range failures {
		if f.Proc < 0 || f.Proc >= taskProcs {
			continue
		}
		if at, ok := dieAt[f.Proc]; !ok || f.At < at {
			dieAt[f.Proc] = f.At
		}
	}
	h := newProcHeap(taskProcs, ov.Fork)
	busy := make([]float64, taskProcs)
	per := make([]float64, len(durations))
	var makespan float64
	var rec stats.Recovery
	for i, d := range durations {
		assigned := false
		for h.Len() > 0 {
			p := heap.Pop(&h).(procEntry)
			cost := d + ov.QueuePerTask
			if at, dies := dieAt[p.idx]; dies {
				if p.free >= at {
					// Dead before it could fetch another task: retire it
					// and let the next-free processor take the task.
					rec.DeadProcs++
					continue
				}
				if p.free+cost > at {
					// Dies mid-task: the partial work is wasted and the
					// task is requeued on whichever processor frees next.
					rec.WastedInstr += at - p.free
					rec.Requeued++
					rec.Retries++
					busy[p.idx] += at - p.free
					rec.DeadProcs++
					continue
				}
			}
			p.free += cost
			busy[p.idx] += cost
			per[i] = p.free
			if p.free > makespan {
				makespan = p.free
			}
			heap.Push(&h, p)
			assigned = true
			break
		}
		if !assigned {
			// Every processor died; the rest of the queue never runs.
			for j := i; j < len(per); j++ {
				per[j] = math.Inf(1)
			}
			makespan = math.Inf(1)
			break
		}
	}
	rec.Attempts = rec.Requeued + len(durations)
	return Schedule{Makespan: makespan, Busy: busy, PerTask: per}, rec
}
