package tlp

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"spampsm/internal/faults"
	"spampsm/internal/stats"
)

// stack captures the current goroutine's stack for PanicError. It is
// kept out of the error message so reports stay deterministic.
func stack() []byte { return debug.Stack() }

// TaskReport is the attempt accounting of one non-clean task (a task
// that failed at least one attempt).
type TaskReport struct {
	TaskID      string
	SeqInQ      int
	Attempts    int
	Recovered   bool // failed, then a retry succeeded
	Quarantined bool // failed every allowed attempt (or permanently)
	// Errs holds the failed attempts' error messages in attempt order.
	Errs []string
	// WastedInstr is the simulated-instruction cost of the final
	// attempt if it failed (earlier attempts' engines are released
	// before their stats can be aggregated here; the machine simulator
	// models full wasted-work accounting).
	WastedInstr float64
}

// RunReport summarizes the fault-handling of one Pool.Run: every
// attempt, retry and quarantine, with failures classified. With a
// fixed fault seed the report is byte-identical across runs — worker
// identities and wall-clock times are deliberately excluded.
type RunReport struct {
	Tasks       int
	Succeeded   int
	Recovered   int // succeeded after at least one failed attempt
	Quarantined int
	Cancelled   int // abandoned because the run's context was cancelled
	Attempts    int // total attempts across all tasks
	Retries     int // attempts beyond each task's first

	// Failure classification over all failed attempts.
	Panics        int
	Timeouts      int
	BudgetExceeds int
	WorkerCrashes int
	BuildFailures int
	Cancels       int // attempts abandoned to context cancellation
	Injected      int // failed attempts caused by the fault plan

	// PerTask lists every non-clean task in queue order.
	PerTask []TaskReport
}

// Report builds the run's attempt accounting from its results.
func Report(results []*Result) *RunReport {
	rep := &RunReport{}
	for _, r := range results {
		if r == nil {
			continue
		}
		rep.Tasks++
		rep.Attempts += r.Attempts
		// A task cancelled before its first attempt has Attempts == 0;
		// it contributed no retries.
		if r.Attempts > 0 {
			rep.Retries += r.Attempts - 1
		}
		if r.Err == nil {
			rep.Succeeded++
		}
		if r.Quarantined {
			rep.Quarantined++
		}
		if r.Cancelled {
			rep.Cancelled++
		}
		if r.Recovered() {
			rep.Recovered++
		}
		for _, err := range r.AttemptErrs {
			rep.classify(err)
		}
		if len(r.AttemptErrs) == 0 {
			continue
		}
		tr := TaskReport{
			TaskID:      r.TaskID,
			SeqInQ:      r.SeqInQ,
			Attempts:    r.Attempts,
			Recovered:   r.Recovered(),
			Quarantined: r.Quarantined,
		}
		for _, err := range r.AttemptErrs {
			tr.Errs = append(tr.Errs, err.Error())
		}
		if r.Err != nil {
			tr.WastedInstr = r.Stats.TotalInstr()
		}
		rep.PerTask = append(rep.PerTask, tr)
	}
	return rep
}

func (rep *RunReport) classify(err error) {
	var pe *PanicError
	var re *RemoteError
	switch {
	case errors.As(err, &pe):
		rep.Panics++
	// A panic recovered in a worker process crosses the wire as a
	// RemoteError carrying the panic mark; it keeps panic precedence so
	// cluster and single-process reports classify identically.
	case errors.As(err, &re) && re.Marks&MarkPanic != 0:
		rep.Panics++
	case errors.Is(err, ErrCancelled):
		rep.Cancels++
	case errors.Is(err, ErrTimeout):
		rep.Timeouts++
	case errors.Is(err, ErrBudgetExceeded):
		rep.BudgetExceeds++
	case errors.Is(err, ErrWorkerCrash):
		rep.WorkerCrashes++
	default:
		rep.BuildFailures++ // build errors and other pre-run failures
	}
	if errors.Is(err, faults.ErrInjected) {
		rep.Injected++
	}
}

// Clean reports whether the run needed no recovery at all.
func (rep *RunReport) Clean() bool {
	return rep.Retries == 0 && rep.Quarantined == 0 && rep.Succeeded == rep.Tasks
}

// Recovery converts the report to the recovery-overhead columns shared
// with the simulators' fault experiments.
func (rep *RunReport) Recovery() stats.Recovery {
	rec := stats.Recovery{
		Attempts:    rep.Attempts,
		Retries:     rep.Retries,
		Recovered:   rep.Recovered,
		Quarantined: rep.Quarantined,
	}
	for _, t := range rep.PerTask {
		rec.WastedInstr += t.WastedInstr
	}
	return rec
}

// String renders the report deterministically: a summary line, the
// failure classification, and one line per non-clean task in queue
// order.
func (rep *RunReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run report: %d tasks, %d attempts (%d retries); %d succeeded (%d recovered), %d quarantined",
		rep.Tasks, rep.Attempts, rep.Retries, rep.Succeeded, rep.Recovered, rep.Quarantined)
	// Cancellation is only mentioned when it happened, keeping clean
	// and chaos reports byte-identical to their pre-cancellation form.
	if rep.Cancelled > 0 {
		fmt.Fprintf(&b, ", %d cancelled", rep.Cancelled)
	}
	b.WriteByte('\n')
	if rep.Clean() {
		return b.String()
	}
	fmt.Fprintf(&b, "failed attempts: %d panics, %d timeouts, %d budget-exceeded, %d worker crashes, %d build/other (%d injected)\n",
		rep.Panics, rep.Timeouts, rep.BudgetExceeds, rep.WorkerCrashes, rep.BuildFailures, rep.Injected)
	for _, t := range rep.PerTask {
		status := "recovered"
		if t.Quarantined {
			status = "quarantined"
		}
		fmt.Fprintf(&b, "  task %s (queue #%d): %s after %d attempts\n", t.TaskID, t.SeqInQ, status, t.Attempts)
		for i, msg := range t.Errs {
			fmt.Fprintf(&b, "    attempt %d: %s\n", i+1, msg)
		}
	}
	return b.String()
}
