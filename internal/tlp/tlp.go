// Package tlp is the task-level-parallelism runtime of SPAM/PSM: a
// control process, a shared task queue, and a set of task processes,
// each a complete and independent OPS5 engine (working-memory
// distribution). Production firing is asynchronous: task processes
// never synchronize with each other, only with the queue.
//
// This package provides the *real* concurrent execution (goroutine
// task processes pulling from a shared queue), used by the examples
// and for correctness; the deterministic speedup measurements run the
// same task logs through internal/machine, because reproducing the
// paper's 14-processor curves requires more processors than the host
// may have.
//
// The runtime is fault-tolerant (see docs/ROBUSTNESS.md). The paper's
// independence property — tasks share nothing and synchronize only
// with the queue — makes recovery trivial by construction: a failed or
// panicking task loses only its own working memory, and because
// Task.Build constructs a fresh engine, re-execution is idempotent.
// Pool therefore recovers panics into Result.Err, enforces per-task
// firing budgets and wall-clock deadlines, retries transient failures
// with exponential backoff, quarantines poison tasks after the retry
// budget, and accounts for every attempt in a RunReport.
package tlp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"spampsm/internal/faults"
	"spampsm/internal/ops5"
)

// Sentinel errors classifying task failures.
var (
	// ErrTimeout marks a task that exceeded the pool's wall-clock
	// deadline and was interrupted.
	ErrTimeout = errors.New("tlp: task deadline exceeded")
	// ErrBudgetExceeded marks a task that hit the pool's firing budget
	// without reaching quiescence or halting.
	ErrBudgetExceeded = errors.New("tlp: firing budget exceeded")
	// ErrWorkerCrash marks a task whose worker (simulated) crashed
	// mid-execution; the partial work is lost.
	ErrWorkerCrash = errors.New("tlp: worker crashed")
	// ErrCancelled marks a task abandoned because its run's context was
	// cancelled or timed out: skipped before starting, interrupted
	// mid-attempt, or aborted during a retry backoff. A cancelled task
	// is never quarantined — cancellation says nothing about whether
	// the task itself is poison.
	ErrCancelled = errors.New("tlp: task cancelled")
)

// PanicError is a recovered task panic. Its message deliberately
// excludes the stack trace so chaos-run reports are byte-identical
// across runs; the stack is retained separately for debugging.
type PanicError struct {
	TaskID string
	Value  interface{}
	Stack  []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("tlp: task %s panicked: %v", e.TaskID, e.Value)
}

// Unwrap exposes an error panic value, so markers like
// faults.ErrPermanent survive the recovery.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Task is one independent unit of SPAM work: Build constructs a fresh
// engine loaded with the task's working memory (the task itself is
// "just a working memory element, which initializes the production
// system of the process").
type Task struct {
	ID    string
	Label string
	// Group names the task's aggregation unit (for SPAM: the focal
	// object's class), used to roll task statistics up to coarser
	// decomposition levels.
	Group string
	// EstSize is the scheduler's size estimate (SPAM "can provide the
	// necessary information to identify the sizes of the tasks");
	// LargestFirst uses it to fight the tail-end effect.
	EstSize float64
	// MemEst is the task's modeled memory footprint in simulated bytes
	// (seed working memory plus expected match state, see wm.WMEBytes).
	// The PostOrder policy orders subtrees by it.
	MemEst float64
	Build  func() (*ops5.Engine, error)
	// BuildWith, when set, is preferred over Build and receives the
	// executing worker's match arena. A builder that threads it to
	// ops5.NewEngine via WithScratch gets an engine that borrows the
	// arena and is settled — its match state and its working memory
	// handed back to the worker, its statistics, counters and cost log
	// left readable — when the worker finishes the task; a builder that
	// ignores it gets an engine that owns its memory.
	BuildWith func(s *ops5.Scratch) (*ops5.Engine, error)
	// Extract names the classes of the final working memory the task's
	// consumer reads. On a clean run the worker copies their rows into
	// Result.Snapshot before it settles the engine; a task that names
	// none leaves nothing to read of a borrowing engine's memory.
	Extract []string
	// Wire, when set, produces the task's shippable description for the
	// cluster runtime (internal/cluster). It is lazy — a local run never
	// calls it — and must be a pure function of the task: the worker
	// process rebuilds an engine from the WireSpec that is byte-identical
	// to what Build constructs here.
	Wire func() (*WireSpec, error)
}

// build constructs the task's engine, preferring BuildWith.
func (t *Task) build(s *ops5.Scratch) (*ops5.Engine, error) {
	if t.BuildWith != nil {
		return t.BuildWith(s)
	}
	return t.Build()
}

// Result is the outcome of one executed task (its final attempt).
type Result struct {
	TaskID string
	Stats  ops5.RunStats
	Log    *ops5.CostLog
	Engine *ops5.Engine // retained for result extraction
	Err    error
	Worker int // which task process executed it (last attempt)
	SeqInQ int // position in the executed queue order

	// Attempts is the number of times the task was executed (1 for a
	// clean first run). Stats/Log describe the final attempt; earlier
	// attempts' costs are wasted work, visible in the RunReport.
	Attempts int
	// AttemptErrs records the error of every failed attempt in order
	// (the final entry equals Err when the task ultimately failed).
	AttemptErrs []error
	// Quarantined marks a poison task: it failed every allowed attempt
	// (or failed permanently) and was removed from further retrying.
	Quarantined bool
	// Cancelled marks a task abandoned because the run's context was
	// cancelled (Err wraps ErrCancelled). Cancelled tasks are not
	// quarantined and carry no verdict on the task itself.
	Cancelled bool

	// Snapshot holds the rows of the task's Extract classes, copied out
	// of the final working memory before the engine was settled — by
	// the pool worker in process, by the worker process across the wire
	// (whose results carry no Engine). Use WMEs to read final working
	// memory.
	Snapshot Snapshot
	// ShipBytes is the wire cost of this task when it ran on a cluster
	// worker: encoded task frame plus encoded result frame, in bytes.
	// Zero for in-process execution.
	ShipBytes int
}

// Recovered reports whether the task failed at least once but
// ultimately succeeded.
func (r *Result) Recovered() bool { return r.Err == nil && len(r.AttemptErrs) > 0 }

// QueuePolicy orders the task queue.
type QueuePolicy uint8

const (
	// FIFO executes tasks in submission order (the paper's setup).
	FIFO QueuePolicy = iota
	// LargestFirst puts big tasks at the head of the queue, the
	// scheduling improvement the paper proposes as future work to
	// remove the tail-end effect.
	LargestFirst
	// PostOrder emits the queue one decomposition subtree (Group) at a
	// time — subtrees by decreasing aggregate MemEst, larger tasks
	// first within a subtree — the memory-peak-minimizing traversal of
	// Marchal et al. (see machine.PolicyPostOrder; the two packages
	// share one policy vocabulary and one flag surface).
	PostOrder
)

var queuePolicyNames = map[QueuePolicy]string{
	FIFO:         "fifo",
	LargestFirst: "largest",
	PostOrder:    "postorder",
}

func (qp QueuePolicy) String() string {
	if s, ok := queuePolicyNames[qp]; ok {
		return s
	}
	return fmt.Sprintf("policy(%d)", uint8(qp))
}

// ParseQueuePolicy parses the shared policy vocabulary: "fifo",
// "largest", "postorder" — the -sched flag of spamrun/spambench and
// the spamserve scheduler config.
func ParseQueuePolicy(s string) (QueuePolicy, error) {
	for qp, name := range queuePolicyNames {
		if s == name {
			return qp, nil
		}
	}
	return FIFO, fmt.Errorf("tlp: unknown scheduling policy %q (want fifo, largest or postorder)", s)
}

// RunConfig is how one run's task queue is executed: its order, the
// per-task budgets and deadlines, the retry discipline and the fault
// plan. It is a plain comparable value — the one form in which these
// knobs travel from a caller's options to a Queue's Submit (a Pool,
// the cluster Coordinator) and on to a cluster worker's pool — and
// holds exactly what Order, runOne and attempt read.
type RunConfig struct {
	Policy QueuePolicy
	// FiringBudget is the per-task limit in production firings: a task
	// still short of quiescence when the budget runs out fails with
	// ErrBudgetExceeded. 0 disables the budget.
	FiringBudget int
	// MaxRetries is how many times a failed task is re-executed (the
	// engine is rebuilt from scratch each time, so re-execution is
	// idempotent). After 1+MaxRetries failed attempts the task is
	// quarantined. Failures wrapping faults.ErrPermanent skip retries
	// and quarantine immediately.
	MaxRetries int
	// TaskTimeout is the per-attempt wall-clock deadline; an attempt
	// still running when it expires is interrupted and fails with
	// ErrTimeout. 0 disables the deadline.
	TaskTimeout time.Duration
	// RetryBackoff is the wall-clock delay before the first retry;
	// each further retry doubles it. 0 retries immediately.
	RetryBackoff time.Duration
	// Faults injects deterministic failures (chaos runs); the zero
	// config injects nothing.
	Faults faults.Config
}

// Queue executes one run's task queue under the run's configuration on
// workers the queue owns, returning a Result per task in queue order:
// a Pool in process, the cluster Coordinator across processes.
type Queue interface {
	Submit(ctx context.Context, cfg RunConfig, tasks []*Task) ([]*Result, error)
}

// BoundQueue is a Queue bound to one run's configuration: what a phase
// driver that only knows "run this queue" (spam.Runner) is handed.
type BoundQueue struct {
	Queue  Queue
	Config RunConfig
}

// RunTasks submits the queue under the bound configuration.
func (b BoundQueue) RunTasks(ctx context.Context, tasks []*Task) ([]*Result, error) {
	return b.Queue.Submit(ctx, b.Config, tasks)
}

// Order returns the queue order under the run's policy. Every policy
// permutes the same task set, so per-task results are byte-identical
// across policies (the differential scheduling oracle); only queue
// positions and wall-clock interleaving differ. Exported so the cluster
// coordinator orders its shipping queue as a pool would and per-task
// SeqInQ values match a single-process run.
func (c *RunConfig) Order(tasks []*Task) []*Task {
	q := append([]*Task(nil), tasks...)
	switch c.Policy {
	case LargestFirst:
		sort.SliceStable(q, func(i, j int) bool { return q[i].EstSize > q[j].EstSize })
	case PostOrder:
		// Aggregate footprint per subtree; subtrees keep their
		// first-appearance rank so ties stay deterministic.
		rank := map[string]int{}
		var mem []float64
		for _, t := range q {
			r, ok := rank[t.Group]
			if !ok {
				r = len(mem)
				rank[t.Group] = r
				mem = append(mem, 0)
			}
			mem[r] += t.MemEst
		}
		sort.SliceStable(q, func(i, j int) bool {
			ri, rj := rank[q[i].Group], rank[q[j].Group]
			if ri != rj {
				if mem[ri] != mem[rj] {
					return mem[ri] > mem[rj]
				}
				return ri < rj
			}
			return q[i].MemEst > q[j].MemEst
		})
	}
	return q
}

const (
	// maxBackoffShift caps the number of retry-backoff doublings. An
	// uncapped shift overflowed time.Duration for large MaxRetries
	// (attempt 65 shifted RetryBackoff past 63 bits), producing
	// negative — i.e. zero — or absurd sleeps.
	maxBackoffShift = 16
	// maxRetryDelay saturates the backoff: a task runtime gains
	// nothing from sleeping longer between re-executions.
	maxRetryDelay = time.Minute
)

// retryDelay returns the backoff before re-running a task whose
// attempt'th attempt (1-based) just failed: base doubled per failed
// attempt, with the exponent capped and the result saturating at
// maxRetryDelay instead of overflowing.
func retryDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	// Comparing against the pre-shifted cap avoids overflow entirely:
	// maxRetryDelay>>shift is exact (no low bits lost at these
	// magnitudes), so base exceeds it iff base<<shift would exceed
	// maxRetryDelay.
	if base > maxRetryDelay>>shift {
		return maxRetryDelay
	}
	return base << shift
}

// cancelledResult builds the Result of a task abandoned to
// cancellation before (or between) attempts.
func cancelledResult(t *Task, seq, attempts int, attemptErrs []error, cause error) *Result {
	err := fmt.Errorf("tlp: task %s: %w: %w", t.ID, ErrCancelled, cause)
	return &Result{
		TaskID: t.ID, SeqInQ: seq, Err: err, Cancelled: true,
		Attempts: attempts, AttemptErrs: append(attemptErrs, err),
	}
}

// runOne executes one task with bounded retries: a failed attempt is
// re-run on a freshly built engine after an exponential backoff, up to
// 1+MaxRetries attempts; permanent faults and exhausted budgets
// quarantine the task. Cancellation of ctx ends the loop wherever it
// is — before an attempt, mid-attempt (via engine interrupt), or
// during a backoff sleep — without quarantining the task.
//
// The attempt counter starts at startAttempt (at least 1). The attempt
// budget stays global — the task quarantines once the attempt number
// reaches 1+MaxRetries — so a caller that already charged earlier
// attempts elsewhere (the cluster coordinator, after losing a worker
// process mid-task) resumes the retry loop rather than restarting it.
func (c *RunConfig) runOne(ctx context.Context, t *Task, worker, seq, startAttempt int, scratch *ops5.Scratch) *Result {
	startAttempt = max(startAttempt, 1)
	maxAttempts := max(1+c.MaxRetries, startAttempt)
	var attemptErrs []error
	for attempt := startAttempt; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return cancelledResult(t, seq, attempt-1, attemptErrs, err)
		}
		r := c.attempt(ctx, t, worker, seq, attempt, scratch)
		r.Attempts = attempt
		if r.Err == nil {
			r.AttemptErrs = attemptErrs
			return r
		}
		attemptErrs = append(attemptErrs, r.Err)
		r.AttemptErrs = attemptErrs
		// A cancelled attempt is not a verdict on the task: stop
		// retrying, skip quarantine.
		if errors.Is(r.Err, ErrCancelled) {
			r.Cancelled = true
			return r
		}
		// Permanent faults cannot succeed on retry; don't burn the
		// budget re-proving it.
		if attempt >= maxAttempts || errors.Is(r.Err, faults.ErrPermanent) {
			r.Quarantined = true
			return r
		}
		if c.RetryBackoff > 0 {
			// A cancelled run must not sit out its backoff: the sleep
			// races the context.
			timer := time.NewTimer(retryDelay(c.RetryBackoff, attempt))
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return cancelledResult(t, seq, attempt, attemptErrs, ctx.Err())
			}
		}
	}
}

// attempt executes a single attempt of the task. Panics — whether from
// Build, the engine, or injected — are recovered into Result.Err so a
// poison task can never take down the worker or the process. Whatever
// statistics and cost log the engine accumulated before failing are
// attached to the Result, so failed-task cost stays visible in reports.
//
// Cancelling ctx mid-attempt cooperatively interrupts the engine, and
// the attempt fails with ErrCancelled. The check is best-effort at the
// edges: a cancellation landing in the hair's breadth between the
// pre-run check and the engine clearing its interrupt flag lets the
// attempt run to completion — wasted work, never a wrong result.
func (c *RunConfig) attempt(ctx context.Context, t *Task, worker, seq, attempt int, scratch *ops5.Scratch) (r *Result) {
	r = &Result{TaskID: t.ID, Worker: worker, SeqInQ: seq}
	var eng *ops5.Engine
	defer func() {
		if v := recover(); v != nil {
			if eng != nil {
				r.Stats = eng.Stats()
				r.Log = eng.Log()
			}
			r.Engine = nil
			r.Err = &PanicError{TaskID: t.ID, Value: v, Stack: stack()}
		}
	}()

	plan := faults.New(c.Faults)
	f := plan.TaskFault(t.ID, attempt)
	if f.Kind == faults.BuildFail {
		r.Err = f.Err(fmt.Sprintf("tlp: build %s: attempt %d", t.ID, attempt))
		return r
	}
	eng, err := t.build(scratch)
	if err != nil {
		r.Err = fmt.Errorf("tlp: build %s: %w", t.ID, err)
		return r
	}
	if f.Kind == faults.Panic {
		panic(f.Err(fmt.Sprintf("tlp: task %s: attempt %d", t.ID, attempt)))
	}

	limit := c.FiringBudget
	if f.Kind == faults.Crash {
		// The worker dies mid-task after a deterministic number of
		// firings: partial work is charged, then lost.
		n := plan.CrashAfterFirings(t.ID, 8)
		if limit > 0 && n > limit {
			n = limit
		}
		_, _ = eng.Run(n)
		r.Stats = eng.Stats()
		r.Log = eng.Log()
		r.Err = fmt.Errorf("%w after %d firings: %w", ErrWorkerCrash, r.Stats.Firings,
			f.Err(fmt.Sprintf("task %s: attempt %d", t.ID, attempt)))
		return r
	}

	if c.TaskTimeout > 0 {
		timer := time.AfterFunc(c.TaskTimeout, eng.Interrupt)
		defer timer.Stop()
	}
	// A context cancelled mid-run interrupts the engine the same way a
	// timeout does; Run clears the interrupt flag when it starts, so
	// an already-cancelled context must be caught here instead.
	stopWatch := context.AfterFunc(ctx, eng.Interrupt)
	defer stopWatch()
	if ctxErr := ctx.Err(); ctxErr != nil {
		r.Err = fmt.Errorf("tlp: run %s: %w: %w", t.ID, ErrCancelled, ctxErr)
		return r
	}
	_, err = eng.Run(limit)
	// Attach whatever the engine accumulated, even on failure: the
	// cost of failed attempts is real work the reports must account.
	r.Stats = eng.Stats()
	r.Log = eng.Log()
	if err != nil {
		switch {
		case errors.Is(err, ops5.ErrInterrupted) && ctx.Err() != nil:
			r.Err = fmt.Errorf("tlp: run %s: %w after %d firings: %w",
				t.ID, ErrCancelled, r.Stats.Firings, ctx.Err())
		case errors.Is(err, ops5.ErrInterrupted):
			r.Err = fmt.Errorf("tlp: run %s: %w after %v (%d firings)",
				t.ID, ErrTimeout, c.TaskTimeout, r.Stats.Firings)
		default:
			r.Err = fmt.Errorf("tlp: run %s: %w", t.ID, err)
		}
		return r
	}
	// Short of quiescence: an unfired instantiation is left (fired ones
	// stay in the conflict set until retracted, and do not count).
	if c.FiringBudget > 0 && r.Stats.Firings >= c.FiringBudget &&
		!eng.Halted() && eng.ConflictSetSize() > 0 {
		r.Err = fmt.Errorf("tlp: run %s: %w (%d firings without quiescence)",
			t.ID, ErrBudgetExceeded, c.FiringBudget)
		return r
	}
	// Clean success: the worker is done with the task, so what its
	// consumer reads of the final working memory is copied out and an
	// engine that borrowed the worker's arena gives it back, working
	// memory included. Failed, interrupted and panicked attempts
	// returned above without settling — their engines may be
	// mid-operation — and the worker's next build starts on fresh slabs.
	if len(t.Extract) > 0 {
		r.Snapshot = eng.Memory().CopyClasses(t.Extract)
	}
	eng.Settle()
	r.Engine = eng
	return r
}

// RunSerial executes the tasks on a single worker (the BASELINE
// configuration of the paper's measurements).
func RunSerial(tasks []*Task) ([]*Result, error) {
	return (&Pool{Workers: 1}).Run(tasks)
}

// TotalInstr sums the simulated instruction cost over results.
func TotalInstr(results []*Result) float64 {
	var t float64
	for _, r := range results {
		if r != nil && r.Err == nil {
			t += r.Stats.TotalInstr()
		}
	}
	return t
}

// TotalFirings sums production firings over results.
func TotalFirings(results []*Result) int {
	n := 0
	for _, r := range results {
		if r != nil && r.Err == nil {
			n += r.Stats.Firings
		}
	}
	return n
}

// FirstError returns the first task error, or nil.
func FirstError(results []*Result) error {
	for _, r := range results {
		if r != nil && r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// Errors returns every task error in queue order (empty if the run was
// clean). Each error is the task's final-attempt failure; per-attempt
// detail lives in Result.AttemptErrs and the RunReport.
func Errors(results []*Result) []error {
	var errs []error
	for _, r := range results {
		if r != nil && r.Err != nil {
			errs = append(errs, fmt.Errorf("task %s (after %d attempts): %w", r.TaskID, r.Attempts, r.Err))
		}
	}
	return errs
}
