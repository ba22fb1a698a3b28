package tlp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"spampsm/internal/ops5"
)

// ErrPoolClosed is returned by Pool.Submit and Go after Close.
var ErrPoolClosed = errors.New("tlp: pool closed")

// Pool is a set of task processes draining one FIFO of jobs: the
// paper's runtime, and the only executor in process. A run's queue
// enters it through Submit (Run and RunContext are its zero-config
// form); a cluster worker process queues each task frame it decodes
// through Go. Task processes start on demand, up to Workers, and exit
// when the queue is empty, so a pool that is never closed — an
// interpretation's private one — leaves no goroutine behind. Each
// worker slot keeps a match arena that lives and dies with the pool
// and is trimmed after every task (ops5.Scratch.Trim), so one large
// task does not pin its peak arena.
//
// Many concurrent runs can multiplex onto one pool — the serving
// configuration. Isolation between runs is the paper's independence
// property plus two pieces of machinery:
//
//   - Each submission carries its own context and its own RunConfig
//     (retries, timeouts, budgets), so one run's cancellation,
//     deadline, or firing budget never touches another run's tasks.
//   - Quarantines are accounted per class: poison tasks from live
//     runs count against the pool's quarantine budget (Healthy),
//     while tasks quarantined only because their run was cancelled,
//     or because they outran their run's own firing budget, do not — a
//     client hanging up or capping its own tasks is not evidence the
//     shared workload is poisoned.
//
// Tasks are interleaved fairly by construction: task processes drain
// one FIFO of jobs, one task each, and the FIFO is bounded, so a run
// with many tasks cannot queue all of them ahead of a small run
// submitted while it executes.
type Pool struct {
	// Workers is the most task processes the pool runs at once (at
	// least 1). It is read when the pool first queues a job.
	Workers int
	// DropEngines releases each task's engine (its working memory; the
	// match state of a borrowing engine goes back to the worker either
	// way) before its Result is handed on, keeping its statistics and
	// cost log. Measurement runs over large queues use it to avoid
	// pinning thousands of settled engines: core.Measure over SF's
	// 8,850 Level-1 LCC tasks on one worker peaks at 25.7 MB of heap
	// with it and 34.3 MB without, and holds 11.7 MB against 22.3 MB
	// live when the run returns. A task's Read answers before the
	// engine goes either way; leave it false when a caller reads the
	// engine itself.
	DropEngines bool
	// QuarantineBudget is the number of quarantined tasks from live
	// runs, firing-budget overruns aside, the pool tolerates before
	// reporting itself unhealthy.
	// 0 means no budget (always healthy). The budget is advisory —
	// the pool keeps executing — so serving layers can drain and
	// restart on a poisoned process without dropping in-flight work.
	QuarantineBudget int

	mu     sync.Mutex
	space  sync.Cond // signalled when a task process takes a job
	queue  []*Job
	slots  []slot // one per worker, made when the pool is first used
	closed bool
	subs   sync.WaitGroup // Submit and Go calls still queueing
	procs  sync.WaitGroup // running task processes

	tasksRun    atomic.Int64
	quarantined atomic.Int64 // live runs' quarantines, budget overruns aside
	cancQuar    atomic.Int64 // quarantine-grade failures on cancelled runs
	budgetQuar  atomic.Int64 // quarantines for outrunning a run's firing budget
	cancelled   atomic.Int64 // tasks abandoned to cancellation
}

// slot is one worker: its match arena, private to the task process
// that holds the slot, and the arena's footprint as that process last
// published it, for any goroutine to read.
type slot struct {
	busy         bool // a task process holds the slot (guarded by Pool.mu)
	scratch      ops5.Scratch
	slabs, bytes atomic.Int64
}

// Job is one task entering the pool with what its run decides: the
// run's context and configuration, the task's place in the run's
// queue, and where its Result goes. Submit makes one per task of a
// queue; a cluster worker makes one per task frame.
type Job struct {
	Ctx    context.Context
	Config RunConfig
	Task   *Task
	Seq    int // the task's position in its run's queue (Result.SeqInQ)
	// StartAttempt numbers the first attempt run here (0 means 1):
	// higher when earlier attempts were charged elsewhere — to a worker
	// process that died with the task, say — so the retry budget stays
	// global.
	StartAttempt int
	// Start, when set, runs on the task process that takes the job, in
	// queue order and before the task is built — unless the job's
	// context is already done, in which case the task is cancelled
	// without being started or built.
	Start func()
	// Done receives the Result on the task process that ran the task,
	// once the process has trimmed and published its match arena.
	Done func(*Result)
}

var _ Queue = (*Pool)(nil)

// queueDepth is the job backlog per worker; Submit and Go block beyond
// it until task processes drain (admission control for whole runs
// belongs to the caller). It holds a cluster worker's whole default
// ship window, 16 tasks per task process.
const queueDepth = 64

// init makes the worker slots on first use. Call with p.mu held.
func (p *Pool) init() {
	if p.slots == nil {
		p.slots = make([]slot, max(p.Workers, 1))
		p.space.L = &p.mu
	}
}

// put queues jobs in order, waiting while the queue is full, and
// starts a task process on an idle worker slot for each. All or none
// of the jobs are queued.
func (p *Pool) put(jobs ...*Job) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	p.init()
	p.subs.Add(1)
	defer p.subs.Done()
	for _, j := range jobs {
		for len(p.queue) >= queueDepth*len(p.slots) {
			p.space.Wait()
		}
		p.queue = append(p.queue, j)
		for w := range p.slots {
			if !p.slots[w].busy {
				p.slots[w].busy = true
				p.procs.Add(1)
				go p.process(w)
				break
			}
		}
	}
	return nil
}

// process is one task process on worker slot w: it takes jobs in queue
// order and runs each on the slot's match arena, which it trims after
// every task, until the queue is empty.
func (p *Pool) process(w int) {
	defer p.procs.Done()
	s := &p.slots[w]
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			s.busy = false
			p.mu.Unlock()
			return
		}
		j := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.space.Signal()
		p.mu.Unlock()
		r := p.run(j, w, &s.scratch)
		if p.DropEngines {
			r.Engine = nil
		}
		s.scratch.Trim()
		slabs, bytes := s.scratch.Arena()
		s.slabs.Store(int64(slabs))
		s.bytes.Store(bytes)
		j.Done(r)
	}
}

// run executes one job under its context and configuration and settles
// the pool-level accounting. A job whose run is already dead is not
// started: runOne cancels it before its first attempt, without building
// it.
func (p *Pool) run(j *Job, worker int, scratch *ops5.Scratch) *Result {
	if j.Start != nil && j.Ctx.Err() == nil {
		j.Start()
	}
	r := j.Config.runOne(j.Ctx, j.Task, worker, j.Seq, j.StartAttempt, scratch)
	p.tasksRun.Add(1)
	if r.Cancelled {
		p.cancelled.Add(1)
	}
	if r.Quarantined {
		// Quarantines on a cancelled run don't count against the
		// budget: the task may have failed only because its run's
		// context pulled resources out from under it, and its run no
		// longer cares either way. Quarantines for outrunning the run's
		// own firing budget don't either — a cap one tenant sets on its
		// own tasks must not flip the shared pool's health for everyone
		// else.
		switch {
		case j.Ctx.Err() != nil:
			p.cancQuar.Add(1)
		case errors.Is(r.Err, ErrBudgetExceeded):
			p.budgetQuar.Add(1)
		default:
			p.quarantined.Add(1)
		}
	}
	return r
}

// Go queues one job and returns without waiting for it to run.
func (p *Pool) Go(j Job) error { return p.put(&j) }

// Queued is how many jobs wait for a task process.
func (p *Pool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Run executes the tasks under the zero RunConfig and returns results
// in queue order. Task failures — including recovered panics, timeouts,
// and injected faults — are reported in the Result, not as a Run error;
// Run fails only on structural problems (no tasks, a closed pool).
func (p *Pool) Run(tasks []*Task) ([]*Result, error) {
	return p.Submit(context.Background(), RunConfig{}, tasks)
}

// RunContext is Run under a context.
func (p *Pool) RunContext(ctx context.Context, tasks []*Task) ([]*Result, error) {
	return p.Submit(ctx, RunConfig{}, tasks)
}

// Submit runs one queue of tasks under the given context and per-run
// configuration — its budgets, retries and fault plan — one job per
// task, in the order the caller's slice holds them; it never writes
// into that slice. It blocks until every task has a Result and returns
// them in that order. Submissions from different goroutines interleave
// at task granularity.
//
// Cancelling ctx aborts the run's remaining work without failing
// Submit itself. Tasks not yet started are skipped, in-flight attempts
// are cooperatively interrupted (ops5.Engine.Interrupt), and retry
// backoffs are cut short; every abandoned task still gets a Result,
// with Err wrapping ErrCancelled and Cancelled set, so callers can
// account for exactly what was and was not executed.
func (p *Pool) Submit(ctx context.Context, cfg RunConfig, tasks []*Task) ([]*Result, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("tlp: empty task queue")
	}
	results := make([]*Result, len(tasks))
	var done sync.WaitGroup
	done.Add(len(tasks))
	jobs := make([]*Job, len(tasks))
	for i, t := range tasks {
		jobs[i] = &Job{Ctx: ctx, Config: cfg, Task: t, Seq: i,
			Done: func(r *Result) { results[i] = r; done.Done() }}
	}
	if err := p.put(jobs...); err != nil {
		return nil, err
	}
	done.Wait()
	return results, nil
}

// Close stops accepting jobs, waits for the callers still queueing
// them, runs what is queued, and waits for the task processes to exit.
// Safe to call more than once; later Submits and Gos fail with
// ErrPoolClosed. A pool that is never closed leaks nothing either: its
// task processes exit when the queue is empty.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.subs.Wait()
	p.procs.Wait()
}

// Healthy reports whether the pool is within its quarantine budget.
func (p *Pool) Healthy() bool {
	return p.QuarantineBudget <= 0 || p.quarantined.Load() <= int64(p.QuarantineBudget)
}

// Counters is a snapshot of the pool's lifetime task accounting.
type Counters struct {
	TasksRun             int64 // every task that got a Result
	Quarantined          int64 // poison tasks from live runs (budgeted)
	CancelledQuarantines int64 // quarantine-grade failures on cancelled runs
	BudgetQuarantines    int64 // tasks that outran their run's firing budget
	Cancelled            int64 // tasks abandoned to cancellation

	// Arenas is what each worker's match arena held after its last
	// task: slab chunks and their bytes (rete.Scratch.Arena).
	Arenas []ArenaStats
}

// ArenaStats is one worker's match-arena footprint.
type ArenaStats struct {
	ArenaSlabs int   `json:"arenaSlabs"`
	ArenaBytes int64 `json:"arenaBytes"`
}

// arenas reads every worker's published arena footprint.
func (p *Pool) arenas() []ArenaStats {
	p.mu.Lock()
	p.init()
	slots := p.slots
	p.mu.Unlock()
	out := make([]ArenaStats, len(slots))
	for i := range slots {
		out[i] = ArenaStats{ArenaSlabs: int(slots[i].slabs.Load()), ArenaBytes: slots[i].bytes.Load()}
	}
	return out
}

// Arena is what the pool's match arenas hold in total, as last
// published.
func (p *Pool) Arena() ArenaStats {
	p.mu.Lock()
	p.init()
	slots := p.slots
	p.mu.Unlock()
	var sum ArenaStats
	for i := range slots {
		sum.ArenaSlabs += int(slots[i].slabs.Load())
		sum.ArenaBytes += slots[i].bytes.Load()
	}
	return sum
}

// Stats returns a snapshot of the pool's lifetime counters.
func (p *Pool) Stats() Counters {
	return Counters{
		Arenas:               p.arenas(),
		TasksRun:             p.tasksRun.Load(),
		Quarantined:          p.quarantined.Load(),
		CancelledQuarantines: p.cancQuar.Load(),
		BudgetQuarantines:    p.budgetQuar.Load(),
		Cancelled:            p.cancelled.Load(),
	}
}
