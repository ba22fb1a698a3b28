package tlp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"spampsm/internal/faults"
	"spampsm/internal/ops5"
)

// ErrPoolClosed is returned by SharedPool.Submit and Go after Close.
var ErrPoolClosed = errors.New("tlp: shared pool closed")

// SharedPool is a process's long-lived set of task processes. Many
// concurrent runs multiplex onto it — the serving configuration, where
// every in-flight interpretation's tasks interleave on the same workers
// instead of each run spawning its own pool — and a cluster worker
// process serves every task frame it decodes on one. Isolation between
// runs is the paper's independence property plus two pieces of
// machinery:
//
//   - Each submission carries its own context and its own RunConfig
//     (fault plan, retries, timeouts, budgets), so one
//     run's cancellation, deadline, or chaos plan never touches
//     another run's tasks.
//   - Quarantines are accounted per class: poison tasks from live
//     runs count against the pool's quarantine budget (Healthy),
//     while tasks quarantined only because their run was cancelled,
//     or under a run's own injected fault plan, do not — a client
//     hanging up or chaos-testing itself is not evidence the shared
//     workload is poisoned.
//
// Tasks are interleaved fairly by construction: task processes drain
// one shared FIFO of jobs, one task each, so a run with many tasks
// cannot monopolize the workers ahead of a small run submitted while it
// executes.
type SharedPool struct {
	// QuarantineBudget is the number of non-cancelled quarantined
	// tasks the pool tolerates before reporting itself unhealthy.
	// 0 means no budget (always healthy). The budget is advisory —
	// the pool keeps executing — so serving layers can drain and
	// restart on a poisoned process without dropping in-flight work.
	QuarantineBudget int

	queue chan *Job
	wg    sync.WaitGroup // task processes

	mu     sync.Mutex
	closed bool
	subs   sync.WaitGroup // Submit and Go calls still queueing

	// arenas is what each task process's match arena holds, published
	// by the process after every task (its scratch itself is private to
	// its goroutine and lives as long as the pool).
	arenas []arenaGauge

	tasksRun    atomic.Int64
	quarantined atomic.Int64 // live, uninjected runs' quarantines only
	cancQuar    atomic.Int64 // quarantine-grade failures on cancelled runs
	injQuar     atomic.Int64 // quarantines under a run's own fault plan
	cancelled   atomic.Int64 // tasks abandoned to cancellation
}

// Job is one task entering the shared pool with what its run decides:
// the run's context and configuration, the task's place in the run's
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

var _ Queue = (*SharedPool)(nil)

// sharedQueueDepth is the job backlog per task process; Submit and Go
// block beyond it until task processes drain (admission control for
// whole runs belongs to the caller). It holds a cluster worker's whole
// default ship window, 16 tasks per task process.
const sharedQueueDepth = 64

// NewSharedPool starts a shared pool with the given number of task
// processes (at least 1).
func NewSharedPool(workers int) *SharedPool {
	workers = max(workers, 1)
	sp := &SharedPool{queue: make(chan *Job, sharedQueueDepth*workers), arenas: make([]arenaGauge, workers)}
	sp.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go sp.process(w)
	}
	return sp
}

// process is one task process: it takes jobs in queue order and runs
// each on its match arena, which it trims after every task — it
// outlives its tasks, so it must not pin the largest one's arena.
func (sp *SharedPool) process(worker int) {
	defer sp.wg.Done()
	scratch := &ops5.Scratch{}
	for j := range sp.queue {
		r := sp.run(j, worker, scratch)
		scratch.Trim()
		sp.arenas[worker].publish(scratch)
		j.Done(r)
	}
}

// run executes one job under its context and configuration and settles
// the pool-level accounting. A job whose run is already dead is not
// started: runOne cancels it before its first attempt, without building
// it.
func (sp *SharedPool) run(j *Job, worker int, scratch *ops5.Scratch) *Result {
	if j.Start != nil && j.Ctx.Err() == nil {
		j.Start()
	}
	r := j.Config.runOne(j.Ctx, j.Task, worker, j.Seq, j.StartAttempt, scratch)
	sp.tasksRun.Add(1)
	if r.Cancelled {
		sp.cancelled.Add(1)
	}
	if r.Quarantined {
		// Quarantines on a cancelled run don't count against the
		// budget: the task may have failed only because its run's
		// context pulled resources out from under it, and its run no
		// longer cares either way. Quarantines under a run's own
		// injected fault plan don't either — one tenant's chaos test
		// must not flip the shared pool's health for everyone else.
		switch {
		case j.Ctx.Err() != nil:
			sp.cancQuar.Add(1)
		case j.Config.Faults != (faults.Config{}):
			sp.injQuar.Add(1)
		default:
			sp.quarantined.Add(1)
		}
	}
	return r
}

// enter registers a caller about to queue jobs, so Close waits for it.
func (sp *SharedPool) enter() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return ErrPoolClosed
	}
	sp.subs.Add(1)
	return nil
}

// Go queues one job and returns without waiting for it to run.
func (sp *SharedPool) Go(j Job) error {
	if err := sp.enter(); err != nil {
		return err
	}
	defer sp.subs.Done()
	sp.queue <- &j
	return nil
}

// Queued is how many jobs wait for a task process.
func (sp *SharedPool) Queued() int { return len(sp.queue) }

// Submit runs one queue of tasks on the shared workers under the
// given context and per-run configuration, one job per task. It blocks
// until every task has a Result (executed, failed, or cancelled) and
// returns them in queue order. Submissions from different goroutines
// interleave at task granularity.
func (sp *SharedPool) Submit(ctx context.Context, cfg RunConfig, tasks []*Task) ([]*Result, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("tlp: empty task queue")
	}
	if err := sp.enter(); err != nil {
		return nil, err
	}
	defer sp.subs.Done()
	queue := cfg.Order(tasks)
	results := make([]*Result, len(queue))
	var done sync.WaitGroup
	done.Add(len(queue))
	for i, t := range queue {
		sp.queue <- &Job{Ctx: ctx, Config: cfg, Task: t, Seq: i,
			Done: func(r *Result) { results[i] = r; done.Done() }}
	}
	done.Wait()
	return results, nil
}

// Close stops accepting jobs, waits for the callers still queueing
// them, runs what is queued, and shuts the task processes down. Safe
// to call more than once; later Submits and Gos fail with
// ErrPoolClosed.
func (sp *SharedPool) Close() {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		sp.wg.Wait()
		return
	}
	sp.closed = true
	sp.mu.Unlock()
	sp.subs.Wait()
	close(sp.queue)
	sp.wg.Wait()
}

// Healthy reports whether the pool is within its quarantine budget.
func (sp *SharedPool) Healthy() bool {
	return sp.QuarantineBudget <= 0 || sp.quarantined.Load() <= int64(sp.QuarantineBudget)
}

// Counters is a snapshot of the pool's lifetime task accounting.
type Counters struct {
	TasksRun             int64 // every task that got a Result
	Quarantined          int64 // poison tasks from live uninjected runs (budgeted)
	CancelledQuarantines int64 // quarantine-grade failures on cancelled runs
	InjectedQuarantines  int64 // quarantines under a run's own fault plan
	Cancelled            int64 // tasks abandoned to cancellation

	// Arenas is what each task process's match arena held after its
	// last task: slab chunks and their bytes (rete.Scratch.Arena).
	Arenas []ArenaStats
}

// ArenaStats is one task process's match-arena footprint.
type ArenaStats struct {
	ArenaSlabs int   `json:"arenaSlabs"`
	ArenaBytes int64 `json:"arenaBytes"`
}

// arenaGauge lets the task process that owns a long-lived match arena
// publish its footprint for any other goroutine to read.
type arenaGauge struct{ slabs, bytes atomic.Int64 }

// publish records what s holds now. Call it from s's owner only.
func (g *arenaGauge) publish(s *ops5.Scratch) {
	slabs, bytes := s.Arena()
	g.slabs.Store(int64(slabs))
	g.bytes.Store(bytes)
}

func (g *arenaGauge) load() ArenaStats {
	return ArenaStats{ArenaSlabs: int(g.slabs.Load()), ArenaBytes: g.bytes.Load()}
}

// Arena is what the pool's task processes' match arenas hold in total,
// as last published.
func (sp *SharedPool) Arena() ArenaStats {
	var sum ArenaStats
	for i := range sp.arenas {
		a := sp.arenas[i].load()
		sum.ArenaSlabs += a.ArenaSlabs
		sum.ArenaBytes += a.ArenaBytes
	}
	return sum
}

// Stats returns a snapshot of the pool's lifetime counters.
func (sp *SharedPool) Stats() Counters {
	arenas := make([]ArenaStats, len(sp.arenas))
	for i := range sp.arenas {
		arenas[i] = sp.arenas[i].load()
	}
	return Counters{
		Arenas:               arenas,
		TasksRun:             sp.tasksRun.Load(),
		Quarantined:          sp.quarantined.Load(),
		CancelledQuarantines: sp.cancQuar.Load(),
		InjectedQuarantines:  sp.injQuar.Load(),
		Cancelled:            sp.cancelled.Load(),
	}
}
