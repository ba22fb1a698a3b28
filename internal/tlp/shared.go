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

// ErrPoolClosed is returned by SharedPool.Submit after Close.
var ErrPoolClosed = errors.New("tlp: shared pool closed")

// SharedPool multiplexes many concurrent runs onto one fixed set of
// task processes — the serving configuration, where every in-flight
// interpretation's tasks interleave on the same workers instead of
// each run spawning its own pool. Isolation between runs is the
// paper's independence property plus two pieces of machinery:
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
// Tasks are interleaved fairly by construction: workers drain one
// shared FIFO of task-granular work items, so a run with many tasks
// cannot monopolize the workers ahead of a small run submitted while
// it executes.
type SharedPool struct {
	// QuarantineBudget is the number of non-cancelled quarantined
	// tasks the pool tolerates before reporting itself unhealthy.
	// 0 means no budget (always healthy). The budget is advisory —
	// the pool keeps executing — so serving layers can drain and
	// restart on a poisoned process without dropping in-flight work.
	QuarantineBudget int

	// MemBudget bounds the aggregate modeled footprint of the tasks
	// in flight across ALL submissions (simulated bytes; 0 disables).
	// The budget belongs to the pool because the workers do. Set it
	// before the first Submit.
	MemBudget float64

	queue chan *workItem
	wg    sync.WaitGroup // worker goroutines

	mu     sync.Mutex
	closed bool
	subs   sync.WaitGroup // in-flight submissions
	gate   *memGate       // lazily built from MemBudget on first use

	// arenas is what each task process's match arena holds, published
	// by the process after every task (its scratch itself is private to
	// its goroutine and lives as long as the pool).
	arenas []ArenaGauge

	tasksRun    atomic.Int64
	quarantined atomic.Int64 // live, uninjected runs' quarantines only
	cancQuar    atomic.Int64 // quarantine-grade failures on cancelled runs
	injQuar     atomic.Int64 // quarantines under a run's own fault plan
	cancelled   atomic.Int64 // tasks abandoned to cancellation
}

// workItem is one task of one submission.
type workItem struct {
	sub *submission
	idx int
}

// submission is one run's task queue entering the shared pool.
type submission struct {
	ctx     context.Context
	cfg     RunConfig
	queue   []*Task
	results []*Result
	done    sync.WaitGroup
}

var _ Queue = (*SharedPool)(nil)

// NewSharedPool starts a shared pool with the given number of task
// processes. queueDepth bounds the task backlog channel; submissions
// beyond it block in Submit until workers drain (admission control for
// whole runs belongs to the caller). workers and queueDepth default to
// 1 and 64× workers.
func NewSharedPool(workers, queueDepth int) *SharedPool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 64 * workers
	}
	sp := &SharedPool{queue: make(chan *workItem, queueDepth), arenas: make([]ArenaGauge, workers)}
	for w := 0; w < workers; w++ {
		sp.wg.Add(1)
		go func(worker int) {
			defer sp.wg.Done()
			scratch := &ops5.Scratch{}
			for item := range sp.queue {
				sp.runItem(item, worker, scratch)
				// The worker outlives its tasks: it must not pin the
				// largest one's arena.
				scratch.Trim()
				sp.arenas[worker].Publish(scratch)
			}
		}(w)
	}
	return sp
}

// runItem executes one queued task under its submission's context and
// configuration, on the worker's match arena, and settles the
// pool-level accounting.
func (sp *SharedPool) runItem(item *workItem, worker int, scratch *ops5.Scratch) {
	sub := item.sub
	defer sub.done.Done()
	t := sub.queue[item.idx]
	var r *Result
	if err := sub.ctx.Err(); err != nil {
		// The run is already dead; skip the task without building it.
		r = cancelledResult(t, item.idx, 0, nil, err)
	} else if got, err := sp.memGate().acquire(sub.ctx, t.MemEst); err != nil {
		// The run died while the task waited for memory; same outcome
		// as any other pre-attempt cancellation.
		r = cancelledResult(t, item.idx, 0, nil, err)
	} else {
		r = sub.cfg.runOne(sub.ctx, t, worker, item.idx, scratch)
		sp.memGate().release(got)
	}
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
		case sub.ctx.Err() != nil:
			sp.cancQuar.Add(1)
		case sub.cfg.Faults != (faults.Config{}):
			sp.injQuar.Add(1)
		default:
			sp.quarantined.Add(1)
		}
	}
	sub.results[item.idx] = r
}

// memGate returns the pool-wide memory gate, built from MemBudget on
// first use (nil — admit everything — when no budget is set).
func (sp *SharedPool) memGate() *memGate {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.gate == nil && sp.MemBudget > 0 {
		sp.gate = newMemGate(sp.MemBudget)
	}
	return sp.gate
}

// Submit runs one queue of tasks on the shared workers under the
// given context and per-run configuration. It blocks until every task
// has a Result (executed, failed, or cancelled) and returns them in
// queue order. Submissions from different goroutines interleave at task
// granularity.
func (sp *SharedPool) Submit(ctx context.Context, cfg RunConfig, tasks []*Task) ([]*Result, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("tlp: empty task queue")
	}
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return nil, ErrPoolClosed
	}
	sp.subs.Add(1)
	sp.mu.Unlock()
	defer sp.subs.Done()

	sub := &submission{
		ctx:   ctx,
		cfg:   cfg,
		queue: cfg.Order(tasks),
	}
	sub.results = make([]*Result, len(sub.queue))
	sub.done.Add(len(sub.queue))
	for i := range sub.queue {
		sp.queue <- &workItem{sub: sub, idx: i}
	}
	sub.done.Wait()
	return sub.results, nil
}

// Close stops accepting submissions, waits for in-flight ones to
// finish, and shuts the workers down. Safe to call once; later Submits
// fail with ErrPoolClosed.
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

	// Memory-gate accounting (zero when the pool runs unbounded).
	MemBudget     float64 // configured footprint budget, simulated bytes
	PeakMemEst    float64 // reservation high-water mark across all submissions
	ThrottleWaits int64   // dispatches the budget blocked at least once

	// Arenas is what each task process's match arena held after its
	// last task: slab chunks and their bytes (rete.Scratch.Arena).
	Arenas []ArenaStats
}

// ArenaStats is one task process's match-arena footprint.
type ArenaStats struct {
	ArenaSlabs int   `json:"arenaSlabs"`
	ArenaBytes int64 `json:"arenaBytes"`
}

// ArenaGauge lets the goroutine that owns a long-lived match arena
// publish its footprint for any other goroutine to read: the executor
// (SharedPool worker, cluster worker executor) publishes after every
// task, a stats snapshot loads.
type ArenaGauge struct{ slabs, bytes atomic.Int64 }

// Publish records what s holds now. Call it from s's owner only.
func (g *ArenaGauge) Publish(s *ops5.Scratch) {
	slabs, bytes := s.Arena()
	g.slabs.Store(int64(slabs))
	g.bytes.Store(bytes)
}

// Load returns the last published footprint.
func (g *ArenaGauge) Load() ArenaStats {
	return ArenaStats{ArenaSlabs: int(g.slabs.Load()), ArenaBytes: g.bytes.Load()}
}

// Stats returns a snapshot of the pool's lifetime counters.
func (sp *SharedPool) Stats() Counters {
	ms := sp.memGate().stats()
	arenas := make([]ArenaStats, len(sp.arenas))
	for i := range sp.arenas {
		arenas[i] = sp.arenas[i].Load()
	}
	return Counters{
		Arenas:               arenas,
		TasksRun:             sp.tasksRun.Load(),
		Quarantined:          sp.quarantined.Load(),
		CancelledQuarantines: sp.cancQuar.Load(),
		InjectedQuarantines:  sp.injQuar.Load(),
		Cancelled:            sp.cancelled.Load(),
		MemBudget:            ms.Budget,
		PeakMemEst:           ms.PeakReserved,
		ThrottleWaits:        ms.ThrottleWaits,
	}
}
