// The memory-budget gate: memory-bounded list scheduling for the real
// runtime. Each task carries a modeled footprint (Task.MemEst, in the
// same simulated-byte units as ops5.MemStats); a pool with a MemBudget
// makes every worker reserve its next task's footprint before building
// the engine and release it when the task settles. When the aggregate
// reservation would exceed the budget the worker blocks — concurrency
// is throttled exactly when, and only when, memory demands it, the
// admission rule of Eyraud-Dubois et al.'s memory-bounded scheduling.
//
// The gate never deadlocks: a reservation is clamped to the budget, so
// a task larger than the whole budget simply waits for every in-flight
// reservation to drain and then runs alone. Waiters are also released
// by context cancellation, preserving the pool's cancellation
// semantics (the abandoned task gets a cancelledResult like any other
// pre-attempt cancellation).
package tlp

import (
	"context"
	"sync"

	"spampsm/internal/ops5"
)

// memGate is a weighted semaphore with broadcast wakeup and throttle
// accounting. A nil gate is valid and admits everything.
type memGate struct {
	budget float64

	mu     sync.Mutex
	inUse  float64
	waitCh chan struct{} // closed and replaced on every release
	waits  int64         // dispatches that had to block at least once
	peak   float64       // high-water mark of aggregate reservations
}

func newMemGate(budget float64) *memGate {
	if budget <= 0 {
		return nil
	}
	return &memGate{budget: budget, waitCh: make(chan struct{})}
}

// acquire reserves amt (clamped to the budget) once it fits, returning
// the reserved amount for the matching release. It blocks while the
// aggregate reservation would overflow the budget, and returns ctx's
// error if the run dies first.
func (g *memGate) acquire(ctx context.Context, amt float64) (float64, error) {
	if g == nil || amt <= 0 {
		return 0, nil
	}
	if amt > g.budget {
		amt = g.budget
	}
	waited := false
	g.mu.Lock()
	for g.inUse+amt > g.budget {
		if !waited {
			waited = true
			g.waits++
		}
		ch := g.waitCh
		g.mu.Unlock()
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-ch:
		}
		g.mu.Lock()
	}
	g.inUse += amt
	if g.inUse > g.peak {
		g.peak = g.inUse
	}
	g.mu.Unlock()
	return amt, nil
}

// release returns a reservation and wakes every waiter (broadcast:
// several small tasks may fit in the space one big task vacated).
func (g *memGate) release(amt float64) {
	if g == nil || amt <= 0 {
		return
	}
	g.mu.Lock()
	g.inUse -= amt
	ch := g.waitCh
	g.waitCh = make(chan struct{})
	g.mu.Unlock()
	close(ch)
}

// MemSchedStats is a snapshot of one gate's throttle accounting.
type MemSchedStats struct {
	Budget        float64 // configured budget (simulated bytes); 0 = unbounded
	PeakReserved  float64 // high-water mark of aggregate reservations
	ThrottleWaits int64   // dispatches the budget blocked at least once
}

func (g *memGate) stats() MemSchedStats {
	if g == nil {
		return MemSchedStats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return MemSchedStats{Budget: g.budget, PeakReserved: g.peak, ThrottleWaits: g.waits}
}

// runGated is runOne behind the gate: the reservation covers the whole
// task — engine build, run, and every retry attempt — so a retrying
// task cannot stack additional footprint on top of its own.
func (c *RunConfig) runGated(ctx context.Context, g *memGate, t *Task, worker, seq, startAttempt int, scratch *ops5.Scratch) *Result {
	got, err := g.acquire(ctx, t.MemEst)
	if err != nil {
		return cancelledResult(t, seq, max(startAttempt, 1)-1, nil, err)
	}
	defer g.release(got)
	return c.runOne(ctx, t, worker, seq, startAttempt, scratch)
}
