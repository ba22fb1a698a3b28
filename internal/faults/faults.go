// Package faults is the deterministic fault-injection plan shared by
// the real task-level-parallelism runtime (internal/tlp) and the
// virtual-time simulators (internal/machine, internal/svm,
// internal/msgpass).
//
// The property that makes SPAM/PSM recoverable is the paper's central
// one: tasks are fully independent OPS5 engines that never synchronize
// with each other, only with the queue. A crashed task process loses
// only its own working memory; rebuilding the engine (Task.Build) and
// re-running the task is idempotent by construction. This package
// decides *where* the faults land; the runtimes decide how to recover.
//
// Every decision is a pure function of (seed, key): the same plan asked
// the same question always answers identically, regardless of worker
// count, goroutine interleaving, or execution order. Chaos runs are
// therefore reproducible — two runs with the same fault seed produce
// byte-identical reports.
package faults

import (
	"errors"
	"fmt"
)

// ErrInjected marks an error as an injected fault (as opposed to a
// genuine failure of the code under test). errors.Is(err, ErrInjected)
// identifies chaos-run failures in reports.
var ErrInjected = errors.New("injected fault")

// ErrPermanent marks a fault as permanent: retrying the task cannot
// succeed, so the runtime quarantines it immediately instead of
// burning its retry budget.
var ErrPermanent = errors.New("permanent fault")

// Kind enumerates the fault kinds the plan can inject into a task.
type Kind uint8

const (
	// None means the task executes cleanly.
	None Kind = iota
	// BuildFail fails the task's engine construction (Task.Build).
	BuildFail
	// Panic panics inside the task's run, as a bug in a production's
	// RHS or an external function would.
	Panic
	// Crash kills the worker mid-task after some firings: the partial
	// work is wasted and the task must be rebuilt from scratch.
	Crash
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case BuildFail:
		return "build-fail"
	case Panic:
		return "panic"
	case Crash:
		return "crash"
	}
	return "unknown"
}

// Class separates transient faults (a retry succeeds: the machine
// rebooted, the message was retransmitted) from permanent ones (the
// task is poison: every attempt fails).
type Class uint8

const (
	// Transient faults strike one attempt; the retry runs clean.
	Transient Class = iota
	// Permanent faults strike every attempt of the task.
	Permanent
)

func (c Class) String() string {
	if c == Permanent {
		return "permanent"
	}
	return "transient"
}

// Fault is one injection decision.
type Fault struct {
	Kind  Kind
	Class Class
}

// Err wraps msg into an error carrying the fault's markers: always
// ErrInjected, plus ErrPermanent for permanent faults.
func (f Fault) Err(msg string) error {
	if f.Class == Permanent {
		return fmt.Errorf("%s: %w (%w)", msg, ErrInjected, ErrPermanent)
	}
	return fmt.Errorf("%s: %w", msg, ErrInjected)
}

// Config parameterizes a plan. All rates are probabilities in [0, 1];
// their sum is the per-task injection probability and must not exceed 1.
type Config struct {
	// Seed drives every decision; two plans with equal configs are
	// indistinguishable.
	Seed int64
	// BuildFailRate is the probability a task's Build fails.
	BuildFailRate float64
	// PanicRate is the probability a task panics mid-run.
	PanicRate float64
	// CrashRate is the probability the task's worker crashes mid-task.
	CrashRate float64
	// PermanentFraction is the fraction of injected faults that are
	// permanent (poison tasks) rather than transient.
	PermanentFraction float64
}

// Rate returns the total per-task injection probability.
func (c Config) Rate() float64 { return c.BuildFailRate + c.PanicRate + c.CrashRate }

// Plan answers injection questions deterministically. A nil *Plan is
// valid and injects nothing, so runtimes can carry one unconditionally.
type Plan struct {
	cfg Config
}

// New builds a plan. A zero config injects nothing.
func New(cfg Config) *Plan { return &Plan{cfg: cfg} }

// splitmix64 is the finalizer of the SplitMix64 generator: a strong
// 64-bit mix used here to turn hashed keys into uniform draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash folds the seed and a key into one 64-bit value (FNV-1a over the
// key bytes, then mixed with the seed).
func (p *Plan) hash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return splitmix64(h ^ splitmix64(uint64(p.cfg.Seed)))
}

// Draw returns a uniform value in [0, 1) for the key. Equal keys on
// equal plans always draw the same value. A nil plan draws 1 (never
// below any rate).
func (p *Plan) Draw(key string) float64 {
	if p == nil {
		return 1
	}
	return float64(p.hash(key)>>11) / (1 << 53)
}

// drawf is Draw over a formatted key.
func (p *Plan) drawf(format string, args ...interface{}) float64 {
	if p == nil {
		return 1
	}
	return p.Draw(fmt.Sprintf(format, args...))
}

// TaskFault decides whether the given attempt (1-based) of a task is
// struck by a fault. The fault kind and class are properties of the
// task (so a permanent fault recurs identically on every attempt);
// transient faults strike only the first attempt — the rebuilt,
// re-executed task runs clean, which is exactly the recoverability the
// paper's no-synchronization design buys.
func (p *Plan) TaskFault(taskID string, attempt int) Fault {
	if p == nil || p.cfg.Rate() <= 0 {
		return Fault{}
	}
	u := p.drawf("task/%s", taskID)
	var kind Kind
	switch {
	case u < p.cfg.BuildFailRate:
		kind = BuildFail
	case u < p.cfg.BuildFailRate+p.cfg.PanicRate:
		kind = Panic
	case u < p.cfg.Rate():
		kind = Crash
	default:
		return Fault{}
	}
	class := Transient
	if p.drawf("class/%s", taskID) < p.cfg.PermanentFraction {
		class = Permanent
	}
	if class == Transient && attempt > 1 {
		return Fault{}
	}
	return Fault{Kind: kind, Class: class}
}

// CrashAfterFirings returns the deterministic number of production
// firings a crash-struck task completes before its worker dies (at
// least 1, at most max; max <= 0 defaults to 8).
func (p *Plan) CrashAfterFirings(taskID string, max int) int {
	if max <= 0 {
		max = 8
	}
	return 1 + int(p.drawf("crash-at/%s", taskID)*float64(max-1)+0.5)
}

// LossCount returns the number of consecutive times the message (or
// page-fault service round) identified by label/idx is lost before
// getting through, given a per-transmission loss probability. The
// count is capped (cap <= 0 defaults to 8) so pathological rates
// cannot stall a simulation.
func (p *Plan) LossCount(label string, idx int, rate float64, capN int) int {
	if p == nil || rate <= 0 {
		return 0
	}
	if capN <= 0 {
		capN = 8
	}
	n := 0
	for n < capN && p.drawf("loss/%s/%d/%d", label, idx, n) < rate {
		n++
	}
	return n
}

// ProcFailure schedules the death of one simulated processor at a
// virtual time.
type ProcFailure struct {
	Proc int     // processor index
	At   float64 // virtual time of death, in simulated instructions
}

// ProcFailures draws which of procs processors die within the horizon
// (a virtual-time upper bound, e.g. the failure-free makespan), each
// with probability rate, at a uniform time in (0, horizon). Results
// are ordered by processor index.
func (p *Plan) ProcFailures(procs int, rate, horizon float64) []ProcFailure {
	if p == nil || rate <= 0 || horizon <= 0 {
		return nil
	}
	var out []ProcFailure
	for i := 0; i < procs; i++ {
		if p.drawf("procfail/%d", i) < rate {
			at := p.drawf("procfail-at/%d", i) * horizon
			if at <= 0 {
				at = horizon / 2
			}
			out = append(out, ProcFailure{Proc: i, At: at})
		}
	}
	return out
}
