// Wire-level support for the multi-process cluster runtime
// (internal/cluster). The cluster coordinator ships tasks to worker
// processes and collects Result-equivalent replies; this file defines
// the pieces of that exchange that belong to the task runtime itself:
//
//   - WireSpec, the shippable description of a task (its seed working
//     memory and what to extract from the final one), attached lazily
//     to a Task so purely local runs never pay for it;
//   - Snapshot, the extracted working memory attached to a Result —
//     all a cluster worker's result carries of its engine — with
//     Result.WMEs hiding the difference from result extractors;
//   - RemoteError, an error that crossed a process boundary as a
//     message string plus classification marks, so the coordinator's
//     RunReport classifies remote failures exactly as local ones;
//   - RunConfig.Order and Pool.RunOne, the queue-ordering and
//     single-task-execution entry points the coordinator and the
//     worker loop drive directly.
package tlp

import (
	"context"
	"errors"

	"spampsm/internal/faults"
	"spampsm/internal/ops5"
	"spampsm/internal/wm"
)

// BuildMode is how one run's task engines are built. The zero value is
// the production path; each reference bit selects the implementation
// the differential oracles hold the production path to — observably
// identical (byte-identical results, firings and instruction counts),
// only slower. It is a per-run value: it rides in the task's builder
// in process and in the task's WireSpec across processes, so two runs
// under different modes can share one process, one cached dataset and
// one worker.
type BuildMode struct {
	// Capture records per-activation match cost for the match-parallel
	// simulators.
	Capture bool
	// NaiveMatch selects the reference matcher, which sweeps every alpha
	// memory of a WME's class instead of dispatching on its constant
	// tests.
	NaiveMatch bool
	// FreshCompile compiles the phase program privately per engine
	// instead of instantiating the Program's cached template.
	FreshCompile bool
	// ReferenceGeo evaluates every spatial predicate per call with
	// per-call Polygon methods and the exact Hypot distance kernel —
	// no predicate memo, no derived geometry, no partner grid.
	ReferenceGeo bool
}

// Bits packs the mode into one byte for the wire, one bit per field in
// declaration order. Bit 3 (value 8) selected a per-WME seed load until
// wire version 6; it stays undefined, so a frame that sets it is
// refused rather than read as some later field.
func (m BuildMode) Bits() byte {
	var b byte
	for i, on := range [...]bool{m.Capture, m.NaiveMatch, m.FreshCompile, false, m.ReferenceGeo} {
		if on {
			b |= 1 << i
		}
	}
	return b
}

// BuildModeFromBits unpacks a wire byte; false when it carries a bit no
// field defines (a peer asking for a path this process does not have
// must be refused, not silently run on the production path).
func BuildModeFromBits(b byte) (BuildMode, bool) {
	m := BuildMode{
		Capture: b&1 != 0, NaiveMatch: b&2 != 0, FreshCompile: b&4 != 0,
		ReferenceGeo: b&16 != 0,
	}
	return m, m.Bits() == b
}

// WireSpec is the shippable description of one task: which dataset's
// knowledge it runs against, which phase program to instantiate and how
// (Mode), the seed working memory to assert (shared seeds carry their
// routing digest discipline through the Digest field — an empty digest
// ships as a plain seed, a non-empty one is recomputed on the worker),
// and which WME classes to snapshot from the final working memory for
// result extraction.
type WireSpec struct {
	Dataset string
	Phase   string // rtf | lcc | fa | model
	Mode    BuildMode
	Seeds   []ops5.Seed
	Extract []string // WME classes snapshotted into the Result
}

// SharedSeedIndexes returns the indexes of the spec's shared
// (digest-carrying) seeds — the recurring cross-task state the cluster
// runtime chunks and content-addresses. Plain seeds (empty digest) are
// task-private rows and always ship inline.
func (s *WireSpec) SharedSeedIndexes() []int {
	var idx []int
	for i, seed := range s.Seeds {
		if seed.Digest != "" {
			idx = append(idx, i)
		}
	}
	return idx
}

// Snapshot is the working memory extracted from a task's final state:
// the WMEs of each class the task's Extract names, in timetag order, as
// copies that outlive the engine's arena-backed memory — and, across a
// process boundary, stand in for Result.Engine.
type Snapshot map[string][]*wm.WME

// WMEs returns the result's final WMEs of a class: from the snapshot
// when the executor took one, from the engine otherwise (a replay that
// built its own, unsettled engines hands back results with no
// snapshot). Extractors that only read final working memory see no
// difference.
func (r *Result) WMEs(class string) []*wm.WME {
	if r.Snapshot == nil && r.Engine != nil {
		return r.Engine.WMEs(class)
	}
	return r.Snapshot[class]
}

// Error classification marks. A worker process reduces each attempt
// error to its message plus these bits; the coordinator rebuilds a
// RemoteError that classifies identically in RunReport and behaves
// identically under the pool's retry/quarantine rules.
const (
	MarkCancelled uint32 = 1 << iota
	MarkTimeout
	MarkBudget
	MarkCrash
	MarkInjected
	MarkPermanent
	MarkPanic
)

// ErrorMarks reduces an error to its classification bits, using the
// same sentinel checks the RunReport classifier applies.
func ErrorMarks(err error) uint32 {
	if err == nil {
		return 0
	}
	var m uint32
	var pe *PanicError
	if errors.As(err, &pe) {
		m |= MarkPanic
	}
	var re *RemoteError
	if errors.As(err, &re) {
		m |= re.Marks
	}
	if errors.Is(err, ErrCancelled) {
		m |= MarkCancelled
	}
	if errors.Is(err, ErrTimeout) {
		m |= MarkTimeout
	}
	if errors.Is(err, ErrBudgetExceeded) {
		m |= MarkBudget
	}
	if errors.Is(err, ErrWorkerCrash) {
		m |= MarkCrash
	}
	if errors.Is(err, faults.ErrInjected) {
		m |= MarkInjected
	}
	if errors.Is(err, faults.ErrPermanent) {
		m |= MarkPermanent
	}
	return m
}

// RemoteError is an error reconstructed from the wire: the original
// message (so reports stay byte-identical to an in-process run) plus
// the classification marks the worker computed before serializing.
type RemoteError struct {
	Msg   string
	Marks uint32
}

func (e *RemoteError) Error() string { return e.Msg }

// Is resurrects the sentinel relationships the marks encode, so
// errors.Is on a shipped error answers exactly as it would have on the
// original.
func (e *RemoteError) Is(target error) bool {
	switch target {
	case ErrCancelled:
		return e.Marks&MarkCancelled != 0
	case ErrTimeout:
		return e.Marks&MarkTimeout != 0
	case ErrBudgetExceeded:
		return e.Marks&MarkBudget != 0
	case ErrWorkerCrash:
		return e.Marks&MarkCrash != 0
	case faults.ErrInjected:
		return e.Marks&MarkInjected != 0
	case faults.ErrPermanent:
		return e.Marks&MarkPermanent != 0
	}
	return false
}

// RunOne executes a single task behind the pool's memory gate and
// under cfg — fault plan, retries, quarantine — starting the attempt
// counter at startAttempt (1 for a fresh task; higher when earlier
// attempts were charged elsewhere, e.g. to a worker process that died
// mid-task and whose loss the coordinator already recorded). The
// attempt budget stays global: the task is quarantined once its
// attempt number reaches 1+MaxRetries regardless of where earlier
// attempts ran. scratch is the calling executor's match arena (see
// Task.BuildWith); nil makes every engine own its memory. This is the
// cluster worker loop's execution entry point: a worker process serves
// every run's tasks, each under the configuration its frame carries,
// from one pool, so they all reserve against one MemBudget. Batch runs
// should use Run/RunContext.
func (p *Pool) RunOne(ctx context.Context, cfg RunConfig, t *Task, worker, seq, startAttempt int, scratch *ops5.Scratch) *Result {
	if startAttempt < 1 {
		startAttempt = 1
	}
	gate := p.gate()
	got, err := gate.acquire(ctx, t.MemEst)
	if err != nil {
		return cancelledResult(t, seq, startAttempt-1, nil, err)
	}
	defer gate.release(got)
	return cfg.runOneFrom(ctx, t, worker, seq, startAttempt, scratch)
}
