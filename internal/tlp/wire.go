// Wire-level support for the multi-process cluster runtime
// (internal/cluster). The cluster coordinator ships tasks to worker
// processes and collects Result-equivalent replies; this file defines
// the pieces of that exchange that belong to the task runtime itself:
//
//   - WireSpec, the shippable description of a task (its seed working
//     memory and which classes of the final one its result ships, for
//     the coordinator to run the task's Read over), attached lazily to
//     a Task so purely local runs never pay for it;
//   - RemoteError, an error that crossed a process boundary as a
//     message string plus classification marks, so the coordinator's
//     RunReport classifies remote failures exactly as local ones.
//
// The coordinator orders its shipping queue with RunConfig.Order, and a
// worker process serves every task frame as a Job on one Pool.
package tlp

import (
	"errors"

	"spampsm/internal/faults"
	"spampsm/internal/ops5"
)

// WireSpec is the shippable description of one task: which dataset's
// knowledge it runs against, which phase program to instantiate, the
// seed working memory to assert (shared seeds carry their
// routing digest discipline through the Digest field — an empty digest
// ships as a plain seed, a non-empty one is recomputed on the worker),
// and which WME classes of the final working memory the result frame
// ships: every class the task's Read reads.
type WireSpec struct {
	Dataset string
	Phase   string // rtf | lcc | fa | model
	Seeds   []ops5.Seed
	Extract []string // WME classes the result frame ships
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
