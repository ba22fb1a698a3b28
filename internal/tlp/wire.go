// Wire-level support for the multi-process cluster runtime
// (internal/cluster). The cluster coordinator ships tasks to worker
// processes and collects Result-equivalent replies; this file defines
// the pieces of that exchange that belong to the task runtime itself:
//
//   - WireSpec, the shippable description of a task (its seed working
//     memory and which classes of the final one its result ships, for
//     the coordinator to run the task's Read over), attached lazily to
//     a Task so purely local runs never pay for it, and recycled
//     through a package pool once its frame is encoded;
//   - RemoteError, an error that crossed a process boundary as a
//     message string plus classification marks, so the coordinator's
//     RunReport classifies remote failures exactly as local ones.
//
// The coordinator orders its shipping queue with RunConfig.Order, and a
// worker process serves every task frame as a Job on one Pool.
package tlp

import (
	"errors"
	"slices"

	"spampsm/internal/faults"
	"spampsm/internal/ops5"
	"spampsm/internal/symtab"
)

// WireSpec is the shippable description of one task: which dataset's
// knowledge it runs against, which phase program to instantiate, the
// seed working memory to assert (shared seeds carry their
// routing digest discipline through the Digest field — an empty digest
// ships as a plain seed, a non-empty one is recomputed on the worker),
// and which WME classes of the final working memory the result frame
// ships: every class the task's Read reads.
//
// A spec from NewWireSpec is also the ops5.SeedSink its task's rows are
// assembled into: plain rows' values are carved from one slab the spec
// owns. Its holder hands it back with Release once nothing reads its
// rows any more (the coordinator, once the task's frames are encoded);
// a spec nobody releases is collected like any other value.
type WireSpec struct {
	Dataset string
	Phase   string // rtf | lcc | fa | model
	Seeds   []ops5.Seed
	Extract []string // WME classes the result frame ships

	vals   []symtab.Value // the slab plain rows' vectors are carved from
	pooled bool           // from NewWireSpec: Release recycles it
}

// specPool holds released specs for the next NewWireSpec. Its 8 slots
// are one per connection feeder that can be wiring at once (two on a
// two-worker cluster), with room for more connections. It is a channel,
// not a sync.Pool, so a spec is reused alike under the race detector,
// which thins a sync.Pool on purpose. A spec whose seed slice or value
// slab outgrew its cap is left to the GC instead; the largest task of
// SF, DC or MOFF has 148 seed rows and 346 plain values, so a pooled
// spec retains at most about 60 KB.
var specPool = make(chan *WireSpec, 8)

const keepSeeds, keepVals = 512, 2048

// NewWireSpec returns an empty spec of the pool, with room for rows
// seeds, for a task of the named dataset and phase whose result frame
// ships the extract classes.
func NewWireSpec(dataset, phase string, extract []string, rows int) *WireSpec {
	var s *WireSpec
	select {
	case s = <-specPool:
	default:
		s = &WireSpec{pooled: true}
	}
	s.Dataset, s.Phase, s.Extract = dataset, phase, extract
	s.Seeds = slices.Grow(s.Seeds, rows)
	return s
}

// NewVals carves a zeroed vector for one plain row from the spec's
// slab, starting a larger slab when it is full (the rows already
// carved keep the old one).
func (s *WireSpec) NewVals(n int) []symtab.Value {
	if len(s.vals)+n > cap(s.vals) {
		s.vals = make([]symtab.Value, 0, max(2*cap(s.vals), n, 64))
	}
	v := s.vals[len(s.vals):][:n:n]
	s.vals = s.vals[:len(s.vals)+n]
	clear(v)
	return v
}

// AssertSeed appends a row to the spec's seeds.
func (s *WireSpec) AssertSeed(sd ops5.Seed) error {
	s.Seeds = append(s.Seeds, sd)
	return nil
}

// Release hands a spec from NewWireSpec back to the pool; its seeds,
// and the vectors carved for them, are then the next task's to
// overwrite. Any other spec, and one past the caps, is left as it is.
func (s *WireSpec) Release() {
	if !s.pooled || cap(s.Seeds) > keepSeeds || cap(s.vals) > keepVals {
		return
	}
	clear(s.Seeds)
	*s = WireSpec{Seeds: s.Seeds[:0], vals: s.vals[:0], pooled: true}
	select {
	case specPool <- s:
	default:
	}
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
