package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"spampsm/internal/core"
	"spampsm/internal/ops5"
	"spampsm/internal/rete"
	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

const (
	// sessionUpdates caps a session's life. Unbounded churn either
	// grows the scene or drains it (a 1% probe decayed into 20 µs no-op
	// updates), so after this many updates the session is dropped and a
	// fresh one opened on a fresh dataset.
	sessionUpdates = 10
	// sessionChurn is the share of regions each update disturbs.
	sessionChurn = 0.02
)

// sessions is the `spamrun -update` path: spam.NewSession on MOFF, one
// initial interpretation, then updates under default churn. One op is
// one Session.Update. It uses ops5 and rete unlike the other three —
// RetractBatch plus re-assert on retained warm engines, signature
// diffing in spam, a large retained heap — so a gain for fresh
// build-and-run that costs the retract path shows here.
type sessions struct {
	base
	p    *probe
	seed uint64

	runner  *timingRunner // traced run only
	sess    *spam.Session
	ds      *spam.Dataset
	last    *spam.Interpretation
	next    *scene.Delta
	applied int    // updates the current session has taken
	churned uint64 // deltas drawn so far; the next churn seed is seed+churned
	opened  uint64 // churned when the current session opened
	heap    []float64

	// Traced run only: which deltas traced ops applied, and up to which
	// delta finished sessions have been replayed.
	tracedDelta map[uint64]bool
	replayedTo  uint64
}

func (w *sessions) heapMB() []float64 { return w.heap }

func (w *sessions) setup() error {
	if w.p != nil {
		w.runner = &timingRunner{inner: poolRunner{&tlp.Pool{Workers: 1}}, p: w.p}
		w.tracedDelta = map[uint64]bool{}
	}
	if err := w.open(); err != nil {
		return err
	}
	if err := w.run(-1, 0); err != nil {
		return err
	}
	w.draw()
	return nil
}

// open starts a session on a freshly loaded MOFF, interprets it, and
// draws the first delta. It is never inside a timed section.
func (w *sessions) open() error {
	ds, err := core.LoadDataset("MOFF")
	if err != nil {
		return err
	}
	opts := interpretOptions()
	if w.runner != nil {
		opts.Runner = w.runner
	}
	w.ds, w.sess, w.applied, w.opened = ds, spam.NewSession(ds, opts), 0, w.churned
	start := time.Now()
	if _, _, err := w.sess.Interpret(context.Background()); err != nil {
		return err
	}
	if w.p != nil {
		w.p.initialMs = append(w.p.initialMs, msSince(start))
		w.p.seen = map[*ops5.Engine]rete.Counters{}
	}
	w.draw()
	return nil
}

// draw generates the next delta against the session's current scene;
// churn seeds count up from the run's seed, so no two updates of a run
// disturb the same picks.
func (w *sessions) draw() {
	w.next = churn(w.sess.Scene(), w.seed, w.churned)
	w.churned++
}

// churn is the k-th delta of a run against the scene's current state.
func churn(s *scene.Scene, seed, k uint64) *scene.Delta {
	return s.Churn(scene.DefaultChurn(seed+k, sessionChurn))
}

func (w *sessions) run(op, _ int) error {
	tr := w.p.tracer()
	id := tr.begin("session.update", -1, op)
	if w.runner != nil {
		w.runner.parent, w.runner.op = id, op
	}
	before := w.sess.Store().GeoStats()
	in, rep, err := w.sess.Update(context.Background(), w.next)
	tr.end(id)
	if err != nil {
		return err
	}
	w.last = in
	w.applied++
	if tr != nil {
		w.tracedDelta[w.churned-1] = true
		w.p.addGeo(before, w.sess.Store().GeoStats())
		w.p.tracedOps++
		w.p.deltaRegions += w.next.Size()
		w.p.update.Tasks += rep.Tasks
		w.p.update.Rerun += rep.Rerun
		w.p.update.Reused += rep.Reused
		w.p.update.RetractedWMEs += rep.RetractedWMEs
	}
	return nil
}

// after turns the session over once it has taken its updates: its last
// update is checked, the live heap sampled with the session still
// referenced, and a fresh session opened.
func (w *sessions) after(int) int {
	if w.applied < sessionUpdates {
		w.draw()
		return 0
	}
	bad := w.check()
	w.heap = append(w.heap, liveHeapMB())
	if err := w.open(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: session open:", err)
		return 1
	}
	return bad
}

// check compares the session's latest interpretation with a
// from-scratch interpretation of its current scene.
func (w *sessions) check() int {
	fresh := spam.NewDatasetWith(w.sess.Scene().Clone(), w.ds.KB, w.ds.Progs)
	want, err := fresh.Interpret(interpretOptions())
	if err == nil && spam.SameOutputs(want, w.last) {
		return 0
	}
	fmt.Fprintf(os.Stderr, "benchmark: update %d of a session differs from a from-scratch interpretation (err=%v)\n", w.applied, err)
	return 1
}

func (w *sessions) finish() int {
	if w.applied == 0 {
		return 0
	}
	return w.check()
}

func (w *sessions) close() {}

// tracePairs covers whole sessions: sessionUpdates/2 pairs each.
func (w *sessions) tracePairs(seconds int) int { return max(1, seconds/10) * sessionUpdates / 2 }

// extras replays serially every session that has finished since the
// last call: the same deltas on the same scene states, counting only
// the updates a traced op applied, so run_tasks time and the replay's
// build/run split describe the same work.
func (w *sessions) extras(int) error {
	for ; w.replayedTo < w.opened; w.replayedTo += sessionUpdates {
		if err := w.replay(w.replayedTo); err != nil {
			return err
		}
	}
	return nil
}

func (w *sessions) replay(first uint64) error {
	ds, err := core.LoadDataset("MOFF")
	if err != nil {
		return err
	}
	opts := interpretOptions()
	opts.Runner = replayRunner{w.p}
	sess := spam.NewSession(ds, opts)
	// Only traced updates count: whatever else the replay Runner times —
	// the initial interpretation, the untraced updates — is put back.
	buildMs, runMs := w.p.buildMs, w.p.runMs
	if _, _, err := sess.Interpret(context.Background()); err != nil {
		return err
	}
	for k := first; k < first+sessionUpdates; k++ {
		w.p.buildMs, w.p.runMs = buildMs, runMs
		if _, _, err := sess.Update(context.Background(), churn(sess.Scene(), w.seed, k)); err != nil {
			return err
		}
		if w.tracedDelta[k] {
			buildMs, runMs = w.p.buildMs, w.p.runMs
			w.p.replayOps++
		}
	}
	w.p.buildMs, w.p.runMs = buildMs, runMs
	return nil
}

func (w *sessions) layerMetrics(vals map[string]float64, _ int, _ *meter) {
	n, u := float64(w.p.tracedOps), w.p.update
	vals["spam.session.rerun_share"] = float64(u.Rerun) / float64(u.Tasks)
	vals["spam.session.reused"] = float64(u.Reused) / n
	vals["spam.session.retracted_wmes"] = float64(u.RetractedWMEs) / n
	vals["spam.session.update_vs_full"] = vals["e2e.op_ms_p50"] / median(w.p.initialMs)
	vals["scene.delta_regions"] = float64(w.p.deltaRegions) / n
}
