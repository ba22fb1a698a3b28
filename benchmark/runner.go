package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"spampsm/internal/cluster"
	"spampsm/internal/ops5"
	"spampsm/internal/rete"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// interpretOptions is what `spamrun -reentry` runs with, on every
// workload: no prebuild, no faults, no memory budget, fifo.
func interpretOptions() spam.InterpretOptions {
	return spam.InterpretOptions{Workers: 1, Level: spam.Level3, RTFBatch: 3, ReEntry: true, Sched: tlp.FIFO}
}

// poolRunner adapts a private tlp.Pool to spam.Runner — what
// InterpretContext builds for itself when no Runner is passed.
type poolRunner struct{ pool *tlp.Pool }

func (r poolRunner) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	return r.pool.RunContext(ctx, tasks)
}

// phases are the four run_tasks span suffixes; LCC re-entry queues
// count as lcc, where the paper accounts them.
var phases = []string{"rtf", "lcc", "fa", "model"}

// phaseOf names a queue's phase from its first task ID (rtf-…,
// lcc3-… or lccr3-…, fa-…, model-…).
func phaseOf(tasks []*tlp.Task) string {
	if len(tasks) > 0 {
		for _, p := range phases {
			if strings.HasPrefix(tasks[0].ID, p) {
				return p
			}
		}
	}
	return "other"
}

// counters are exact work counts read from the layers' public
// counters. The simulated-instruction figures are the NS32332 clock
// and are never mixed with host time.
type counters struct {
	tasks, firings, rhsActions          int
	instr, matchInstr                   float64
	joinTests, tokensCreated, activated int
}

// probe is the state of a traced run: the spans, the exact counters
// summed over traced ops, and the serial replay's build/run split.
type probe struct {
	tr *tracer
	// on is false during the untraced ops of a traced run, whose only
	// purpose is to price the tracing itself.
	on bool

	tracedOps int
	c         counters
	geo       spam.GeoMemoStats // deltas summed over traced ops
	// seen holds each retained engine's counters as of its last run, so
	// a warm session engine contributes only what its re-run added. Only
	// the session workload sets it, per session: it pins every engine it
	// has seen, which elsewhere would pin the whole run's engines.
	seen map[*ops5.Engine]rete.Counters

	// The serial replay pass: ops replayed, and their build/run split.
	replayOps      int
	buildMs, runMs float64

	// What single workloads add (see their layerMetrics).
	codec         *codecProbe // cluster: set for the length of a replay round
	codecMs       float64
	compareMs     []float64 // rounds: the comparison round's wall, per pair
	initialMs     []float64 // sessions: initial interpretations
	update        spam.UpdateReport
	deltaRegions  int
	httpMs        float64 // served: sums over traced requests
	handlerMs     float64
	directMs      float64
	requestBytes  int
	responseBytes int
}

func newProbe() *probe { return &probe{tr: newTracer()} }

// tracer returns the span sink for the current op: nil when the probe
// is absent (untraced run) or switched off.
func (p *probe) tracer() *tracer {
	if p == nil || !p.on {
		return nil
	}
	return p.tr
}

func (p *probe) count(results []*tlp.Result) {
	for _, r := range results {
		if r == nil || r.Err != nil {
			continue
		}
		p.c.tasks++
		p.c.firings += r.Stats.Firings
		p.c.rhsActions += r.Stats.RHSActions
		p.c.instr += r.Stats.TotalInstr()
		p.c.matchInstr += r.Stats.MatchInstr + r.Stats.InitInstr
		if r.Engine == nil {
			continue // ran in a cluster worker; its network stayed there
		}
		now, was := r.Engine.MatchCounters(), p.seen[r.Engine]
		if p.seen != nil {
			p.seen[r.Engine] = now
		}
		p.c.joinTests += now.JoinTests - was.JoinTests
		p.c.tokensCreated += now.TokensCreated - was.TokensCreated
		p.c.activated += now.Activations - was.Activations
	}
}

func (p *probe) addGeo(before, after spam.GeoMemoStats) {
	p.geo.Hits += after.Hits - before.Hits
	p.geo.Misses += after.Misses - before.Misses
	p.geo.Evictions += after.Evictions - before.Evictions
}

// timingRunner is the interposition point between spam and the task
// layer: one tlp.run_tasks span per phase queue under the op's
// spam.interpret or session.update span, so spam's self time is the
// gaps between them. It delegates to a real pool or cluster runner.
type timingRunner struct {
	inner  spam.Runner
	p      *probe
	parent int // span the next queues run under
	op     int
}

func (r *timingRunner) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	tr := r.p.tracer()
	id := tr.begin("tlp.run_tasks."+phaseOf(tasks), r.parent, r.op)
	results, err := r.inner.RunTasks(ctx, tasks)
	tr.end(id)
	if tr != nil {
		r.p.count(results)
	}
	return results, err
}

// replayRunner executes each queue serially on the caller's goroutine,
// timing Task.BuildWith (engine instantiation plus seed load; on a
// session's warm engine, retract plus reload) apart from Engine.Run.
// The pool's own cost is then run_tasks time minus this pass — a
// difference of two passes, so a coarse one.
type replayRunner struct{ p *probe }

func (r replayRunner) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	results := make([]*tlp.Result, len(tasks))
	for i, t := range tasks {
		build := t.Build
		if t.BuildWith != nil {
			build = func() (*ops5.Engine, error) { return t.BuildWith(nil) }
		}
		t0 := time.Now()
		eng, err := build()
		if err != nil {
			return nil, fmt.Errorf("benchmark: replay build %s: %w", t.ID, err)
		}
		t1 := time.Now()
		if _, err := eng.Run(0); err != nil {
			return nil, fmt.Errorf("benchmark: replay run %s: %w", t.ID, err)
		}
		t2 := time.Now()
		r.p.buildMs += ms(t1.Sub(t0))
		r.p.runMs += ms(t2.Sub(t1))
		results[i] = &tlp.Result{TaskID: t.ID, Stats: eng.Stats(), Log: eng.Log(), Engine: eng, SeqInQ: i, Attempts: 1}
		if r.p.codec != nil {
			d, err := r.p.codec.roundTrip(t, eng)
			if err != nil {
				return nil, err
			}
			r.p.codecMs += ms(d)
		}
	}
	return results, nil
}

// codecProbe re-enacts one connection's wire v2 traffic outside the
// coordinator: shared seeds ship once as chunks and are referenced
// afterwards, everything interns against one table pair per direction.
type codecProbe struct {
	taskEnc, resEnc *cluster.EncTab
	taskDec, resDec *cluster.DecTab
	chunkID         map[string]int64
	chunks          []ops5.Seed
}

func newCodecProbe() *codecProbe {
	return &codecProbe{
		taskEnc: cluster.NewEncTab(), resEnc: cluster.NewEncTab(),
		taskDec: &cluster.DecTab{}, resDec: &cluster.DecTab{},
		chunkID: map[string]int64{},
	}
}

// roundTrip returns the time to encode and decode the task's frames
// (new chunks, the task, its result). Building the messages is not
// timed: the coordinator and worker hold them already.
func (c *codecProbe) roundTrip(t *tlp.Task, eng *ops5.Engine) (time.Duration, error) {
	if t.Wire == nil {
		return 0, fmt.Errorf("benchmark: task %s has no wire form", t.ID)
	}
	spec, err := t.Wire()
	if err != nil {
		return 0, fmt.Errorf("benchmark: wire %s: %w", t.ID, err)
	}
	task := &cluster.TaskMsg{ID: t.ID, Label: t.Label, Group: t.Group, EstSize: t.EstSize, MemEst: t.MemEst, Spec: *spec}
	res := &cluster.ResultMsg{TaskID: t.ID, Attempts: 1, Stats: eng.Stats(), Mem: eng.Log().Mem, HasLog: true}
	for _, class := range spec.Extract {
		sc := cluster.SnapClass{Name: class}
		for _, w := range eng.WMEs(class) {
			sc.Attrs = w.Class.Attrs
			sc.Rows = append(sc.Rows, w.Vals)
		}
		res.Snapshot = append(res.Snapshot, sc)
	}
	refs := make([]int64, len(spec.Seeds))
	for i := range refs {
		refs[i] = -1
	}

	start := time.Now()
	for _, i := range spec.SharedSeedIndexes() {
		seed := spec.Seeds[i]
		id, ok := c.chunkID[seed.Digest]
		if !ok {
			id = int64(len(c.chunks))
			if _, s, err := cluster.DecodeChunk(c.taskDec, cluster.EncodeChunk(c.taskEnc, uint64(id), seed)); err != nil {
				return 0, err
			} else {
				c.chunks = append(c.chunks, s)
			}
			c.chunkID[seed.Digest] = id
		}
		refs[i] = id
	}
	resolve := func(id uint64) (ops5.Seed, bool) {
		if id >= uint64(len(c.chunks)) {
			return ops5.Seed{}, false
		}
		return c.chunks[id], true
	}
	if _, _, err := cluster.DecodeTaskV2(c.taskDec, cluster.EncodeTaskV2(c.taskEnc, task, refs), resolve); err != nil {
		return 0, err
	}
	if _, err := cluster.DecodeResultV2(c.resDec, cluster.EncodeResultV2(c.resEnc, res)); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
