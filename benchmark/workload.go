package main

import (
	"context"
	"fmt"

	"spampsm/internal/spam"
)

// workload is one user path under a closed loop of one client. The
// harness times setup, meters run, and leaves everything else unmetered.
type workload interface {
	// setup builds everything the ops need — compiled programs, scenes,
	// datasets, server or coordinator plus workers — and completes the
	// first op, all on cold caches. Its wall time is one setup_s sample.
	setup() error
	// prepare builds the harness's own references; it is not part of
	// setup_s and must not warm anything the ops use.
	prepare() error
	// parts is the number of timed sections in one op. A multi-part op
	// gets a calibration sample before every part.
	parts() int
	// calibEvery is, for a single-part op, how many ops share one
	// calibration sample.
	calibEvery() int
	// run executes one timed section and nothing else.
	run(op, part int) error
	// after runs between ops: output checks, input generation for the
	// next op, session turnover. It returns 1 if the op's output was
	// wrong.
	after(op int) int
	// finish runs the checks that had to wait for the timed sections to
	// end, and returns the number of ops they found wrong.
	finish() int
	// heapMB returns live-heap samples the workload took at its own
	// fixed points; none means the harness samples once at the end.
	heapMB() []float64
	// children are the live child processes whose CPU the ops use.
	children() []int
	close()

	// tracePairs is the traced run's fixed op count, in (traced,
	// untraced) pairs, for a nominal duration.
	tracePairs(seconds int) int
	// extras runs the traced run's comparison passes after a pair.
	extras(pair int) error
	// layerMetrics adds the metrics only this workload can measure.
	layerMetrics(vals map[string]float64, ops int, m *meter)
}

// base supplies the answers most workloads share.
type base struct{}

func (base) prepare() error                               { return nil }
func (base) parts() int                                   { return 1 }
func (base) calibEvery() int                              { return 1 }
func (base) after(int) int                                { return 0 }
func (base) finish() int                                  { return 0 }
func (base) heapMB() []float64                            { return nil }
func (base) children() []int                              { return nil }
func (base) extras(int) error                             { return nil }
func (base) layerMetrics(map[string]float64, int, *meter) {}

func newWorkload(name string, seed uint64, p *probe) (workload, error) {
	switch name {
	case "interpret_cli":
		return &rounds{p: p}, nil
	case "cluster_2proc":
		return &rounds{p: p, clustered: true}, nil
	case "serve_inline_small":
		return &served{p: p, seed: seed}, nil
	case "session_update":
		return &sessions{p: p, seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// interpretTraced is one interpretation under a spam.interpret span
// with a timing Runner delegating to inner.
func interpretTraced(p *probe, op int, d *spam.Dataset, inner spam.Runner) (*spam.Interpretation, error) {
	tr := p.tracer()
	id := tr.begin("spam.interpret", -1, op)
	before := d.Store.GeoStats()
	opts := interpretOptions()
	opts.Runner = &timingRunner{inner: inner, p: p, parent: id, op: op}
	in, err := d.InterpretContext(context.Background(), opts)
	tr.end(id)
	p.addGeo(before, d.Store.GeoStats())
	return in, err
}

// interpretReplay is one interpretation through the serial replay
// Runner, which splits engine build from engine run.
func interpretReplay(p *probe, d *spam.Dataset) (*spam.Interpretation, error) {
	opts := interpretOptions()
	opts.Runner = replayRunner{p}
	return d.Interpret(opts)
}
