package main

import (
	"fmt"
	"sort"
)

// runTraced is the per-layer run. Its op count is fixed by opt.seconds,
// not by the clock, so its exact counters repeat exactly; it is never
// used for end-to-end numbers. Ops alternate traced and untraced: the
// untraced ones give the raw e2e.* diagnostics, and the ratio of the
// two medians prices the tracing.
func runTraced(opt options) (*result, error) {
	p := newProbe()
	w, _, err := start(opt, p)
	if err != nil {
		return nil, err
	}
	defer w.close()

	var (
		m                 = meter{children: w.children()}
		cal               calibrator
		tracedMs, plainMs []float64
		failed, op        int
	)
	for pair := 0; pair < w.tracePairs(opt.seconds); pair++ {
		for _, traced := range []bool{true, false} {
			p.on = traced
			wall, err := runOp(w, op, &cal, &m)
			p.on = false
			failed += settle(w, op, err)
			if traced {
				tracedMs = append(tracedMs, ms(wall))
			} else {
				plainMs = append(plainMs, ms(wall))
			}
			op++
		}
		if err := w.extras(pair); err != nil {
			return nil, fmt.Errorf("%s: comparison passes: %w", opt.workload, err)
		}
	}
	// Every span so far belongs to a traced op; finish may add the
	// served workload's direct passes, which no op's wall contains.
	var rootMs float64
	for _, s := range p.tr.spans {
		if s.parent < 0 {
			rootMs += ms(s.end - s.start)
		}
	}
	failed += w.finish()

	spans := summarizeSpans(p.tr.spans)
	n := float64(p.tracedOps)
	vals := map[string]float64{
		"spam.self_ms":         ms(spans["spam.interpret"].self+spans["session.update"].self) / n,
		"spam.tasks":           float64(p.c.tasks) / n,
		"ops5.build_seed_ms":   p.buildMs / float64(p.replayOps),
		"ops5.run_ms":          p.runMs / float64(p.replayOps),
		"ops5.firings":         float64(p.c.firings) / n,
		"ops5.rhs_actions":     float64(p.c.rhsActions) / n,
		"ops5.sim_minstr":      p.c.instr / 1e6 / n,
		"ops5.sim_match_share": p.c.matchInstr / p.c.instr,
		"rete.join_tests":      float64(p.c.joinTests) / n,
		"rete.tokens_created":  float64(p.c.tokensCreated) / n,
		"rete.activations":     float64(p.c.activated) / n,
		"geom.memo_hits":       float64(p.geo.Hits) / n,
		"geom.memo_misses":     float64(p.geo.Misses) / n,
		"geom.memo_evictions":  float64(p.geo.Evictions) / n,
		"e2e.op_ms_p50":        median(plainMs),
		"e2e.op_ms_p90":        percentile(plainMs, 90).v,
		"e2e.op_ms_mean":       mean(plainMs),
		"e2e.ops_per_s":        1000 / mean(plainMs),
		"host.calib_ms_p50":    median(cal.ms),
		"host.calib_ms_p90":    percentile(cal.ms, 90).v,
		"trace.overhead_share": median(tracedMs)/median(plainMs) - 1,
		"trace.span_coverage":  rootMs / (mean(tracedMs) * float64(len(tracedMs))),
	}
	if lookups := p.geo.Hits + p.geo.Misses; lookups > 0 {
		vals["geom.memo_hit_ratio"] = float64(p.geo.Hits) / float64(lookups)
	}
	var runTasks float64
	for _, ph := range phases {
		v := ms(spans["tlp.run_tasks."+ph].total) / n
		vals["tlp.run_tasks_ms."+ph] = v
		runTasks += v
	}
	vals["tlp.overhead_ms"] = runTasks - vals["ops5.build_seed_ms"] - vals["ops5.run_ms"]
	w.layerMetrics(vals, op, &m)

	fmt.Printf("workload %s seed=%d traced: %d ops (%d traced), %d replayed\n", opt.workload, opt.seed, op, len(tracedMs), p.replayOps)
	fmt.Printf("  traced op_ms %v  untraced op_ms %v %v\n", percentile(tracedMs, 50), percentile(plainMs, 50), percentile(plainMs, 90))
	fmt.Printf("  host.calib_ms %v %v\n", percentile(cal.ms, 50), percentile(cal.ms, 90))
	names := make([]string, 0, len(spans))
	for name := range spans {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  %-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, name := range names {
		st := spans[name]
		fmt.Printf("  %-24s %8d %12.3f %12.3f\n", name, st.count, ms(st.total), ms(st.self))
	}
	printMetrics(perLayer, vals)
	fmt.Printf("  fail_share=%d/%d\n", failed, op)
	return &result{Correct: failed == 0, Attempted: op, Failed: failed, Metrics: withUnits(perLayer, vals)}, nil
}
