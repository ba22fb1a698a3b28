package main

import (
	"errors"
	"slices"
	"testing"
)

func results(metric string, vals ...float64) []result {
	rs := make([]result, len(vals))
	for i, v := range vals {
		rs[i] = result{Correct: true, Metrics: map[string]struct{ Value float64 }{metric: {v}}}
	}
	return rs
}

// TestQuantile: quartiles interpolate between ranks.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for p, want := range map[float64]float64{0.25: 2, 0.5: 3, 0.75: 4, 1: 5} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile %.2f of %v = %v, want %v", p, xs, got, want)
		}
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of 1, 2 = %v", got)
	}
}

// TestCompare holds the verdict rules: medians of each side, pairs won
// in the metric's direction, a metric gated only where the base's
// inter-quartile distance is below its bound, and a breach only for a
// gated metric whose median is worse by more than its bound.
func TestCompare(t *testing.T) {
	lower := []metric{{Name: "alloc_mb_per_op", Better: "lower", Bound: 0.12}}
	higher := []metric{{Name: "speed", Better: "higher", Bound: 0.10}}
	cases := []struct {
		name          string
		metrics       []metric
		base, change  []float64
		won           int
		delta         float64
		gated, breach bool
	}{
		{"lower and better", lower, []float64{14, 14.2, 14.1}, []float64{7.6, 7.5, 14.3}, 2, 7.6/14.1 - 1, true, false},
		{"worse within bound", lower, []float64{10, 10}, []float64{11, 11}, 0, 0.1, true, false},
		{"worse past bound", lower, []float64{10, 10}, []float64{11.5, 11.5}, 0, 0.15, true, true},
		// Base quartiles 10 and 14 around a median of 12: a spread of 33%.
		{"past bound, base spread wider than it: unresolved", lower, []float64{10, 14, 10, 14}, []float64{14, 14, 14, 14}, 0, 1.0 / 6, false, false},
		{"higher falls past bound", higher, []float64{2, 2, 2}, []float64{1.7, 2.1, 1.7}, 1, -0.15, true, true},
	}
	for _, tc := range cases {
		rows := compare("w", tc.metrics, results(tc.metrics[0].Name, tc.base...), results(tc.metrics[0].Name, tc.change...))
		r := rows[0]
		if r.won != tc.won || r.gated != tc.gated || r.breach != tc.breach || r.pairs != len(tc.base) ||
			r.delta < tc.delta-1e-9 || r.delta > tc.delta+1e-9 {
			t.Errorf("%s: %+v", tc.name, r)
		}
	}
}

// TestSelectWorkloads: no list runs every declared workload; a list
// runs its names in its order; a name the base does not declare is a
// usage error, which main turns into exit status 2.
func TestSelectWorkloads(t *testing.T) {
	declared := []string{"interpret_cli", "serve_inline_small", "session_update", "cluster_2proc"}
	if got, err := selectWorkloads(declared, ""); err != nil || !slices.Equal(got, declared) {
		t.Errorf("no list: %v, %v", got, err)
	}
	if got, err := selectWorkloads(declared, "cluster_2proc,interpret_cli"); err != nil ||
		!slices.Equal(got, []string{"cluster_2proc", "interpret_cli"}) {
		t.Errorf("two names: %v, %v", got, err)
	}
	for _, list := range []string{"cluster_3proc", "interpret_cli,", "cluster_2proc,nope"} {
		_, err := selectWorkloads(declared, list)
		if !errors.As(err, new(usageError)) {
			t.Errorf("%q: err %v, want a usage error", list, err)
		}
	}
}

// TestFailures: a run fails an op when it reports a failed op or an
// incorrect result. The base's failed runs are counted and printed
// beside the change's, so a broken base does not compare silently; only
// the change's fail radar.
func TestFailures(t *testing.T) {
	broken := results("m", 1, 2, 3, 4)
	broken[1].Failed = 2
	broken[3].Correct = false
	clean := results("m", 1, 2, 3, 4)
	line, err := failures(broken, clean)
	if err != nil || line != "runs that failed an op: base 2 of 4, change 0 of 4" {
		t.Errorf("broken base: %q, %v", line, err)
	}
	line, err = failures(clean, broken)
	if err == nil || line != "runs that failed an op: base 0 of 4, change 2 of 4" {
		t.Errorf("broken change: %q, %v", line, err)
	}
}

// TestLayoutEnv: a pair's seed lands in GOFLAGS, once, after the flags
// the environment already sets.
func TestLayoutEnv(t *testing.T) {
	got := layoutEnv([]string{"HOME=/h", "GOFLAGS=-mod=mod", "PATH=/bin"}, 3)
	want := []string{"HOME=/h", "PATH=/bin", "GOFLAGS=-mod=mod -ldflags=-randlayout=3"}
	if !slices.Equal(got, want) {
		t.Errorf("layoutEnv = %q, want %q", got, want)
	}
	if got := layoutEnv([]string{"HOME=/h"}, 1); !slices.Equal(got, []string{"HOME=/h", "GOFLAGS=-ldflags=-randlayout=1"}) {
		t.Errorf("layoutEnv without GOFLAGS = %q", got)
	}
}
