package main

import "testing"

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
