package spam

import (
	"testing"

	"spampsm/internal/scene"
)

// End-to-end benchmark: a scaled-down spambench-style interpretation
// (all four phases over the DC scene at half scale) on the production
// dataset and on its reference twin (referenceOf: the ops5 reference
// matcher, which compiles privately and sweeps constant tests, and the
// exact geometry with no predicate memo, derived cache or partner grid).
// It includes scene generation, task building, rule compilation and RHS
// execution, so the wins of dispatch and of the geometry fast paths are
// diluted relative to their microbenchmarks. Measured in one run so
// machine noise cancels out of the ratio.

func benchInterpret(b *testing.B, reference bool) {
	p := scene.DC.Scale(0.5)
	p.Name = "DC-small"
	b.ReportAllocs()
	b.ResetTimer()
	firings := 0
	for i := 0; i < b.N; i++ {
		d, err := NewDataset(p)
		if err != nil {
			b.Fatal(err)
		}
		if reference {
			d = referenceOf(d)
		}
		in, err := d.Interpret(InterpretOptions{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		firings += in.TotalFirings()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(firings)/sec, "firings/s")
	}
}

func BenchmarkInterpretDC(b *testing.B) {
	b.Run("production", func(b *testing.B) { benchInterpret(b, false) })
	b.Run("reference", func(b *testing.B) { benchInterpret(b, true) })
}
