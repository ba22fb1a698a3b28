package spam

import (
	"testing"

	"spampsm/internal/scene"
	"spampsm/internal/tlp"
)

// End-to-end benchmark: a scaled-down spambench-style interpretation
// (all four phases over the DC scene at half scale), indexed vs naive.
// This is the wall-clock number the ISSUE's ≥2× acceptance criterion
// is judged on for real workloads: it includes scene generation, task
// building, rule compilation and RHS execution, so the matcher's win
// is diluted relative to the rete microbenchmarks.

func benchInterpret(b *testing.B, mode tlp.BuildMode) {
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
		in, err := d.Interpret(InterpretOptions{Workers: 2, Build: mode})
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
	b.Run("indexed", func(b *testing.B) { benchInterpret(b, tlp.BuildMode{}) })
	b.Run("naive", func(b *testing.B) { benchInterpret(b, tlp.BuildMode{NaiveMatch: true}) })
}

// BenchmarkInterpretDCGeo is the end-to-end geometry A/B: the same
// interpretation on the reference geometry path (BuildMode.ReferenceGeo:
// the exact Hypot kernel, no predicate memo, no derived cache, linear
// partner scans — the pre-fast-path behavior) versus the default fast
// path. Measured in one run so machine noise cancels out of the ratio.
func BenchmarkInterpretDCGeo(b *testing.B) {
	b.Run("exact", func(b *testing.B) { benchInterpret(b, tlp.BuildMode{ReferenceGeo: true}) })
	b.Run("fast", func(b *testing.B) { benchInterpret(b, tlp.BuildMode{}) })
}
