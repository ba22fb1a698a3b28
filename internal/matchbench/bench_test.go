package matchbench

import "testing"

// Engine-level benchmarks over the Figure 3 match-intensive systems.
// These run complete recognize-act cycles (parse, compile, assert,
// fire) with capture on, so they measure the matcher inside its real
// engine harness. A capturing engine sweeps its constant tests whatever
// its matcher option says, so there is one case per system.

func benchSpec(b *testing.B, s Spec) {
	b.ReportAllocs()
	b.ResetTimer()
	var tokens, sec float64
	for i := 0; i < b.N; i++ {
		e, err := Build(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(0); err != nil {
			b.Fatal(err)
		}
		c := e.MatchCounters()
		tokens += float64(c.TokensCreated + c.TokensDeleted)
	}
	b.StopTimer()
	if sec = b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(tokens/sec, "tokens/s")
	}
}

func BenchmarkRubik(b *testing.B)   { benchSpec(b, Rubik) }
func BenchmarkWeaver(b *testing.B)  { benchSpec(b, Weaver) }
func BenchmarkTourney(b *testing.B) { benchSpec(b, Tourney) }
