package core

import (
	"syscall"
	"testing"
	"time"

	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// BenchmarkInterpretRound is one op of the benchmark's interpret_cli
// workload: SF, DC and MOFF interpreted back to back at Level 3 with
// LCC re-entry, each on a private one-worker pool. The datasets are
// loaded once, outside the timer, as the workload's set-up does; what
// is timed is task building, engine construction, seed loading, match
// and RHS. Beside ns/op it reports the process's CPU time per op
// (user + system, garbage collection included), which a busy host
// perturbs less than wall time. `make cpu-profile` profiles it.
func BenchmarkInterpretRound(b *testing.B) {
	var ds []*spam.Dataset
	for _, name := range []string{"SF", "DC", "MOFF"} {
		d, err := LoadDataset(name)
		if err != nil {
			b.Fatal(err)
		}
		ds = append(ds, d)
	}
	opts := spam.InterpretOptions{Workers: 1, Level: spam.Level3, RTFBatch: 3, ReEntry: true, Sched: tlp.FIFO}
	b.ReportAllocs()
	cpu0 := cpuTime(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range ds {
			if _, err := d.Interpret(opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cpuTime(b)-cpu0)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
