package cluster

import (
	"syscall"
	"testing"
	"time"

	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// BenchmarkClusterRound is one op of the benchmark's cluster_2proc
// workload: SF, DC and MOFF interpreted back to back at Level 3 with
// LCC re-entry, every phase shipped through NewRunner to two worker
// processes of one task process each (TestMain re-executes this binary
// as the workers). Set-up registers the datasets and runs one round, as
// the workload's does. The allocation figures and profiles are the
// coordinator's alone, a worker being its own process, and beside
// ns/op it reports the coordinator's CPU time per op (user + system,
// garbage collection included). `make alloc-profile` and `make
// cpu-profile` profile it.
func BenchmarkClusterRound(b *testing.B) {
	co, err := Start(Config{Workers: 2, LocalWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	opts := spam.InterpretOptions{Workers: 1, Level: spam.Level3, RTFBatch: 3, ReEntry: true, Sched: tlp.FIFO}
	opts.Runner = NewRunner(co, opts)
	var ds []*spam.Dataset
	for _, name := range []string{"SF", "DC", "MOFF"} {
		p, _ := scene.ParamsByName(name)
		if err := co.RegisterDataset(AirportSpec(p)); err != nil {
			b.Fatal(err)
		}
		d, err := spam.NewDataset(p)
		if err != nil {
			b.Fatal(err)
		}
		ds = append(ds, d)
	}
	round := func() {
		for _, d := range ds {
			if _, err := d.Interpret(opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	round()
	b.ReportAllocs()
	cpu0 := cpuTime(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	b.ReportMetric(float64(cpuTime(b)-cpu0)/float64(time.Millisecond)/float64(b.N), "coord-cpu-ms/op")
}

// cpuTime returns this process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
