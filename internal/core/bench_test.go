package core

import (
	"context"
	"runtime"
	"syscall"
	"testing"
	"time"

	"spampsm/internal/scene"
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
// perturbs less than wall time, and glue-ms/op: the wall time spent
// outside the pool's RunTasks — phase planning and extraction — which
// is serial at any worker count. `make cpu-profile` profiles it.
func BenchmarkInterpretRound(b *testing.B) { interpretRound(b, 1) }

// BenchmarkInterpretRoundW2 is BenchmarkInterpretRound on a private
// two-worker pool: the host-clock P = 2 point, and how much of it the
// serial glue takes. It is a separate benchmark so that the profile
// targets' `BenchmarkInterpretRound$` still run one worker only.
func BenchmarkInterpretRoundW2(b *testing.B) { interpretRound(b, 2) }

func interpretRound(b *testing.B, workers int) {
	var ds []*spam.Dataset
	for _, name := range []string{"SF", "DC", "MOFF"} {
		d, err := LoadDataset(name)
		if err != nil {
			b.Fatal(err)
		}
		ds = append(ds, d)
	}
	opts := spam.InterpretOptions{Workers: workers, Level: spam.Level3, RTFBatch: 3, ReEntry: true}
	b.ReportAllocs()
	var queued time.Duration
	cpu0 := cpuTime(b)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, d := range ds {
			// A private pool per interpretation, as Interpret builds
			// itself when handed no Runner.
			opts.Runner = timedRunner{tlp.BoundQueue{Queue: &tlp.Pool{Workers: workers}, Config: opts.RunConfig()}, &queued}
			if _, err := d.Interpret(opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	wall := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(cpuTime(b)-cpu0)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
	b.ReportMetric(float64(wall-queued)/float64(time.Millisecond)/float64(b.N), "glue-ms/op")
}

// timedRunner adds the wall time of every RunTasks call to *in.
type timedRunner struct {
	inner spam.Runner
	in    *time.Duration
}

func (r timedRunner) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	start := time.Now()
	defer func() { *r.in += time.Since(start) }()
	return r.inner.RunTasks(ctx, tasks)
}

// BenchmarkSessionUpdate is one op of the benchmark's session_update
// workload: one 2%-churn Session.Update of MOFF on a one-worker pool,
// the session opened — a fresh dataset, its initial interpretation —
// and dropped every ten updates, as the workload does. Opening a
// session and drawing each delta happen outside the timer and outside
// the allocation profile (MemProfileRate 0), so `make alloc-profile`'s
// table holds the updates alone; a CPU profile still samples the
// openings, one initial interpretation per ten updates.
func BenchmarkSessionUpdate(b *testing.B) {
	const updates, churn, seed = 10, 0.02, 1990
	opts := spam.InterpretOptions{Workers: 1, Level: spam.Level3, RTFBatch: 3, ReEntry: true}
	var sess *spam.Session
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var d *scene.Delta
		unprofiled(func() {
			if i%updates == 0 {
				ds, err := LoadDataset("MOFF")
				if err != nil {
					b.Fatal(err)
				}
				sess = spam.NewSession(ds, opts)
				if _, _, err := sess.Interpret(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			d = sess.Scene().Churn(scene.DefaultChurn(seed+uint64(i), churn))
		})
		b.StartTimer()
		if _, _, err := sess.Update(context.Background(), d); err != nil {
			b.Fatal(err)
		}
	}
}

// unprofiled runs fn with heap profiling off: what it allocates is not
// sampled into a -memprofile. The rate is restored before the profile
// is written, which scales its samples by the rate then in force. Each
// change of the rate samples the next allocation on every processor;
// at -memprofilerate 1, as `make alloc-profile` runs it, that costs the
// profile a few bytes, while at the default rate pprof scales each such
// sample up to about 512 KB.
func unprofiled(fn func()) {
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 0
	defer func() { runtime.MemProfileRate = rate }()
	fn()
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
