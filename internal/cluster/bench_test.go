package cluster

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"spampsm/internal/scene"
	"spampsm/internal/spam"
)

// BenchmarkClusterRound is one op of the benchmark's cluster_2proc
// workload: SF, DC and MOFF interpreted back to back at Level 3 with
// LCC re-entry, every phase shipped through NewRunner to two worker
// processes of one task process each (TestMain re-executes this binary
// as the workers). Set-up registers the datasets and runs one round, as
// the workload's does. The allocation figures and profiles are the
// coordinator's alone, a worker being its own process. Beside ns/op it
// reports, per op, the coordinator's CPU time (user + system, garbage
// collection included) and the workers' (summed, from
// /proc/<pid>/stat), what the workers allocated (summed, read from
// each worker's runtime through probe_test.go's SIGUSR1 probe), and the
// voluntary and involuntary context switches of the coordinator's
// threads and of the workers' (from /proc/<pid>/task/*/status). `make
// alloc-profile` and `make cpu-profile` profile it, the workers
// included.
func BenchmarkClusterRound(b *testing.B) {
	memDir := b.TempDir()
	b.Setenv(workerMemEnv, memDir) // the spawned workers inherit it
	co, err := Start(Config{Workers: 2, LocalWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	var pids []int
	co.procMu.Lock()
	for _, p := range co.procs {
		pids = append(pids, p.cmd.Process.Pid)
	}
	co.procMu.Unlock()
	opts := spam.InterpretOptions{Workers: 1, Level: spam.Level3, RTFBatch: 3, ReEntry: true}
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
	// sample reads every counter the op reports beside the testing
	// package's own.
	type sample struct {
		cpu, workerCPU                     time.Duration
		workerBytes                        uint64
		vol, invol, workerVol, workerInvol uint64
	}
	read := func() (s sample) {
		s.cpu = cpuTime(b)
		s.vol, s.invol = ctxSwitches(b, os.Getpid())
		for _, pid := range pids {
			s.workerCPU += procCPU(b, pid)
			v, iv := ctxSwitches(b, pid)
			s.workerVol, s.workerInvol = s.workerVol+v, s.workerInvol+iv
			bytes, err := workerMem(memDir, pid)
			if err != nil {
				b.Fatal(err)
			}
			s.workerBytes += bytes
		}
		return s
	}
	b.ReportAllocs()
	s0 := read()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	s1 := read()
	n := float64(b.N)
	perOp := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / n }
	b.ReportMetric(perOp(s1.cpu-s0.cpu), "coord-cpu-ms/op")
	b.ReportMetric(perOp(s1.workerCPU-s0.workerCPU), "worker-cpu-ms/op")
	b.ReportMetric(float64(s1.workerBytes-s0.workerBytes)/n, "worker-B/op")
	b.ReportMetric(float64(s1.vol-s0.vol)/n, "coord-vcsw/op")
	b.ReportMetric(float64(s1.invol-s0.invol)/n, "coord-ivcsw/op")
	b.ReportMetric(float64(s1.workerVol-s0.workerVol)/n, "worker-vcsw/op")
	b.ReportMetric(float64(s1.workerInvol-s0.workerInvol)/n, "worker-ivcsw/op")
}

// cpuTime returns this process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns a process's user plus system CPU time so far, from
// fields 14 and 15 of /proc/<pid>/stat, in clock ticks of 10 ms (the
// command name, field 2, may hold spaces, so fields count from its
// closing parenthesis).
func procCPU(b *testing.B, pid int) time.Duration {
	buf, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		b.Fatal(err)
	}
	s := string(buf)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		b.Fatalf("short stat line %q", s)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		b.Fatalf("malformed stat line %q", s)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// ctxSwitches sums a process's voluntary and involuntary context
// switches over its live threads (/proc/<pid>/task/*/status).
func ctxSwitches(b *testing.B, pid int) (vol, invol uint64) {
	tasks, err := filepath.Glob("/proc/" + strconv.Itoa(pid) + "/task/*/status")
	if err != nil || len(tasks) == 0 {
		b.Fatalf("threads of process %d: %v", pid, err)
	}
	for _, path := range tasks {
		f, err := os.Open(path)
		if err != nil {
			continue // the thread exited
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			key, val, _ := strings.Cut(sc.Text(), ":")
			n, _ := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
			switch key {
			case "voluntary_ctxt_switches":
				vol += n
			case "nonvoluntary_ctxt_switches":
				invol += n
			}
		}
		f.Close()
	}
	return vol, invol
}
