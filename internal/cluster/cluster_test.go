package cluster

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"spampsm/internal/faults"
	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// TestMain flips the re-executed test binary into worker mode: the
// coordinator spawns os.Executable() — this binary — with WorkerEnv
// set, so MaybeWorker serves tasks and exits before any test runs.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// oracleScale keeps the differential runs fast while preserving every
// phase's task structure (the same subset-scale discipline the bench
// smoke suite uses).
const oracleScale = 0.4

func airportParams(name string) scene.Params {
	var p scene.Params
	switch name {
	case "SF":
		p = scene.SF
	case "DC":
		p = scene.DC
	case "MOFF":
		p = scene.MOFF
	}
	p = p.Scale(oracleScale)
	p.Name = name
	return p
}

// phaseFingerprint flattens everything a phase run reports — task
// counts, firings, instruction charges, modeled memory, and the full
// fault-handling report — into comparable bytes.
func phaseFingerprint(in *spam.Interpretation) string {
	var b strings.Builder
	for _, p := range in.Phases {
		fmt.Fprintf(&b, "%s tasks=%d firings=%d rhs=%d instr=%.6f match=%.6f peak=%.3f seedbytes=%.3f\n",
			p.Phase, p.Tasks, p.Firings, p.RHSActions, p.Instr, p.MatchInstr, p.PeakTaskBytes, p.SeedBytes)
		b.WriteString(p.Report.String())
	}
	return b.String()
}

// TestDifferentialClusterInterpret is the cluster differential
// oracle: a full interpretation executed across two worker processes
// must be byte-identical — outputs, per-phase statistics, and
// RunReports — to the single-process tlp.Pool run, for all three
// airport scenes.
func TestDifferentialClusterInterpret(t *testing.T) {
	co, err := Start(Config{Workers: 2, LocalWorkers: 2})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer co.Close()

	for _, name := range []string{"SF", "DC", "MOFF"} {
		p := airportParams(name)
		if err := co.RegisterDataset(AirportSpec(p)); err != nil {
			t.Fatalf("%s: register: %v", name, err)
		}
		d, err := spam.NewDataset(p)
		if err != nil {
			t.Fatalf("%s: dataset: %v", name, err)
		}
		opt := spam.InterpretOptions{Workers: 2, ReEntry: true}
		local, err := d.Interpret(opt)
		if err != nil {
			t.Fatalf("%s: local interpret: %v", name, err)
		}
		clusterOpt := opt
		clusterOpt.Runner = NewRunner(co, opt)
		remote, err := d.Interpret(clusterOpt)
		if err != nil {
			t.Fatalf("%s: cluster interpret: %v", name, err)
		}
		if !spam.SameOutputs(local, remote) {
			t.Errorf("%s: cluster outputs differ from single-process run", name)
		}
		lf, rf := phaseFingerprint(local), phaseFingerprint(remote)
		if lf != rf {
			t.Errorf("%s: phase statistics differ:\nlocal:\n%s\ncluster:\n%s", name, lf, rf)
		}
		st := co.Stats()
		if st.ShippedBytes <= 0 || st.TasksShipped <= 0 {
			t.Errorf("%s: no shipping accounted: %+v", name, st)
		}
		for _, ph := range remote.Phases {
			for _, r := range ph.Results {
				if r == nil {
					t.Fatalf("%s: nil result in phase %s", name, ph.Phase)
				}
				if r.ShipBytes <= 0 {
					t.Errorf("%s: task %s shipped for free", name, r.TaskID)
				}
			}
		}
	}

	// Wire locality accounting: the run must have reused resident
	// chunks, run its LCC re-entry tasks as worker-side continuations
	// (>= 90%), and saved more bytes on hits than the chunks cost.
	st := co.Stats()
	if st.WireVersion != Version {
		t.Errorf("stats report wire v%d, want v%d", st.WireVersion, Version)
	}
	if st.ChunksShipped <= 0 || st.ChunkHits <= 0 || st.ChunkSavedBytes <= 0 {
		t.Errorf("no chunk reuse accounted: %+v", st)
	}
	if st.ContinuationTasks <= 0 {
		t.Error("re-entry produced no continuation-marked tasks")
	}
	if 10*st.Continuations < 9*st.ContinuationTasks {
		t.Errorf("only %d/%d continuations ran worker-side, want >= 90%%",
			st.Continuations, st.ContinuationTasks)
	}
	if st.ChunkSavedBytes <= st.ChunkBytes {
		t.Errorf("resident hits avoided %d bytes, no more than the %d bytes shipping the chunks cost",
			st.ChunkSavedBytes, st.ChunkBytes)
	}
	var perWorkerShipped int64
	for _, ws := range st.PerWorker {
		perWorkerShipped += ws.ShippedBytes
		// Each worker process reports the match arenas its executors
		// keep between tasks.
		if ws.Tasks > 0 && (ws.ArenaSlabs == 0 || ws.ArenaBytes == 0) {
			t.Errorf("worker slot %d ran %d tasks but reports no arena: %+v", ws.Slot, ws.Tasks, ws)
		}
	}
	if perWorkerShipped != st.ShippedBytes {
		t.Errorf("per-worker shipped bytes (%d) do not add up to the total (%d)",
			perWorkerShipped, st.ShippedBytes)
	}
}

// TestWorkerRejectsBadHandshake drives ServeWorker directly over a
// pipe: any version but Version — the deleted v1 included — and a
// wrong magic must fail the handshake before any task can arrive.
func TestWorkerRejectsBadHandshake(t *testing.T) {
	cases := []struct {
		name string
		init InitMsg
	}{
		{"version too old", InitMsg{Magic: Magic, Version: Version - 1}},
		{"version too new", InitMsg{Magic: Magic, Version: Version + 1}},
		{"wrong magic", InitMsg{Magic: "BOGUS", Version: Version}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, work := net.Pipe()
			errc := make(chan error, 1)
			go func() { errc <- ServeWorker(work) }()
			if _, err := writeJSONFrame(coord, frameInit, tc.init); err != nil {
				t.Fatalf("write init: %v", err)
			}
			err := <-errc
			coord.Close()
			if err == nil || !strings.Contains(err.Error(), "protocol") {
				t.Fatalf("handshake accepted %+v (err=%v)", tc.init, err)
			}
		})
	}
}

// TestClusterChunkEviction squeezes the resident-chunk budget down to
// a few hundred bytes so the LRU must evict mid-run, and asserts the
// interpretation stays byte-identical — a re-shipped chunk is the same
// content under a fresh id.
func TestClusterChunkEviction(t *testing.T) {
	co, err := Start(Config{Workers: 2, LocalWorkers: 2, ChunkBudget: 512})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer co.Close()
	p := airportParams("DC")
	if err := co.RegisterDataset(AirportSpec(p)); err != nil {
		t.Fatalf("register: %v", err)
	}
	d, err := spam.NewDataset(p)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	opt := spam.InterpretOptions{Workers: 2, ReEntry: true}
	local, err := d.Interpret(opt)
	if err != nil {
		t.Fatalf("local interpret: %v", err)
	}
	clusterOpt := opt
	clusterOpt.Runner = NewRunner(co, opt)
	remote, err := d.Interpret(clusterOpt)
	if err != nil {
		t.Fatalf("cluster interpret: %v", err)
	}
	if !spam.SameOutputs(local, remote) {
		t.Error("outputs differ under chunk eviction")
	}
	if lf, rf := phaseFingerprint(local), phaseFingerprint(remote); lf != rf {
		t.Errorf("phase statistics differ under chunk eviction:\nlocal:\n%s\ncluster:\n%s", lf, rf)
	}
	st := co.Stats()
	if st.Evictions <= 0 {
		t.Errorf("512-byte chunk budget forced no evictions: %+v", st)
	}
	// Residency may exceed the budget by one task's pinned working set
	// (chunks a ship references are exempt from that ship's eviction
	// pass), but it must stay bounded — within budget plus the largest
	// task's chunk bytes, far below the unevicted total.
	if st.ChunkBytes <= 512 {
		t.Fatalf("eviction run shipped too few chunk bytes to exercise the budget: %+v", st)
	}
	for _, ws := range st.PerWorker {
		if ws.ResidentBytes >= st.ChunkBytes {
			t.Errorf("worker %d evicted nothing: resident %d of %d shipped chunk bytes",
				ws.Slot, ws.ResidentBytes, st.ChunkBytes)
		}
	}
}

// TestClusterStartFailureCleanup pins Start's failure path: when the
// spawned workers never connect, Start must reap the worker processes
// and remove its private socket directory — no leaked temp dirs, no
// orphan processes.
func TestClusterStartFailureCleanup(t *testing.T) {
	dir := t.TempDir()
	pidFile := filepath.Join(dir, "worker.pid")
	exe := filepath.Join(dir, "sleeper.sh")
	script := "#!/bin/sh\necho $$ > " + pidFile + "\nsleep 60\n"
	if err := os.WriteFile(exe, []byte(script), 0o755); err != nil {
		t.Fatalf("write sleeper: %v", err)
	}
	canary := filepath.Join(dir, "canary-tmp")
	if err := os.Mkdir(canary, 0o755); err != nil {
		t.Fatalf("mkdir canary: %v", err)
	}
	t.Setenv("TMPDIR", canary) // Start's socket dir lands here

	co, err := Start(Config{Workers: 1, Exe: exe, ConnectTimeout: 500 * time.Millisecond})
	if err == nil {
		co.Close()
		t.Fatal("Start succeeded with a worker that never connects")
	}
	if !strings.Contains(err.Error(), "workers connected before timeout") {
		t.Fatalf("unexpected Start error: %v", err)
	}

	entries, readErr := os.ReadDir(canary)
	if readErr != nil {
		t.Fatalf("read canary: %v", readErr)
	}
	if len(entries) != 0 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("socket dir leaked into %s: %v", canary, names)
	}

	pidBytes, readErr := os.ReadFile(pidFile)
	if readErr != nil {
		t.Fatalf("sleeper never started (no pid file): %v", readErr)
	}
	pid, convErr := strconv.Atoi(strings.TrimSpace(string(pidBytes)))
	if convErr != nil {
		t.Fatalf("bad pid file %q: %v", pidBytes, convErr)
	}
	// Close (run by the failed Start) must have killed and reaped the
	// sleeper: signal 0 probes existence without touching anything.
	if killErr := syscall.Kill(pid, 0); killErr != syscall.ESRCH {
		syscall.Kill(pid, syscall.SIGKILL)
		t.Errorf("sleeper pid %d still alive after failed Start (kill 0 => %v)", pid, killErr)
	}
}

// chaosRun executes one cluster interpretation under a process-kill
// plan and returns its reproducibility fingerprint plus the observed
// worker deaths.
func chaosRun(t *testing.T) (string, Stats) {
	t.Helper()
	p := airportParams("DC")
	co, err := Start(Config{
		Workers: 2, LocalWorkers: 1, ShipWindow: 1, MaxRespawns: 8,
		ProcFaults: faults.Config{Seed: 7, CrashRate: 0.05},
	})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer co.Close()
	if err := co.RegisterDataset(AirportSpec(p)); err != nil {
		t.Fatalf("register: %v", err)
	}
	d, err := spam.NewDataset(p)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	opt := spam.InterpretOptions{Workers: 2, MaxRetries: 2}
	clusterOpt := opt
	clusterOpt.Runner = NewRunner(co, opt)
	in, err := d.Interpret(clusterOpt)
	if err != nil {
		t.Fatalf("cluster interpret under chaos: %v", err)
	}
	// Exactly-once: every phase's merged results carry each task once —
	// no nils (lost), no duplicate IDs (double delivery).
	for _, ph := range in.Phases {
		seen := map[string]bool{}
		for _, r := range ph.Results {
			if r == nil {
				t.Fatalf("phase %s: lost task result", ph.Phase)
			}
			if seen[r.TaskID] {
				t.Fatalf("phase %s: task %s delivered twice", ph.Phase, r.TaskID)
			}
			seen[r.TaskID] = true
		}
		if len(seen) != ph.Tasks {
			t.Fatalf("phase %s: %d distinct results for %d tasks", ph.Phase, len(seen), ph.Tasks)
		}
	}
	return phaseFingerprint(in), co.Stats()
}

// TestClusterChaosKillReproducible SIGKILLs worker processes mid-run
// (deterministically, via the shipped fault plan) and asserts the
// merged RunReport accounting is byte-reproducible across two
// identical runs, with every task delivered exactly once.
func TestClusterChaosKillReproducible(t *testing.T) {
	f1, s1 := chaosRun(t)
	f2, s2 := chaosRun(t)
	if s1.WorkerDeaths < 1 {
		t.Fatalf("chaos plan killed no workers (stats %+v); raise the rate or change the seed", s1)
	}
	if f1 != f2 {
		t.Errorf("chaos run not reproducible:\nrun 1:\n%s\nrun 2:\n%s", f1, f2)
	}
	if s1.WorkerDeaths != s2.WorkerDeaths || s1.Requeued != s2.Requeued {
		t.Errorf("recovery accounting differs: run 1 %+v, run 2 %+v", s1, s2)
	}
	if !strings.Contains(f1, "worker process lost") {
		t.Errorf("report does not show the process loss:\n%s", f1)
	}
}

// TestClusterCancelledRun checks the cancellation contract: a
// cancelled run returns a Result wrapping ErrCancelled for every
// unfinished task, without error.
func TestClusterCancelledRun(t *testing.T) {
	co, err := Start(Config{Workers: 1, LocalWorkers: 1})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer co.Close()
	p := airportParams("DC")
	if err := co.RegisterDataset(AirportSpec(p)); err != nil {
		t.Fatalf("register: %v", err)
	}
	d, err := spam.NewDataset(p)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	tasks := spam.BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 3, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := co.RunTasks(ctx, tlp.FIFO, RunConfig{}, tasks)
	if err != nil {
		t.Fatalf("cancelled run errored: %v", err)
	}
	if len(results) != len(tasks) {
		t.Fatalf("got %d results for %d tasks", len(results), len(tasks))
	}
	rep := tlp.Report(results)
	if rep.Cancelled == 0 {
		t.Errorf("no task accounted as cancelled:\n%s", rep)
	}
}
