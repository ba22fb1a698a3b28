package cluster

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
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
	if os.Getenv(idOrderChildEnv) != "" {
		idOrderChild()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// oracleScale keeps the differential runs fast while preserving every
// phase's task structure (the same subset-scale discipline the bench
// smoke suite uses).
const oracleScale = 0.4

// clusterV1ShipShare is what the v1 wire, which shipped every seed
// inline, measured on the three scenes at oracleScale: wire bytes per
// modeled seed byte (Σ phase SeedBytes), the same at every process
// count.
var clusterV1ShipShare = map[string]float64{"SF": 0.496, "DC": 0.513, "MOFF": 0.497}

func airportParams(name string) scene.Params {
	p, _ := scene.ParamsByName(name)
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

	tasks := 0
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
		shippedBefore := co.Stats().ShippedBytes
		remote, err := d.Interpret(clusterOpt)
		if err != nil {
			t.Fatalf("%s: cluster interpret: %v", name, err)
		}
		if !spam.SameOutputs(local, remote) {
			t.Errorf("%s: cluster outputs differ from single-process run", name)
		}
		// The wire-locality budget: bytes on the wire per modeled seed
		// byte stay at least 3x under what shipping every seed inline
		// cost.
		var seedBytes float64
		for _, ph := range remote.Phases {
			seedBytes += ph.SeedBytes
			tasks += ph.Tasks
		}
		share := float64(co.Stats().ShippedBytes-shippedBefore) / seedBytes
		if budget := clusterV1ShipShare[name] / 3; share > budget {
			t.Errorf("%s: shipped %.3f wire bytes per seed byte, over the budget of %.3f", name, share, budget)
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
	// Every task crossed the wire as its own frame, except a
	// continuation its worker had already started when the
	// coordinator's push would have gone out.
	if st.TasksShipped+st.Continuations < tasks {
		t.Errorf("%d task frames and %d worker-side continuations for %d tasks", st.TasksShipped, st.Continuations, tasks)
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
	// exec: the sleeper is the process Start spawned, not a child of
	// it. An orphaned sleep would hold the test binary's inherited
	// stdout open for its whole minute, and go test waits for it.
	script := "#!/bin/sh\necho $$ > " + pidFile + "\nexec sleep 60\n"
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

// chaosRun executes one DC cluster interpretation under a process-kill
// plan and returns it with the coordinator's accounting.
func chaosRun(t *testing.T, seed int64, reEntry bool) (*spam.Interpretation, Stats) {
	t.Helper()
	p := airportParams("DC")
	co, err := Start(Config{
		Workers: 2, LocalWorkers: 1, ShipWindow: 1, MaxRespawns: 8,
		ProcFaults: faults.Config{Seed: seed, CrashRate: 0.05},
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
	opt := spam.InterpretOptions{Workers: 2, MaxRetries: 2, ReEntry: reEntry}
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
	return in, co.Stats()
}

// TestClusterChaosKillReproducible SIGKILLs worker processes mid-run
// (deterministically, via the shipped fault plan) and asserts the
// merged RunReport accounting is byte-reproducible across two
// identical runs, with every task delivered exactly once.
func TestClusterChaosKillReproducible(t *testing.T) {
	in1, s1 := chaosRun(t, 7, false)
	in2, s2 := chaosRun(t, 7, false)
	f1, f2 := phaseFingerprint(in1), phaseFingerprint(in2)
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

// reEntryChaosSeed is a kill plan that fates a re-entry task of DC at
// oracleScale, so a worker dies holding the continuations it spawned
// for itself (2 deaths, 6 spawned continuations requeued). Seed 7, the
// other chaos test's, kills workers only between continuations.
const reEntryChaosSeed = 42

// TestDifferentialClusterChaosReEntry runs the kill plan with re-entry
// on, so the LCC continuations workers spawn for themselves are among
// the casualties, and holds the merged interpretation to a crash-free
// in-process run of the same dataset: per phase, the same multiset of
// task IDs — a lost merge removes one, a duplicated merge adds one —
// and the same outputs.
func TestDifferentialClusterChaosReEntry(t *testing.T) {
	in, st := chaosRun(t, reEntryChaosSeed, true)
	d, err := spam.NewDataset(airportParams("DC"))
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	ref, err := d.Interpret(spam.InterpretOptions{Workers: 2, ReEntry: true})
	if err != nil {
		t.Fatalf("crash-free reference: %v", err)
	}
	if len(in.Phases) != len(ref.Phases) {
		t.Fatalf("%d phases, reference has %d", len(in.Phases), len(ref.Phases))
	}
	for pi, ph := range in.Phases {
		got, want := map[string]int{}, map[string]int{}
		for _, r := range ph.Results {
			got[r.TaskID]++
		}
		for _, r := range ref.Phases[pi].Results {
			want[r.TaskID]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("phase %s: merged task IDs differ from the crash-free run:\ngot  %v\nwant %v", ph.Phase, got, want)
		}
	}
	if !spam.SameOutputs(ref, in) {
		t.Error("outputs differ from the crash-free run")
	}
	if st.WorkerDeaths < 1 || st.Requeued < 1 {
		t.Errorf("kill plan exercised no recovery: %d worker deaths, %d requeues", st.WorkerDeaths, st.Requeued)
	}
	if st.ContinuationTasks < 1 {
		t.Error("re-entry produced no continuation-marked tasks: none was exposed to the kill plan")
	}
	if st.SpawnedRequeued < 1 {
		t.Errorf("no spawned continuation was in flight on a dying worker (stats %+v); pick another reEntryChaosSeed", st)
	}
	if st.TasksCompleted < in.Completeness.Tasks {
		t.Errorf("coordinator merged %d results for %d tasks", st.TasksCompleted, in.Completeness.Tasks)
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
	results, err := co.Submit(ctx, tlp.RunConfig{}, tasks)
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
