package cluster

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// TestMain flips the re-executed test binary into worker mode: the
// coordinator spawns os.Executable() — this binary — with WorkerEnv
// set, so MaybeWorker serves tasks and exits before any test runs (or
// probedWorker, when a worker probe of probe_test.go is asked for).
func TestMain(m *testing.M) {
	probedWorker()
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

// reEntryTally runs phases on the coordinator and counts, per worker
// slot, the results merged from LCC re-entry ("lccr") queues.
type reEntryTally struct {
	co    *Coordinator
	inner tlp.BoundQueue
	lccr  []int
}

func (r *reEntryTally) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	before := r.co.Stats().PerWorker
	results, err := r.inner.RunTasks(ctx, tasks)
	if len(tasks) > 0 && strings.HasPrefix(tasks[0].ID, "lccr") {
		for i, ws := range r.co.Stats().PerWorker {
			r.lccr[i] += ws.Tasks - before[i].Tasks
		}
	}
	return results, err
}

// TestDifferentialClusterInterpret is the cluster differential
// oracle: a full interpretation executed across two worker processes
// must be byte-identical — outputs, per-phase statistics, and
// RunReports — to the single-process tlp.Pool run, for all three
// airport scenes. Re-entry tasks go through the shard queue like every
// other task: both workers merge some, and no worker ever holds more
// than the ship window.
func TestDifferentialClusterInterpret(t *testing.T) {
	// A window below every scene's re-entry queue (6–8 tasks at
	// oracleScale), so a queue that bypassed it would show.
	co, err := Start(Config{Workers: 2, LocalWorkers: 2, shipWindow: 4})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer co.Close()

	tasks := 0
	tally := &reEntryTally{co: co, lccr: make([]int, 2)}
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
		tally.inner = NewRunner(co, opt)
		clusterOpt.Runner = tally
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
		t.Logf("%s: %.3f wire bytes per seed byte", name, share)
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

	// Every task crossed the wire as its own frame. A frame is counted
	// just after its flush, so the worker's answer to the last one can be
	// merged before the count lands: give it a moment.
	st := co.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.TasksShipped < tasks && time.Now().Before(deadline); st = co.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.WireVersion != Version {
		t.Errorf("stats report wire v%d, want v%d", st.WireVersion, Version)
	}
	if st.TasksShipped < tasks {
		t.Errorf("%d task frames for %d tasks", st.TasksShipped, tasks)
	}
	for slot, n := range tally.lccr {
		if n == 0 {
			t.Errorf("worker slot %d merged no re-entry task (per slot: %v)", slot, tally.lccr)
		}
	}
	// Wire locality accounting: the run must have reused resident
	// chunks and saved more bytes on hits than the chunks cost.
	if st.ChunksShipped <= 0 || st.ChunkHits <= 0 || st.ChunkSavedBytes <= 0 {
		t.Errorf("no chunk reuse accounted: %+v", st)
	}
	if st.ChunkSavedBytes <= st.ChunkBytes {
		t.Errorf("resident hits avoided %d bytes, no more than the %d bytes shipping the chunks cost",
			st.ChunkSavedBytes, st.ChunkBytes)
	}
	var perWorkerShipped int64
	for _, ws := range st.PerWorker {
		perWorkerShipped += ws.ShippedBytes
		if ws.PeakInFlight > co.cfg.shipWindow {
			t.Errorf("worker slot %d held %d tasks in flight, over the ship window of %d", ws.Slot, ws.PeakInFlight, co.cfg.shipWindow)
		}
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
			if err := sendJSONFrame(coord, frameInit, tc.init); err != nil {
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
	co, err := Start(Config{Workers: 2, LocalWorkers: 2})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer co.Close()
	co.mu.Lock()
	co.chunkBudget = 512
	co.mu.Unlock()
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

	co, err := Start(Config{Workers: 1, exe: exe, connectTimeout: 500 * time.Millisecond})
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

// coordinatorGoroutines returns the stacks of the goroutines a
// Coordinator starts: the accept loop, a connection's handshake, reader
// and feeder, and the reaper of a spawned process.
func coordinatorGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, fn := range []string{"acceptLoop", "register", "reader", "feeder", "spawn.func1"} {
			if strings.Contains(g, "cluster.(*Coordinator)."+fn+"(") {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// parkedFeeders counts the feeders among stacks that wait in claim on
// their connection's condition.
func parkedFeeders(stacks []string) int {
	n := 0
	for _, g := range stacks {
		if strings.Contains(g, "cluster.(*Coordinator).feeder(") && strings.Contains(g, "cluster.(*Coordinator).claim(") &&
			strings.Contains(g, "sync.(*Cond).Wait(") {
			n++
		}
	}
	return n
}

// TestCoordinatorCloseLeavesNoGoroutines: after a run, a worker
// killed mid-life, its respawn and a second run, Close leaves none of
// the coordinator's goroutines behind — the feeders parked on their
// connections' conditions included. They end as the connections and
// the listener close, not inside Close, so the test waits for them.
func TestCoordinatorCloseLeavesNoGoroutines(t *testing.T) {
	before := len(coordinatorGoroutines())
	co, err := Start(Config{Workers: 2, LocalWorkers: 1})
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
	run := func() {
		t.Helper()
		results, err := co.Submit(context.Background(), tlp.RunConfig{}, tinyTasks(t, d, 40))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		for i, r := range results {
			if r == nil || r.Err != nil {
				t.Fatalf("task %d: %+v", i, r)
			}
		}
	}
	run()
	co.procMu.Lock()
	victim := co.procs[0]
	co.procMu.Unlock()
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill worker: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); co.Stats().WorkerDeaths == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the killed worker's death was never noticed")
		}
	}
	if err := co.waitConnected(2, 10*time.Second); err != nil {
		t.Fatalf("respawn: %v", err)
	}
	run()
	if st := co.Stats(); st.Respawns != 1 {
		t.Fatalf("%d respawns, want 1", st.Respawns)
	}
	// The accept loop, plus a reader, a feeder and a reaper per live
	// worker: the names above are the ones that run. Both feeders are
	// idle, parked on their own connection's condition: Close must wake
	// them.
	live := coordinatorGoroutines()
	if len(live)-before < 7 {
		t.Fatalf("%d coordinator goroutines in a live two-worker cluster, want at least 7", len(live)-before)
	}
	for deadline := time.Now().Add(5 * time.Second); parkedFeeders(live) < 2; live = coordinatorGoroutines() {
		if time.Now().After(deadline) {
			t.Fatalf("%d feeders parked on their connection's condition after the run, want 2", parkedFeeders(live))
		}
		time.Sleep(time.Millisecond)
	}

	co.Close()
	var left []string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if left = coordinatorGoroutines(); len(left) <= before {
			return
		}
	}
	t.Errorf("%d coordinator goroutines outlived Close:\n%s", len(left)-before, strings.Join(left, "\n\n"))
}
