package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spampsm/internal/faults"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// listenBare starts a coordinator with no worker processes: the tests
// below bring their own workers, in process, by dialling its address.
func listenBare(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	cfg.MaxRespawns = -1 // a lost in-process worker has no process to respawn
	co, err := listen(cfg)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

// dialWorker connects to the coordinator and waits until the
// connection holds a slot, so slots are taken in dial order.
func dialWorker(t *testing.T, co *Coordinator, nth int) net.Conn {
	t.Helper()
	c, err := net.Dial("unix", co.Addr())
	if err != nil {
		t.Fatalf("dial coordinator: %v", err)
	}
	if err := co.waitConnected(nth, 10*time.Second); err != nil {
		t.Fatalf("worker %d never registered: %v", nth, err)
	}
	return c
}

// countingConn counts the worker's Write calls: one per flush of its
// result buffer.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// tinyTasks cycles a dataset's single-region RTF tasks, the smallest
// the system has, up to n tasks under distinct IDs.
func tinyTasks(t *testing.T, d *spam.Dataset, n int) []*tlp.Task {
	t.Helper()
	rtf := spam.BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 1, false)
	if len(rtf) == 0 {
		t.Fatal("dataset has no RTF tasks")
	}
	tasks := make([]*tlp.Task, n)
	for i := range tasks {
		task := *rtf[i%len(rtf)]
		task.ID = fmt.Sprintf("%s#%d", task.ID, i)
		tasks[i] = &task
	}
	return tasks
}

// TestPipelineKeepsWorkerFed holds the coordinator→worker pipeline to
// what it is for, on one in-process worker with one executor: the
// executor finds a task already queued when it finishes one, the
// worker answers in batches, and the coordinator keeps a round trip's
// worth of tasks in flight to do it.
func TestPipelineKeepsWorkerFed(t *testing.T) {
	d, err := spam.NewDataset(airportParams("DC"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	tasks := tinyTasks(t, d, n)

	co := listenBare(t, Config{Workers: 1, LocalWorkers: 1})
	conn := &countingConn{Conn: dialWorker(t, co, 1)}
	w := newWorker(conn)
	w.datasets[d.Name] = d
	var queued []int // one executor: appended in start order, read after serve returns
	w.onStart = func(q int) { queued = append(queued, q) }
	served := make(chan error, 1)
	go func() { served <- w.serve() }()

	results, err := co.Submit(context.Background(), tlp.RunConfig{}, tasks)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for i, r := range results {
		if r == nil || r.Err != nil {
			t.Fatalf("task %d: %+v", i, r)
		}
	}
	st := co.Stats()
	co.Close()
	if err := <-served; err != nil {
		t.Fatalf("worker: %v", err)
	}

	if len(queued) != n {
		t.Fatalf("%d task starts for %d tasks", len(queued), n)
	}
	// Coalesced results: a flush per resultBatch results while the
	// queue holds work, and one whenever it runs dry.
	if writes, budget := conn.writes.Load(), int64(n/2+10); writes > budget {
		t.Errorf("worker made %d writes for %d results, want at most %d", writes, n, budget)
	}
	// While the coordinator still has unclaimed work — until the last
	// window's worth of starts — a starting task leaves another queued
	// behind it.
	window := co.cfg.ShipWindow
	fed := 0
	for _, q := range queued[:n-window] {
		if q > 0 {
			fed++
		}
	}
	t.Logf("%d results in %d writes; queue non-empty at %d of the first %d task starts; peak %d in flight",
		n, conn.writes.Load(), fed, n-window, st.PerWorker[0].PeakInFlight)
	if 10*fed < 9*(n-window) {
		t.Errorf("queue non-empty at %d of the first %d task starts, want at least 90%%", fed, n-window)
	}
	if peak := st.PerWorker[0].PeakInFlight; peak < 8 || peak > window {
		t.Errorf("peak in flight %d, want at least 8 and at most the window of %d", peak, window)
	}
}

// TestPipelineAbandonsQueueOnDroppedConnection: a worker whose
// coordinator went away has nobody to answer, so it starts nothing it
// had queued and the task it is running is cancelled. The coordinator
// here is the test's end of a pipe: one task that fails its first
// build and sits out a long retry backoff, eight ordinary ones behind
// it, then the connection closes.
func TestPipelineAbandonsQueueOnDroppedConnection(t *testing.T) {
	d, err := spam.NewDataset(airportParams("DC"))
	if err != nil {
		t.Fatal(err)
	}
	const queuedBehind = 8
	tasks := tinyTasks(t, d, 1+queuedBehind)

	coord, work := net.Pipe()
	w := newWorker(work)
	w.datasets[d.Name] = d
	var starts atomic.Int64 // a start is an engine build (the slow task's comes after its backoff)
	started := make(chan struct{}, 1+queuedBehind)
	w.onStart = func(int) { starts.Add(1); started <- struct{}{} }
	served := make(chan error, 1)
	go func() { served <- w.serve() }()

	if _, err := writeJSONFrame(coord, frameInit, InitMsg{Magic: Magic, Version: Version, LocalWorkers: 1}); err != nil {
		t.Fatalf("write init: %v", err)
	}
	const backoff = 20 * time.Second
	slow := tlp.RunConfig{MaxRetries: 1, RetryBackoff: backoff, Faults: faults.Config{Seed: 1, BuildFailRate: 1}}
	enc := NewEncTab()
	send := func(i int, cfg tlp.RunConfig) error {
		spec, err := tasks[i].Wire()
		if err != nil {
			return err
		}
		m := &TaskMsg{RunID: 1, Seq: i, StartAttempt: 1, ID: tasks[i].ID, Config: cfg, Spec: *spec}
		_, err = writeFrame(coord, frameTaskV2, EncodeTaskV2(enc, m, nil))
		return err
	}
	if err := send(0, slow); err != nil {
		t.Fatalf("write slow task: %v", err)
	}
	<-started // the slow task is running (in its backoff) before anything queues behind it
	// A pipe write returns when the worker has read it, so the rest go
	// out beside a timer: a worker whose queue cannot hold them stalls
	// its read loop, and the test says so instead of hanging.
	sent := make(chan error, 1)
	go func() {
		for i := 1; i <= queuedBehind; i++ {
			if err := send(i, tlp.RunConfig{}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("write queued tasks: %v", err)
		}
	case <-time.After(backoff / 2):
		t.Fatalf("worker stopped reading before %d tasks were queued behind the running one", queuedBehind)
	}
	begin := time.Now()
	coord.Close()

	select {
	case err := <-served:
		if err != nil {
			t.Errorf("worker: %v", err)
		}
	case <-time.After(2 * backoff):
		t.Fatal("worker still serving")
	}
	if took := time.Since(begin); took > backoff/4 {
		t.Errorf("worker took %v to leave after its connection dropped: the running task was not cancelled", took)
	}
	if got := starts.Load(); got != 1 {
		t.Errorf("%d tasks started, want 1: the %d queued when the connection dropped were run for nobody", got, queuedBehind)
	}
}

// stubWorker is a worker the test scripts: it dials the coordinator,
// reads the handshake and every frame after it with the package's own
// codec, logs task frames in the order they arrive — ship order — and
// answers a task only when told to. Closing its connection is a death
// at a point of the test's choosing: no process, no kill plan, no seed
// to search for.
type stubWorker struct {
	t    *testing.T
	conn net.Conn
	enc  *EncTab
	// deaf, when positive, is the number of task frames after which the
	// stub stops reading: whatever the coordinator writes next backs up
	// in the socket.
	deaf int
	// pad, when positive, is the size of an error message each answer
	// carries, so that a window of results outgrows one read.
	pad int

	mu   sync.Mutex
	cond *sync.Cond
	got  []*TaskMsg // task frames in arrival order
	gone bool       // read loop ended
}

func dialStub(t *testing.T, co *Coordinator, nth, deaf int) *stubWorker {
	t.Helper()
	s := &stubWorker{t: t, conn: dialWorker(t, co, nth), enc: NewEncTab(), deaf: deaf}
	s.cond = sync.NewCond(&s.mu)
	go s.read()
	return s
}

func (s *stubWorker) read() {
	defer func() {
		s.mu.Lock()
		s.gone = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	br := bufio.NewReader(s.conn)
	dec := &DecTab{}
	for n := 0; s.deaf == 0 || n < s.deaf; {
		typ, payload, err := readFrame(br)
		if err != nil || typ == frameShutdown {
			return
		}
		if typ != frameTaskV2 {
			// Init, and nothing else: the stub's tasks name no dataset a
			// test registers and carry no seeds to chunk.
			continue
		}
		m, _, err := DecodeTaskV2(dec, payload, fuzzResolve)
		if err != nil {
			s.t.Errorf("stub: decode task: %v", err)
			return
		}
		n++
		s.mu.Lock()
		s.got = append(s.got, m)
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// await blocks until n task frames have arrived and returns them all.
func (s *stubWorker) await(n int) []*TaskMsg {
	s.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	wake := time.AfterFunc(time.Until(deadline), func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer wake.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.got) < n && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	if len(s.got) < n {
		s.t.Fatalf("stub received %d task frames, want %d", len(s.got), n)
	}
	return append([]*TaskMsg(nil), s.got...)
}

// answer writes a bare success for each task, flushed as one write.
func (s *stubWorker) answer(ms ...*TaskMsg) {
	s.t.Helper()
	bw := bufio.NewWriter(s.conn)
	for _, m := range ms {
		res := &ResultMsg{RunID: m.RunID, Seq: m.Seq, TaskID: m.ID, Attempts: m.StartAttempt, Spawned: m.Spawned}
		if s.pad > 0 {
			res.Err = &WireError{Msg: fmt.Sprintf("%0*d", s.pad, m.Seq)}
		}
		if _, err := writeFrame(bw, frameResult, EncodeResultV2(s.enc, res)); err != nil {
			s.t.Errorf("stub: write result: %v", err)
			return
		}
	}
	if err := bw.Flush(); err != nil {
		s.t.Errorf("stub: flush results: %v", err)
	}
}

// serveAll answers every task as it arrives, until the connection
// closes.
func (s *stubWorker) serveAll() {
	for next := 0; ; next++ {
		s.mu.Lock()
		for len(s.got) <= next && !s.gone {
			s.cond.Wait()
		}
		if len(s.got) <= next {
			s.mu.Unlock()
			return
		}
		m := s.got[next]
		s.mu.Unlock()
		s.answer(m)
	}
}

// stubTasks are tasks only a stub can run: an ID, an empty spec, and a
// label long enough that a few thousand task frames overflow a
// socket's buffers.
func stubTasks(n int, continues bool) []*tlp.Task {
	tasks := make([]*tlp.Task, n)
	for i := range tasks {
		tasks[i] = &tlp.Task{
			ID: fmt.Sprintf("kp-%04d", i), Label: fmt.Sprintf("%0200d", i), Continues: continues,
			Wire: func() (*tlp.WireSpec, error) { return &tlp.WireSpec{Dataset: "stub", Phase: "rtf"}, nil },
		}
	}
	return tasks
}

// sortedIDs is the sorted IDs of a stretch of ship order.
func sortedIDs(ms []*TaskMsg) []string {
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	sort.Strings(ids)
	return ids
}

// submitAsync runs Submit beside the test's script of its workers.
func submitAsync(co *Coordinator, cfg tlp.RunConfig, tasks []*tlp.Task) func(t *testing.T) []*tlp.Result {
	type outcome struct {
		results []*tlp.Result
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		rs, err := co.Submit(context.Background(), cfg, tasks)
		done <- outcome{rs, err}
	}()
	return func(t *testing.T) []*tlp.Result {
		t.Helper()
		select {
		case out := <-done:
			if out.err != nil {
				t.Fatalf("submit: %v", out.err)
			}
			return out.results
		case <-time.After(60 * time.Second):
			t.Fatal("run did not finish")
			return nil
		}
	}
}

// TestKillPoint enumerates the moments a worker can die at and holds
// the recovery to its rule at each: of the dead connection's unmerged
// tasks, exactly the first LocalWorkers+resultBatch in ship order —
// the ones its executors can have started, finished or not — are
// charged an attempt; the rest re-ship at the attempt they had; and
// the survivor merges every task exactly once. Two stub workers, no
// processes: the victim takes slot 0, and the survivor answers nothing
// until the victim is dead, so which tasks the victim held is the
// test's choice and not the scheduler's.
func TestKillPoint(t *testing.T) {
	const localWorkers = 2
	const window = shipDepth * localWorkers
	const charge = localWorkers + resultBatch
	points := []struct {
		name string
		// The victim answers its first merged tasks, sees the window
		// refill behind them, and dies holding a full window. Of that,
		// it had finished unflushed tasks without sending their results
		// and had running more on its executors — for the coordinator
		// all just unmerged, but the last of them is the task a kill
		// plan would have fated, and that one must be charged.
		merged, unflushed, running int
		// continues pushes the whole run to the victim at Submit; it
		// goes deaf a few frames in and dies with the push blocked in
		// a write.
		continues  bool
		maxRetries int
	}{
		{name: "full window, nothing merged", running: localWorkers, maxRetries: 2},
		{name: "after 5 results", merged: 5, running: localWorkers, maxRetries: 2},
		{name: "results finished but unflushed", merged: 8, unflushed: resultBatch, running: localWorkers, maxRetries: 2},
		{name: "during a continuation push", running: 1, continues: true, maxRetries: 2},
		{name: "no retries: a death quarantines only what it interrupted", merged: 3, running: localWorkers},
	}
	for _, pt := range points {
		t.Run(pt.name, func(t *testing.T) {
			co := listenBare(t, Config{Workers: 2, LocalWorkers: localWorkers})
			n, deaf := 8*window, 0
			if pt.continues {
				n, deaf = 6000, charge+10
			}
			victim := dialStub(t, co, 1, deaf)
			survivor := dialStub(t, co, 2, 0)
			tasks := stubTasks(n, pt.continues)
			wait := submitAsync(co, tlp.RunConfig{MaxRetries: pt.maxRetries}, tasks)

			// The victim's life. order is a prefix of its ship order
			// that reaches past the charged tasks; unmerged is what the
			// coordinator still has in flight to it when it dies.
			var order []*TaskMsg
			unmerged := map[string]bool{}
			if pt.continues {
				order = victim.await(deaf)
				for _, task := range tasks {
					unmerged[task.ID] = true
				}
			} else {
				got := victim.await(window)
				victim.answer(got[:pt.merged]...)
				// Every merged result frees one window slot, so the
				// refill arriving means all of them are merged.
				got = victim.await(window + pt.merged)
				if len(got) != window+pt.merged {
					t.Fatalf("victim was shipped %d tasks with %d merged, over its window of %d", len(got), pt.merged, window)
				}
				order = got[pt.merged:]
				for _, m := range order {
					unmerged[m.ID] = true
				}
			}
			victim.conn.Close()

			charged := sortedIDs(order[:charge])
			wantCharged := map[string]bool{}
			for _, id := range charged {
				wantCharged[id] = true
			}
			if fated := order[pt.unflushed+pt.running-1]; !wantCharged[fated.ID] {
				t.Fatalf("the fated task %s is outside the charged prefix", fated.ID)
			}
			for _, m := range order {
				if m.StartAttempt != 1 {
					t.Fatalf("task %s first shipped at attempt %d", m.ID, m.StartAttempt)
				}
			}

			go survivor.serveAll()
			results := wait(t)

			// Per task: the charged ones carry the loss and one more
			// attempt, and nothing else does.
			var gotCharged, quarantined []string
			for i, r := range results {
				if r == nil {
					t.Fatalf("task %s: no result", tasks[i].ID)
				}
				lost := 0
				for _, e := range r.AttemptErrs {
					if strings.Contains(e.Error(), "worker process lost") {
						lost++
					}
				}
				if lost > 0 {
					gotCharged = append(gotCharged, r.TaskID)
				}
				if r.Quarantined {
					quarantined = append(quarantined, r.TaskID)
				} else if r.Attempts != 1+lost {
					t.Errorf("task %s: %d attempts after %d losses", r.TaskID, r.Attempts, lost)
				}
				if lost > 1 {
					t.Errorf("task %s: one death charged it %d times", r.TaskID, lost)
				}
			}
			if !slices.Equal(gotCharged, charged) {
				t.Errorf("charged an attempt and a worker-loss error:\n %d tasks %v\nwant the first %d unmerged in ship order:\n %v", len(gotCharged), gotCharged, charge, charged)
			}
			var wantQuarantined, wantResumed []string
			if pt.maxRetries == 0 {
				wantQuarantined = charged
			} else {
				for _, id := range charged {
					wantResumed = append(wantResumed, id+"@2")
				}
			}
			if !slices.Equal(quarantined, wantQuarantined) {
				t.Errorf("one death at MaxRetries %d quarantined %d tasks %v, want %v", pt.maxRetries, len(quarantined), quarantined, wantQuarantined)
			}

			// What the survivor was sent: every task the victim left
			// unmerged exactly once — charged ones at attempt 2, the rest
			// at attempt 1 as if never shipped, none as a continuation —
			// and nothing the victim answered.
			reshipped := map[string]int{}
			var resumed []string // re-shipped at a later attempt than the first
			survivor.mu.Lock()
			for _, m := range survivor.got {
				reshipped[m.ID]++
				if m.StartAttempt != 1 {
					resumed = append(resumed, fmt.Sprintf("%s@%d", m.ID, m.StartAttempt))
				}
				if m.Spawned {
					t.Errorf("task %s re-shipped with its continuation mark", m.ID)
				}
			}
			survivor.mu.Unlock()
			sort.Strings(resumed)
			if !slices.Equal(resumed, wantResumed) {
				t.Errorf("re-shipped past attempt 1: %d tasks %v, want %v", len(resumed), resumed, wantResumed)
			}
			victim.mu.Lock()
			for _, m := range victim.got {
				want := 0
				if unmerged[m.ID] && !(pt.maxRetries == 0 && wantCharged[m.ID]) {
					want = 1 // unless the death itself quarantined it
				}
				if reshipped[m.ID] != want {
					t.Errorf("task %s, shipped to the victim, went to the survivor %d times, want %d", m.ID, reshipped[m.ID], want)
				}
			}
			victim.mu.Unlock()

			st := co.Stats()
			if st.WorkerDeaths != 1 {
				t.Errorf("%d worker deaths, want 1", st.WorkerDeaths)
			}
			if pt.continues && st.SpawnedRequeued != n {
				t.Errorf("%d spawned continuations requeued, want all %d", st.SpawnedRequeued, n)
			}
			if want := len(unmerged) - charge; st.Uncharged != want {
				t.Errorf("%d tasks requeued uncharged, want %d", st.Uncharged, want)
			}
			if want := len(unmerged) - len(quarantined); st.Requeued != want {
				t.Errorf("%d tasks requeued, want %d", st.Requeued, want)
			}
			if peak := st.PerWorker[0].PeakInFlight; !pt.continues && peak != window {
				t.Errorf("victim's peak in flight %d, want the window of %d", peak, window)
			}
		})
	}
}

// TestKillPointFlushedResultsSurviveTheDeath: a worker that flushes
// results as it dies, so that the coordinator's feeder fails a write to
// it with most of them still unread, loses none of them — the write
// failure hangs up the write half only, the reader merges what was
// flushed before it reports the death, and those tasks are neither
// charged nor run again. The victim stops accepting bytes before it
// answers, so the first slot its results free costs the feeder a failed
// write; the results are padded to half a megabyte a window, several
// reads' worth, so that write fails with the rest unread.
func TestKillPointFlushedResultsSurviveTheDeath(t *testing.T) {
	const window = shipDepth
	co := listenBare(t, Config{Workers: 2, LocalWorkers: 1})
	victim := dialStub(t, co, 1, 0)
	victim.pad = 32 << 10
	survivor := dialStub(t, co, 2, 0)
	wait := submitAsync(co, tlp.RunConfig{MaxRetries: 2}, stubTasks(8*window, false))
	first := victim.await(window)
	if err := victim.conn.(*net.UnixConn).CloseRead(); err != nil {
		t.Fatal(err)
	}
	victim.answer(first...)
	victim.conn.Close()
	go survivor.serveAll()
	results := wait(t)

	answered := map[string]bool{}
	for _, m := range first {
		answered[m.ID] = true
	}
	for _, r := range results {
		if answered[r.TaskID] && (r.Attempts != 1 || len(r.AttemptErrs) != 0) {
			t.Errorf("task %s, answered before the death, was charged it: %d attempts, %d earlier errors", r.TaskID, r.Attempts, len(r.AttemptErrs))
		}
	}
	survivor.mu.Lock()
	for _, m := range survivor.got {
		if answered[m.ID] {
			t.Errorf("task %s, answered before the death, was shipped again", m.ID)
		}
	}
	survivor.mu.Unlock()
	// The victim left nothing to requeue, so the survivor can finish the
	// run before the victim's reader reports the loss: wait for it.
	for deadline := time.Now().Add(10 * time.Second); co.Stats().WorkerDeaths == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if st := co.Stats(); st.WorkerDeaths != 1 || st.PerWorker[0].Tasks != window {
		t.Errorf("%d deaths, %d results merged from the victim; want 1 and all %d", st.WorkerDeaths, st.PerWorker[0].Tasks, window)
	}
}
