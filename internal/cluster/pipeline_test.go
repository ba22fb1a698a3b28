package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spampsm/internal/faults"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// listenBare starts a coordinator with no worker processes: the tests
// below bring their own workers, in process, by dialling its address,
// and dial any replacement themselves.
func listenBare(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
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
	c, err := net.Dial("unix", co.addr)
	if err != nil {
		t.Fatalf("dial coordinator: %v", err)
	}
	if err := co.waitConnected(nth, 10*time.Second); err != nil {
		t.Fatalf("worker %d never registered: %v", nth, err)
	}
	return c
}

// sendFrame writes one frame to c in one write, as a worker's or the
// coordinator's buffered writer flushes it.
func sendFrame(c net.Conn, typ byte, payload []byte) error {
	bw := bufio.NewWriter(c)
	if _, err := writeFrame(bw, typ, payload); err != nil {
		return err
	}
	return bw.Flush()
}

// sendJSONFrame is sendFrame for the JSON frames.
func sendJSONFrame(c net.Conn, typ byte, v any) error {
	bw := bufio.NewWriter(c)
	if _, err := writeJSONFrame(bw, typ, v); err != nil {
		return err
	}
	return bw.Flush()
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
// what it is for, with one executor. The coordinator half is scripted,
// so it is exact: a stub worker that starts tasks in ship order and
// answers them in batches of resultBatch finds, at every start, the
// whole ship window in flight until the queue runs out — every merged
// result is refilled before the next start. The worker half runs a
// real in-process worker: it answers in batches, and the coordinator
// never holds more than the window in flight to it. Whether a queued
// task is already decoded when the executor wants it is left to
// timing, and only logged.
func TestPipelineKeepsWorkerFed(t *testing.T) {
	const n = 200
	t.Run("window refilled at every start", func(t *testing.T) {
		co := listenBare(t, Config{Workers: 1, LocalWorkers: 1})
		stub := dialStub(t, co, 1)
		wait := submitAsync(co, tlp.RunConfig{}, stubTasks(n))
		window := co.cfg.shipWindow
		for started := 0; started < n; {
			// Every answered result is merged and its refill has arrived.
			// A task ships only into a slot a merge freed, so the window
			// now holds exactly what is neither merged nor unclaimed.
			got := stub.await(min(n, window+started))
			var inflight int
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
				co.mu.Lock()
				merged := co.stats.TasksCompleted
				inflight = len(co.slots[0].inflight)
				co.mu.Unlock()
				if merged == started || time.Now().After(deadline) {
					break
				}
			}
			if want := min(window, n-started); inflight != want {
				t.Fatalf("at start %d the coordinator holds %d tasks in flight, want %d", started, inflight, want)
			}
			batch := got[started:min(started+resultBatch, len(got))]
			stub.answer(batch...)
			started += len(batch)
		}
		for i, r := range wait(t) {
			if r == nil || r.Err != nil || r.Attempts != 1 {
				t.Fatalf("task %d: %+v", i, r)
			}
		}
		if got := len(stub.await(n)); got != n {
			t.Errorf("%d task frames for %d tasks", got, n)
		}
		if peak := co.Stats().PerWorker[0].PeakInFlight; peak != window {
			t.Errorf("peak in flight %d, want the window of %d", peak, window)
		}
	})

	d, err := spam.NewDataset(airportParams("DC"))
	if err != nil {
		t.Fatal(err)
	}
	tasks := tinyTasks(t, d, n)

	co := listenBare(t, Config{Workers: 1, LocalWorkers: 1})
	conn := &countingConn{Conn: dialWorker(t, co, 1)}
	w := newWorker(conn)
	w.datasets[d.Name] = d
	var queued []int // one executor: appended in start order, read after serve returns
	w.onStart = func(_ *TaskMsg, q int) { queued = append(queued, q) }
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
	window := co.cfg.shipWindow
	fed := 0
	for _, q := range queued[:n-window] {
		if q > 0 {
			fed++
		}
	}
	t.Logf("%d results in %d writes; queue non-empty at %d of the first %d task starts; peak %d in flight",
		n, conn.writes.Load(), fed, n-window, st.PerWorker[0].PeakInFlight)
	if peak := st.PerWorker[0].PeakInFlight; peak > window {
		t.Errorf("peak in flight %d, over the window of %d", peak, window)
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
	w.onStart = func(*TaskMsg, int) { starts.Add(1); started <- struct{}{} }
	served := make(chan error, 1)
	go func() { served <- w.serve() }()

	if err := sendJSONFrame(coord, frameInit, InitMsg{Magic: Magic, Version: Version, LocalWorkers: 1}); err != nil {
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
		return sendFrame(coord, frameTaskV2, EncodeTaskV2(enc, m, nil))
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
	// pad, when positive, is the size of an error message each answer
	// carries, so that a window of results outgrows one read.
	pad int

	mu     sync.Mutex
	cond   *sync.Cond
	inited bool       // the Init frame arrived
	got    []*TaskMsg // task frames in arrival order
	gone   bool       // read loop ended
}

func dialStub(t *testing.T, co *Coordinator, nth int) *stubWorker {
	t.Helper()
	s := &stubWorker{t: t, conn: dialWorker(t, co, nth), enc: NewEncTab()}
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
	for {
		typ, payload, err := readFrame(br, nil)
		if err != nil || typ == frameShutdown {
			return
		}
		if typ == frameInit {
			s.mu.Lock()
			s.inited = true
			s.cond.Broadcast()
			s.mu.Unlock()
			continue
		}
		if typ != frameTaskV2 {
			// Nothing else arrives: the stub's tasks name no dataset a
			// test registers and carry no seeds to chunk.
			continue
		}
		m, _, err := DecodeTaskV2(dec, payload, fuzzResolve)
		if err != nil {
			s.t.Errorf("stub: decode task: %v", err)
			return
		}
		s.mu.Lock()
		s.got = append(s.got, m)
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// await blocks until n task frames have arrived and returns them all.
func (s *stubWorker) await(n int) []*TaskMsg {
	s.t.Helper()
	ok := s.waitFor(func() bool { return len(s.got) >= n })
	defer s.mu.Unlock()
	if !ok {
		s.t.Fatalf("stub received %d task frames, want %d", len(s.got), n)
	}
	return append([]*TaskMsg(nil), s.got...)
}

// awaitInit blocks until the handshake has arrived.
func (s *stubWorker) awaitInit() {
	s.t.Helper()
	ok := s.waitFor(func() bool { return s.inited })
	s.mu.Unlock()
	if !ok {
		s.t.Fatal("stub received no Init frame")
	}
}

// waitFor waits up to 20 s for cond, which reads the stub's state, and
// reports whether it came true. It returns holding s.mu.
func (s *stubWorker) waitFor(cond func() bool) bool {
	deadline := time.Now().Add(20 * time.Second)
	wake := time.AfterFunc(time.Until(deadline), func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer wake.Stop()
	s.mu.Lock()
	for !cond() && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	return cond()
}

// resultFrame encodes a bare success for m as a whole frame, against
// the stub's result-stream table.
func (s *stubWorker) resultFrame(m *TaskMsg) []byte {
	res := &ResultMsg{RunID: m.RunID, Seq: m.Seq, TaskID: m.ID, Attempts: m.StartAttempt}
	if s.pad > 0 {
		res.Err = &WireError{Msg: fmt.Sprintf("%0*d", s.pad, m.Seq)}
	}
	var b bytes.Buffer
	bw := bufio.NewWriter(&b)
	writeFrame(bw, frameResult, EncodeResultV2(s.enc, res))
	bw.Flush()
	return b.Bytes()
}

// answer writes a bare success for each task, flushed as one write.
func (s *stubWorker) answer(ms ...*TaskMsg) {
	s.t.Helper()
	bw := bufio.NewWriter(s.conn)
	for _, m := range ms {
		bw.Write(s.resultFrame(m))
	}
	if err := bw.Flush(); err != nil {
		s.t.Errorf("stub: flush results: %v", err)
	}
}

// tear writes the first k bytes of m's result frame, and returns the
// whole frame's length: the stub dies before the rest.
func (s *stubWorker) tear(m *TaskMsg, k int) int {
	s.t.Helper()
	frame := s.resultFrame(m)
	if _, err := s.conn.Write(frame[:k]); err != nil {
		s.t.Fatalf("stub: write %d bytes of a result frame: %v", k, err)
	}
	return len(frame)
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

// stubTasks are tasks only a stub can run: an ID and an empty spec.
func stubTasks(n int) []*tlp.Task {
	tasks := make([]*tlp.Task, n)
	for i := range tasks {
		tasks[i] = &tlp.Task{
			ID:   fmt.Sprintf("kp-%04d", i),
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
	victim := dialStub(t, co, 1)
	victim.pad = 32 << 10
	survivor := dialStub(t, co, 2)
	wait := submitAsync(co, tlp.RunConfig{MaxRetries: 2}, stubTasks(8*window))
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

// TestPipelineWireFailures holds the two ways a task without a wire
// form fails its run. A task with no Wire at all is refused before
// anything ships. A Wire that errors runs on the feeder when its task
// is shipped, so the tasks ahead of it are on the worker already: the
// run fails then with Submit's message, nothing behind the task ships,
// the failed run's window slots all come free as its shipped tasks
// answer, and the next run on the same worker finishes.
func TestPipelineWireFailures(t *testing.T) {
	co := listenBare(t, Config{Workers: 1, LocalWorkers: 1})
	stub := dialStub(t, co, 1)
	go stub.serveAll()

	unwired := stubTasks(8)
	unwired[3].Wire = nil
	_, err := co.Submit(context.Background(), tlp.RunConfig{}, unwired)
	if want := "cluster: task kp-0003 has no wire spec (not cluster-executable)"; err == nil || err.Error() != want {
		t.Fatalf("a task with no Wire: err %v, want %q", err, want)
	}
	if st := co.Stats(); st.TasksShipped != 0 {
		t.Fatalf("%d tasks shipped from a run refused up front", st.TasksShipped)
	}

	const n, bad = 40, 25
	tasks := stubTasks(n)
	tasks[bad].Wire = func() (*tlp.WireSpec, error) { return nil, errors.New("no rows") }
	failed := make(chan error, 1)
	go func() {
		_, err := co.Submit(context.Background(), tlp.RunConfig{}, tasks)
		failed <- err
	}()
	select {
	case err := <-failed:
		if want := "cluster: task kp-0025: no rows"; err == nil || err.Error() != want {
			t.Fatalf("a Wire error mid-queue: err %v, want %q", err, want)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a Wire error did not fail its run")
	}
	if got := stub.await(bad); len(got) != bad || got[bad-1].Seq != bad-1 {
		t.Errorf("shipped %d tasks of a run that failed at task %d", len(got), bad)
	}
	// The shipped tasks answer; their slots must all come free.
	held := -1
	for deadline := time.Now().Add(10 * time.Second); held != 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		co.mu.Lock()
		held = len(co.slots[0].inflight) + len(co.runs)
		co.mu.Unlock()
	}
	if held != 0 {
		t.Fatalf("the failed run still holds %d window slots and runs", held)
	}

	results, err := co.Submit(context.Background(), tlp.RunConfig{}, stubTasks(n))
	if err != nil {
		t.Fatalf("the run after a failed one: %v", err)
	}
	for i, r := range results {
		if r == nil || r.Err != nil {
			t.Fatalf("task %d of the run after a failed one: %+v", i, r)
		}
	}
}

// TestKillPointWorkerDiesWhileWiringTheLastTask: a worker that dies
// while its feeder runs the Wire of a run's last task leaves that Wire
// running after the task is requeued, re-shipped to a survivor and
// answered there. The run's Submit waits for every Wire it started, so
// the dead connection's Wire ending must wake it even though the run
// neither failed nor was cancelled, and nothing else happens on the
// coordinator afterwards.
func TestKillPointWorkerDiesWhileWiringTheLastTask(t *testing.T) {
	co := listenBare(t, Config{Workers: 2, LocalWorkers: 1})
	victim := dialStub(t, co, 1)
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	tasks := stubTasks(1)
	wire := tasks[0].Wire
	tasks[0].Wire = func() (*tlp.WireSpec, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return wire()
	}
	done := make(chan error, 1)
	go func() {
		_, err := co.Submit(context.Background(), tlp.RunConfig{MaxRetries: 2}, tasks)
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(20 * time.Second):
		t.Fatal("the victim's feeder never wired the task")
	}
	survivor := dialStub(t, co, 2)
	go survivor.serveAll()
	victim.conn.Close()
	for deadline := time.Now().Add(20 * time.Second); co.Stats().TasksCompleted == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the survivor never answered the requeued task")
		}
	}
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit did not return once the dead connection's Wire ended")
	}
	if st := co.Stats(); st.WorkerDeaths != 1 || st.Uncharged != 1 {
		t.Errorf("%d deaths, %d tasks requeued uncharged; want 1 and 1", st.WorkerDeaths, st.Uncharged)
	}
}
