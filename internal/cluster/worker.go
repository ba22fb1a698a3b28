package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"syscall"

	"spampsm/internal/ops5"
	"spampsm/internal/spam"
	"spampsm/internal/symtab"
	"spampsm/internal/tlp"
	"spampsm/internal/wm"
)

// WorkerEnv is the environment variable that flips a binary into
// cluster-worker mode: "network|address" of the coordinator's
// listener. The coordinator sets it on the processes it spawns; every
// cmd main (and the test binaries) call MaybeWorker first, so the
// same executable serves as both coordinator and worker.
const WorkerEnv = "SPAMPSM_CLUSTER_WORKER"

// MaybeWorker turns the current process into a cluster worker when
// WorkerEnv is set: it connects back to the coordinator, serves tasks
// until the connection shuts down, and exits the process. A normal
// invocation (variable unset) returns immediately.
func MaybeWorker() {
	spec := os.Getenv(WorkerEnv)
	if spec == "" {
		return
	}
	network, addr, ok := strings.Cut(spec, "|")
	if !ok {
		fmt.Fprintf(os.Stderr, "cluster worker: malformed %s=%q\n", WorkerEnv, spec)
		os.Exit(1)
	}
	c, err := net.Dial(network, addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cluster worker: dial: %v\n", err)
		os.Exit(1)
	}
	if err := ServeWorker(c); err != nil {
		fmt.Fprintf(os.Stderr, "cluster worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// worker is one connection's serving state.
type worker struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	init InitMsg

	// chunks is the resident content-addressed seed table: chunk frames
	// install entries, chunk-free frames drop them, and
	// chunk-ref task frames resolve against it at decode time. Only the
	// read loop touches it, so it needs no lock — and because refs
	// resolve into the TaskMsg before the task is handed to the pool,
	// a later eviction cannot break an earlier task.
	chunks map[uint64]ops5.Seed

	// dec/enc are the per-direction intern tables: dec mirrors the
	// coordinator's sender state (read loop only), enc is this worker's
	// result-stream state (guarded by writeMu, like the stream itself).
	dec *DecTab
	enc *EncTab

	// datasets is the read loop's alone: a task frame's dataset is
	// looked up before the task enters the pool.
	datasets map[string]*spam.Dataset
	// pool is the process's task processes, InitMsg.LocalWorkers of
	// them: every task, whatever RunConfig its frame carries, runs
	// there. Its queue holds decoded tasks in ship order. onStart, when
	// a test sets it, sees each task and the queue's length behind it as
	// a task process takes the task off the queue — the point where a
	// test's death harness drops the connection.
	pool    *tlp.Pool
	onStart func(m *TaskMsg, queued int)

	// writeMu guards bw, enc, buf — the frame being encoded, reused by
	// the next — and unflushed: the result frames written since the last
	// flush.
	writeMu   sync.Mutex
	buf       []byte
	unflushed int

	// frames holds the connection's released task storage for the next
	// task frame to decode into (workerTask): room for a default ship
	// window's worth, the most a connection has in flight at once.
	frames chan *workerTask
}

// resultBatch bounds how many finished results a worker holds in its
// write buffer: it flushes when nothing is queued behind the result —
// it is about to go idle, so the coordinator must hear now — and
// otherwise on every resultBatch-th, so the coordinator refills the
// window while the worker still has work. It is also what a death can
// lose beyond the running tasks: results finished, not yet flushed.
// docs/PERFORMANCE.md "The cluster round trip" has the sweep: 4 cost
// the coordinator a read and its feeder a wake-up per four results,
// and 16 saved no more end to end.
const resultBatch = 8

// ServeWorker runs the worker side of one coordinator connection
// until the coordinator sends Shutdown or the connection drops.
// Exported for the in-process tests; production workers enter through
// MaybeWorker.
func ServeWorker(c net.Conn) error { return newWorker(c).serve() }

func newWorker(c net.Conn) *worker {
	return &worker{
		conn:     c,
		br:       bufio.NewReaderSize(c, 1<<16),
		bw:       bufio.NewWriterSize(c, 1<<16),
		chunks:   map[uint64]ops5.Seed{},
		dec:      &DecTab{},
		enc:      NewEncTab(),
		datasets: map[string]*spam.Dataset{},
	}
}

func (w *worker) serve() error {
	defer w.conn.Close()

	typ, payload, err := readFrame(w.br, nil)
	if err != nil {
		return fmt.Errorf("handshake read: %w", err)
	}
	if typ != frameInit {
		return fmt.Errorf("handshake: got frame type %d, want init", typ)
	}
	if err := json.Unmarshal(payload, &w.init); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if w.init.Magic != Magic || w.init.Version != Version {
		return fmt.Errorf("handshake: protocol %q v%d, want %q v%d",
			w.init.Magic, w.init.Version, Magic, Version)
	}
	w.pool = &tlp.Pool{Workers: w.init.LocalWorkers}
	w.frames = make(chan *workerTask, shipDepth*max(w.init.LocalWorkers, 1))

	// This goroutine is the only frame reader, the task processes the
	// only (mutex-serialized) frame writers. ctx ends with the read
	// loop: once no coordinator is listening, a result has nowhere to
	// go, so the pool cancels what is queued without building it and
	// interrupts what runs.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// One payload buffer serves every frame: each decoder copies what it
	// keeps out of it before the next read.
	buf := payload
	var loopErr error
loop:
	for {
		typ, payload, err := readFrame(w.br, buf)
		if err != nil {
			loopErr = fmt.Errorf("read: %w", err)
			break
		}
		buf = payload
		switch typ {
		case frameDataset:
			var spec DatasetSpec
			if err := json.Unmarshal(payload, &spec); err != nil {
				loopErr = err
			} else {
				loopErr = w.addDataset(spec)
			}
		case frameTaskV2:
			wt := w.task()
			if err := w.dec.task(&wt.taskFrame, payload, w.resolve); err != nil {
				loopErr = err
				break loop
			}
			w.submit(ctx, wt)
		case frameChunk:
			id, s, err := DecodeChunk(w.dec, payload)
			if err != nil {
				loopErr = err
				break loop
			}
			w.chunks[id] = s
		case frameChunkFree:
			ids, err := DecodeChunkFree(payload)
			if err != nil {
				loopErr = err
				break loop
			}
			for _, id := range ids {
				delete(w.chunks, id)
			}
		case frameShutdown:
			break loop
		default:
			loopErr = fmt.Errorf("unexpected frame type %d", typ)
		}
		if loopErr != nil {
			break
		}
	}
	cancel()
	w.pool.Close()
	if loopErr != nil && !isClosedConn(loopErr) {
		return loopErr
	}
	return nil
}

// isClosedConn reports whether a read-loop error is the connection
// going away — the coordinator closing it, or dying — as opposed to a
// failure of this worker (a frame it could not decode, a dataset it
// could not build).
func isClosedConn(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET)
}

// addDataset regenerates a dataset from its shipped parameters.
// Generation is deterministic, so the result is byte-identical to the
// coordinator's copy.
func (w *worker) addDataset(spec DatasetSpec) error {
	if _, ok := w.datasets[spec.Name]; ok {
		return nil
	}
	var (
		d   *spam.Dataset
		err error
	)
	switch spec.Domain {
	case "airport":
		d, err = spam.NewDataset(spec.Airport)
	case "suburban":
		d, err = spam.NewSuburbanDataset(spec.Suburban)
	default:
		return fmt.Errorf("cluster: dataset %q: unknown domain %q", spec.Name, spec.Domain)
	}
	if err != nil {
		return fmt.Errorf("cluster: dataset %q: %w", spec.Name, err)
	}
	w.datasets[spec.Name] = d
	return nil
}

// workerTask is one task's storage on a worker, from its decoded frame
// to its encoded result: the frame (taskFrame), the tlp.Task the pool
// runs, the snapshot its Read takes and the result message send
// encodes. A connection recycles it (worker.frames) once the result
// frame is encoded, and not before: the task's engine adopts its
// inline seeds' value vectors, and the snapshot is the frame's
// payload. Its Read, Start and Done are bound to it once, when it is
// made.
type workerTask struct {
	taskFrame
	ctx  context.Context
	task tlp.Task
	keep func(*wm.WME) bool
	snap snapshot
	res  ResultMsg
	err  WireError // what res.Err points at

	read  func(tlp.Rows) any
	start func()
	done  func(*tlp.Result)
}

// task returns released task storage, or new storage when none is.
func (w *worker) task() *workerTask {
	select {
	case wt := <-w.frames:
		return wt
	default:
	}
	wt := new(workerTask)
	wt.read = func(rows tlp.Rows) any {
		wt.snap.take(rows, wt.m.Spec.Extract, wt.keep)
		return wt
	}
	wt.start = func() {
		if w.onStart != nil {
			w.onStart(&wt.m, w.pool.Queued())
		}
	}
	wt.done = func(r *tlp.Result) { w.send(wt.ctx, wt.result(r), wt) }
	return wt
}

// resolve is a task frame's chunk resolver: the resident-chunk table.
func (w *worker) resolve(id uint64) (ops5.Seed, bool) {
	s, ok := w.chunks[id]
	return s, ok
}

// submit hands a decoded task to the pool under the configuration its
// frame carries, resuming at the frame's attempt. The task process
// that takes it runs it on its match arena and writes its result
// frame. A task whose engine cannot be described — an unknown dataset
// or phase — is quarantined at once, without a run.
func (w *worker) submit(ctx context.Context, wt *workerTask) {
	m := &wt.m
	var build func(*ops5.Scratch) (*ops5.Engine, error)
	var err error
	if d, ok := w.datasets[m.Spec.Dataset]; ok {
		build, wt.keep, err = d.WireBuild(&m.Spec)
	} else {
		err = fmt.Errorf("cluster: task %s: dataset %q not registered", m.ID, m.Spec.Dataset)
	}
	wt.ctx = ctx
	if err != nil {
		e := WireError{Msg: err.Error()}
		w.send(ctx, &ResultMsg{RunID: m.RunID, Seq: m.Seq, TaskID: m.ID, Attempts: m.StartAttempt,
			Err: &e, AttemptErrs: []WireError{e}, Quarantined: true}, wt)
		return
	}
	wt.task = tlp.Task{
		ID: m.ID, Label: m.Label, Group: m.Group,
		EstSize: m.EstSize, MemEst: m.MemEst,
		BuildWith: build,
		Read:      wt.read,
	}
	w.pool.Go(tlp.Job{
		Ctx: ctx, Config: m.Config, Seq: m.Seq, StartAttempt: m.StartAttempt,
		Task: &wt.task, Start: wt.start, Done: wt.done,
	})
}

// send stamps a result with the process's arena footprint and writes
// its frame, flushing by the resultBatch rule, then releases the task's
// storage: the frame is encoded, so nothing reads it any more. The
// encoding happens under writeMu too: the result codec interns against
// the connection's shared table, so encode order must match stream
// order.
func (w *worker) send(ctx context.Context, res *ResultMsg, wt *workerTask) {
	a := w.pool.Arena()
	res.ArenaSlabs, res.ArenaBytes = a.ArenaSlabs, a.ArenaBytes
	w.writeMu.Lock()
	w.write(ctx, res)
	w.writeMu.Unlock()
	select {
	case w.frames <- wt:
	default:
	}
}

// write encodes and writes a result frame. Caller holds writeMu.
func (w *worker) write(ctx context.Context, res *ResultMsg) {
	if ctx.Err() != nil {
		return // the connection is gone
	}
	w.buf = w.enc.result(w.buf[:0], res)
	if _, err := writeFrame(w.bw, frameResult, w.buf); err != nil {
		return
	}
	w.unflushed++
	if w.unflushed >= resultBatch || w.pool.Queued() == 0 {
		w.unflushed = 0
		w.bw.Flush()
	}
}

// result flattens the task's Result for the wire into the storage's
// message.
func (wt *workerTask) result(r *tlp.Result) *ResultMsg {
	m := &wt.m
	res := &wt.res
	*res = ResultMsg{RunID: m.RunID, Seq: m.Seq, TaskID: m.ID, Worker: r.Worker, Attempts: r.Attempts,
		Stats: r.Stats, Quarantined: r.Quarantined, Cancelled: r.Cancelled, AttemptErrs: res.AttemptErrs[:0]}
	if r.Log != nil {
		res.HasLog = true
		res.Mem = r.Log.Mem
	}
	if r.Err != nil {
		wt.err = WireError{Msg: r.Err.Error(), Marks: tlp.ErrorMarks(r.Err)}
		res.Err = &wt.err
	}
	for _, ae := range r.AttemptErrs {
		res.AttemptErrs = append(res.AttemptErrs, WireError{Msg: ae.Error(), Marks: tlp.ErrorMarks(ae)})
	}
	if r.Err == nil && r.Output == wt {
		res.Snapshot = wt.snap.classes
	}
	return res
}

// snapshot is a worker task's Read: the rows of the classes its spec
// ships that the phase's keep rule keeps, copied out of the final
// working memory for the frame — every row carved from one value slab —
// before the engine gives them back to the arena. The coordinator runs
// the task's own Read over them; the engine itself never crosses the
// wire. A snapshot keeps its arrays from task to task.
type snapshot struct {
	classes []SnapClass
	vals    []symtab.Value

	// The walk's state, and the two walks bound to it once.
	keep        func(*wm.WME) bool
	sc          *SnapClass
	rows, slots int
	count, copy func(*wm.WME)
}

// take snapshots rows' classes, overwriting the previous snapshot.
func (s *snapshot) take(rows tlp.Rows, classes []string, keep func(*wm.WME) bool) {
	if s.count == nil {
		s.count = func(w *wm.WME) {
			if s.keep == nil || s.keep(w) {
				s.sc.Attrs, s.rows, s.slots = w.Class.Attrs, s.rows+1, s.slots+len(w.Vals)
			}
		}
		s.copy = func(w *wm.WME) {
			if s.keep == nil || s.keep(w) {
				s.vals = append(s.vals, w.Vals...)
				s.sc.Rows = append(s.sc.Rows, s.vals[len(s.vals)-len(w.Vals):len(s.vals):len(s.vals)])
			}
		}
	}
	s.keep = keep
	s.classes, s.vals = resize(s.classes, len(classes)), s.vals[:0]
	for i, class := range classes {
		s.sc, s.rows, s.slots = &s.classes[i], 0, 0
		s.sc.Name, s.sc.Attrs = class, nil
		rows.EachWME(class, s.count)
		s.sc.Rows = slices.Grow(s.sc.Rows[:0], s.rows)
		s.vals = slices.Grow(s.vals, s.slots)
		rows.EachWME(class, s.copy)
	}
	s.keep, s.sc = nil, nil
}
