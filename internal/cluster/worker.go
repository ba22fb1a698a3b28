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
	"strings"
	"sync"
	"syscall"

	"spampsm/internal/faults"
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

	init     InitMsg
	procPlan *faults.Plan

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
	// a test sets it, sees the queue's length each time a task process
	// takes a task off it.
	pool    *tlp.Pool
	onStart func(queued int)

	// writeMu guards bw, enc, buf — the frame being encoded, reused by
	// the next — and unflushed: the result frames written since the last
	// flush.
	writeMu   sync.Mutex
	buf       []byte
	unflushed int
}

// resultBatch bounds how many finished results a worker holds in its
// write buffer: it flushes when nothing is queued behind the result —
// it is about to go idle, so the coordinator must hear now — and
// otherwise on every resultBatch-th, so the coordinator refills the
// window while the worker still has work. It is also what a death can
// lose beyond the running tasks: results finished, not yet flushed.
const resultBatch = 4

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
	if w.init.ProcFaults != (faults.Config{}) {
		w.procPlan = faults.New(w.init.ProcFaults)
	}

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
			m, _, err := DecodeTaskV2(w.dec, payload, func(id uint64) (ops5.Seed, bool) {
				s, ok := w.chunks[id]
				return s, ok
			})
			if err != nil {
				loopErr = err
				break loop
			}
			w.submit(ctx, m)
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

// admit applies the process-level chaos draw to a task a task process
// has just taken off the queue. A Crash draw for this (task, attempt)
// kills the worker process outright — no goodbye frame, the coordinator
// sees only the dropped connection. The draw strikes at the start of
// the task, not when its frame is decoded: the pool starts tasks in
// ship order, so the fated task is among the first LocalWorkers+resultBatch
// unmerged tasks of its connection, which are the ones the coordinator
// charges an attempt (Coordinator.workerLost) — drawn at decode, with a
// window of tasks queued ahead of it, it could die uncharged, be
// redelivered at the same attempt and kill every worker it reached.
// Deterministic in (task ID, attempt), and because transient faults
// strike only the first attempt, the task's redelivery (startAttempt 2)
// survives.
func (w *worker) admit(m *TaskMsg) {
	if w.procPlan != nil && w.procPlan.TaskFault(m.ID, m.StartAttempt).Kind == faults.Crash {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
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

// submit hands a decoded task to the pool under the configuration its
// frame carries, resuming at the frame's attempt. The task process
// that takes it applies the crash draw, runs it on its match arena and
// writes its result frame. A task whose engine cannot be described —
// an unknown dataset or phase — is quarantined at once, without a run.
func (w *worker) submit(ctx context.Context, m *TaskMsg) {
	var build func(*ops5.Scratch) (*ops5.Engine, error)
	var err error
	if d, ok := w.datasets[m.Spec.Dataset]; ok {
		build, err = d.WireBuild(&m.Spec)
	} else {
		err = fmt.Errorf("cluster: task %s: dataset %q not registered", m.ID, m.Spec.Dataset)
	}
	if err != nil {
		e := WireError{Msg: err.Error()}
		w.send(ctx, &ResultMsg{RunID: m.RunID, Seq: m.Seq, TaskID: m.ID, Attempts: m.StartAttempt,
			Err: &e, AttemptErrs: []WireError{e}, Quarantined: true})
		return
	}
	w.pool.Go(tlp.Job{
		Ctx: ctx, Config: m.Config, Seq: m.Seq, StartAttempt: m.StartAttempt,
		Task: &tlp.Task{
			ID: m.ID, Label: m.Label, Group: m.Group,
			EstSize: m.EstSize, MemEst: m.MemEst,
			BuildWith: build,
			Read:      func(rows tlp.Rows) any { return snapRows(rows, m.Spec.Extract) },
		},
		Start: func() {
			if w.onStart != nil {
				w.onStart(w.pool.Queued())
			}
			w.admit(m)
		},
		Done: func(r *tlp.Result) { w.send(ctx, resultMsg(m, r)) },
	})
}

// send stamps a result with the process's arena footprint and writes
// its frame, flushing by the resultBatch rule. The encoding happens
// under writeMu too: the result codec interns against the connection's
// shared table, so encode order must match stream order.
func (w *worker) send(ctx context.Context, res *ResultMsg) {
	a := w.pool.Arena()
	res.ArenaSlabs, res.ArenaBytes = a.ArenaSlabs, a.ArenaBytes
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
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

// resultMsg flattens a task's Result for the wire.
func resultMsg(m *TaskMsg, r *tlp.Result) *ResultMsg {
	out := &ResultMsg{RunID: m.RunID, Seq: m.Seq, TaskID: m.ID, Worker: r.Worker, Attempts: r.Attempts,
		Stats: r.Stats, Quarantined: r.Quarantined, Cancelled: r.Cancelled}
	if r.Log != nil {
		out.HasLog = true
		out.Mem = r.Log.Mem
	}
	if r.Err != nil {
		out.Err = &WireError{Msg: r.Err.Error(), Marks: tlp.ErrorMarks(r.Err)}
	}
	for _, ae := range r.AttemptErrs {
		out.AttemptErrs = append(out.AttemptErrs, WireError{Msg: ae.Error(), Marks: tlp.ErrorMarks(ae)})
	}
	if r.Err == nil {
		out.Snapshot, _ = r.Output.([]SnapClass)
	}
	return out
}

// snapRows is a worker task's Read: the rows of the classes its spec
// ships, copied out of the final working memory for the frame — one
// value array per class — before the engine gives them back to the
// arena. The coordinator runs the task's own Read over them; the engine
// itself never crosses the wire.
func snapRows(rows tlp.Rows, classes []string) []SnapClass {
	out := make([]SnapClass, len(classes))
	for i, class := range classes {
		sc, n, slots := &out[i], 0, 0
		sc.Name = class
		rows.EachWME(class, func(w *wm.WME) { sc.Attrs, n, slots = w.Class.Attrs, n+1, slots+len(w.Vals) })
		sc.Rows = make([][]symtab.Value, 0, n)
		vals := make([]symtab.Value, 0, slots)
		rows.EachWME(class, func(w *wm.WME) {
			vals = append(vals, w.Vals...)
			sc.Rows = append(sc.Rows, vals[len(vals)-len(w.Vals):len(vals):len(vals)])
		})
	}
	return out
}
