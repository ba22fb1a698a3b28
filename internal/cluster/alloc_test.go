package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"testing"

	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
	"spampsm/internal/wm"
)

// roundRecorder runs an interpretation's queues on private engines and
// keeps each queue with the result message every task of it sends.
type roundRecorder struct {
	d       *spam.Dataset
	queues  [][]*tlp.Task
	results [][]*ResultMsg
}

func (r *roundRecorder) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	results := make([]*tlp.Result, len(tasks))
	msgs := make([]*ResultMsg, len(tasks))
	for i, task := range tasks {
		spec, err := task.Wire()
		if err != nil {
			return nil, err
		}
		e, err := task.BuildWith(nil)
		if err != nil {
			return nil, err
		}
		if _, err := e.Run(0); err != nil {
			return nil, err
		}
		msgs[i] = &ResultMsg{Seq: i, Attempts: 1, Stats: e.Stats(), HasLog: true, Mem: e.Log().Mem,
			Snapshot: snapRows(e, spec.Extract, keepOf(r.d, spec))}
		results[i] = &tlp.Result{TaskID: task.ID, SeqInQ: i, Attempts: 1, Stats: e.Stats(), Log: e.Log(), Output: task.Read(e)}
	}
	r.queues = append(r.queues, tasks)
	r.results = append(r.results, msgs)
	return results, nil
}

// TestCoordinatorTaskPathAllocationCeiling is the tier-1 allocation
// guard on the coordinator's per-task path — claim, Wire, chunk
// bookkeeping, frame encode and write, result read, decode and deliver
// with the task's Read — over the queues of a DC interpretation with
// re-entry, submitted a second time on a warm connection. The worker is
// a stub that answers each task frame with its recorded result frame,
// written before the measurement, and reads into one buffer, so what
// the process allocates is the coordinator's: 2,541 objects and 217 KB
// for the round's 236 tasks (±1.5% run to run, the same under -race:
// the spec pool is a channel, which the race detector does not thin).
// It allocated 7,690 objects and 0.98 MB while each Wire assembled its
// seed rows into a fresh slice and fresh value vectors, four fifths of
// the bytes; 16,880 objects and 2.43 MB while Submit wired every task
// and planned every chunk up front, each frame was decoded and encoded
// into fresh buffers and read into a fresh payload (the stub's reads
// then included, 236 objects). The ceilings are the new counts plus
// 30%.
func TestCoordinatorTaskPathAllocationCeiling(t *testing.T) {
	const ceiling, byteCeiling = 3_300, 280_000
	d, err := spam.NewDataset(scene.DC)
	if err != nil {
		t.Fatal(err)
	}
	rec := &roundRecorder{d: d}
	if _, err := d.Interpret(spam.InterpretOptions{ReEntry: true, Runner: rec}); err != nil {
		t.Fatal(err)
	}
	// Two rounds of the same queues are runs 1..2q of one connection, so
	// their result frames are one stream of the stub's intern table.
	q := len(rec.queues)
	enc := NewEncTab()
	frames := map[[2]uint64][]byte{}
	tasks := 0
	for run := uint64(1); run <= uint64(2*q); run++ {
		for _, m := range rec.results[(run-1)%uint64(q)] {
			m.RunID = run
			frames[[2]uint64{run, uint64(m.Seq)}] = EncodeResultV2(enc, m)
		}
		if run <= uint64(q) {
			tasks += len(rec.queues[run-1])
		}
	}

	co := listenBare(t, Config{Workers: 1, LocalWorkers: 1})
	conn := dialWorker(t, co, 1)
	go func() {
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		var buf []byte
		for {
			typ, payload, err := readFrame(br, buf)
			if err != nil || typ == frameShutdown {
				return
			}
			buf = payload
			if typ != frameTaskV2 {
				continue
			}
			runID, n := binary.Uvarint(payload)
			seq, _ := binary.Uvarint(payload[n:])
			frame, ok := frames[[2]uint64{runID, seq}]
			if !ok {
				t.Errorf("stub: no recorded result for run %d task %d", runID, seq)
				return
			}
			if _, err := writeFrame(bw, frameResult, frame); err != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	round := func() {
		for _, queue := range rec.queues {
			results, err := co.Submit(context.Background(), tlp.RunConfig{}, queue)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.Err != nil || r.Output == nil {
					t.Fatalf("task %d: %+v", i, r)
				}
			}
		}
	}
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	if tasks < 200 {
		t.Fatalf("a round of %d tasks: the guard is vacuous", tasks)
	}
	objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d tasks: %d objects, %d bytes", tasks, objects, bytes)
	if objects > ceiling {
		t.Errorf("the coordinator's per-task path allocated %d objects over %d tasks, ceiling %d", objects, tasks, ceiling)
	}
	if bytes > byteCeiling {
		t.Errorf("the coordinator's per-task path allocated %d bytes over %d tasks, ceiling %d", bytes, tasks, byteCeiling)
	}
}

// classRows is a finished engine's rows, copied out once: a task's
// Read walks them as it walks the engine.
type classRows map[string][]*wm.WME

func (c classRows) EachWME(class string, f func(*wm.WME)) {
	for _, w := range c[class] {
		f(w)
	}
}

// discardConn is a connection whose writes go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestWorkerTaskPathAllocationCeiling is the tier-1 allocation guard on
// a worker's per-task path outside the engine — the task frame decoded
// into the connection's recycled storage, the Read's snapshot of the
// rows the phase keeps, the result message, its frame encoded and
// written, the storage released — over the tasks of a DC interpretation
// with re-entry, framed as one connection sends them (shared seeds as
// resident chunks) and taken a second time on the warm connection. The
// engines run before the measurement; their rows stand in for them. It
// allocates 236 objects and 4.8 KB for the round's 236 tasks, one task
// ID each (4.85 KB under -race: the storage is recycled through a
// channel, which the race detector does not thin). It allocated 9,570
// objects and 1.53 MB while every frame was decoded into a fresh
// message, seed slice and value vectors, every snapshot and result
// message was fresh, LCC snapshots held every check row and the arena
// footprint was summed over a fresh slice. The ceilings are the new
// counts plus 30%.
func TestWorkerTaskPathAllocationCeiling(t *testing.T) {
	const ceiling, byteCeiling = 310, 6_300
	d, err := spam.NewDataset(scene.DC)
	if err != nil {
		t.Fatal(err)
	}
	rec := &roundRecorder{d: d}
	if _, err := d.Interpret(spam.InterpretOptions{ReEntry: true, Runner: rec}); err != nil {
		t.Fatal(err)
	}
	type job struct {
		payload [2][]byte // the first round's frame and the second's
		rows    classRows
		keep    func(*wm.WME) bool
		res     [2]tlp.Result
	}
	w := newWorker(discardConn{})
	w.pool = &tlp.Pool{Workers: 1}
	w.frames = make(chan *workerTask, shipDepth)
	enc := NewEncTab()
	resident, next := map[string]uint64{}, uint64(0)
	var jobs []*job
	for _, queue := range rec.queues {
		for i, task := range queue {
			spec, err := task.Wire()
			if err != nil {
				t.Fatal(err)
			}
			e, err := task.BuildWith(nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(0); err != nil {
				t.Fatal(err)
			}
			j := &job{rows: classRows{}, keep: keepOf(d, spec)}
			for _, class := range spec.Extract {
				j.rows[class] = e.WMEs(class)
			}
			for r := range j.res {
				j.res[r] = tlp.Result{TaskID: task.ID, SeqInQ: i, Attempts: 1, Stats: e.Stats(), Log: e.Log()}
			}
			jobs = append(jobs, j)
			spec.Release()
		}
	}
	// One connection's stream: the first round's frames intern the
	// strings and ship the chunks the second round's reference.
	for round := range 2 {
		k := 0
		for q, queue := range rec.queues {
			for i, task := range queue {
				spec, err := task.Wire()
				if err != nil {
					t.Fatal(err)
				}
				m := &TaskMsg{RunID: uint64(round*len(rec.queues) + q + 1), Seq: i, StartAttempt: 1,
					ID: task.ID, Label: task.Label, Group: task.Group, EstSize: task.EstSize, MemEst: task.MemEst, Spec: *spec}
				refs, ids, seeds := chunkRefsFor(m, resident, &next)
				for c, id := range ids {
					w.chunks[id] = seeds[c]
				}
				jobs[k].payload[round] = EncodeTaskV2(enc, m, refs)
				spec.Release()
				k++
			}
		}
	}
	ctx := context.Background()
	take := func(round int) {
		for _, j := range jobs {
			wt := w.task()
			if err := w.dec.task(&wt.taskFrame, j.payload[round], w.resolve); err != nil {
				t.Fatal(err)
			}
			wt.keep = j.keep
			r := &j.res[round]
			r.Output = wt.read(j.rows)
			w.send(ctx, wt.result(r), wt)
		}
	}
	take(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	take(1)
	runtime.ReadMemStats(&after)
	if len(jobs) < 200 {
		t.Fatalf("a round of %d tasks: the guard is vacuous", len(jobs))
	}
	objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d tasks: %d objects, %d bytes", len(jobs), objects, bytes)
	if objects > ceiling {
		t.Errorf("the worker's per-task path allocated %d objects over %d tasks, ceiling %d", objects, len(jobs), ceiling)
	}
	if bytes > byteCeiling {
		t.Errorf("the worker's per-task path allocated %d bytes over %d tasks, ceiling %d", bytes, len(jobs), byteCeiling)
	}
}
