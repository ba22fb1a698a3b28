package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"runtime"
	"testing"

	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// roundRecorder runs an interpretation's queues on private engines and
// keeps each queue with the result message every task of it sends.
type roundRecorder struct {
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
			Snapshot: snapRows(e, spec.Extract)}
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
	rec := &roundRecorder{}
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
