package cluster

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"spampsm/internal/ops5"
	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// freshSpec copies a wired spec into freshly allocated rows: the
// reference a recycled spec's frame must equal.
func freshSpec(s *tlp.WireSpec) *tlp.WireSpec {
	seeds := make([]ops5.Seed, len(s.Seeds))
	for i, sd := range s.Seeds {
		seeds[i] = ops5.Seed{Class: sd.Class, Vals: slices.Clone(sd.Vals), Digest: sd.Digest}
	}
	return &tlp.WireSpec{Dataset: s.Dataset, Phase: s.Phase, Seeds: seeds, Extract: slices.Clone(s.Extract)}
}

// inlineFrame is a task's frame with every seed inline, on a fresh
// intern table: the frame's content, whatever the connection had sent
// before it.
func inlineFrame(t *tlp.Task, m TaskMsg, spec *tlp.WireSpec) []byte {
	m.ID, m.Label, m.Group, m.Spec = t.ID, t.Label, t.Group, *spec
	return EncodeTaskV2(NewEncTab(), &m, nil)
}

// TestDifferentialWireSpecRecycling holds the coordinator's recycled
// wire specs to freshly allocated rows, over every task of a DC round
// with re-entry.
//
//   - Held and released: with many specs held, wiring more overwrites
//     none of them; once released, later Wires reuse some of them, and
//     every frame wired into a reused spec equals its fresh reference.
//   - Shipped: the round submitted to a coordinator whose two feeders
//     wire concurrently into the one pool sends, for every task, a task
//     frame that decodes (its chunks resolved) to the frame built from
//     the task's rows copied into fresh memory before the run. A spec
//     released before its frames are encoded is overwritten by the
//     other feeder's next Wire, or cleared by its own Release, and
//     fails this (or the race detector, under make oracle).
func TestDifferentialWireSpecRecycling(t *testing.T) {
	d, err := spam.NewDataset(scene.DC)
	if err != nil {
		t.Fatal(err)
	}
	rec := &roundRecorder{d: d}
	if _, err := d.Interpret(spam.InterpretOptions{ReEntry: true, Runner: rec}); err != nil {
		t.Fatal(err)
	}
	type at struct{ queue, idx int }
	where := map[string]at{}
	var all []*tlp.Task
	fresh := map[string]*tlp.WireSpec{}
	for q, queue := range rec.queues {
		for i, task := range queue {
			if _, dup := where[task.ID]; dup {
				t.Fatalf("task ID %s twice in one round", task.ID)
			}
			where[task.ID] = at{q, i}
			all = append(all, task)
			spec, err := task.Wire()
			if err != nil {
				t.Fatal(err)
			}
			fresh[task.ID] = freshSpec(spec)
			spec.Release()
		}
	}
	wire := func(task *tlp.Task) *tlp.WireSpec {
		spec, err := task.Wire()
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}

	// Held and released.
	const held = 64
	if len(all) < 2*held {
		t.Fatalf("a round of %d tasks is too small", len(all))
	}
	specs := make([]*tlp.WireSpec, held)
	for i := range specs {
		specs[i] = wire(all[i])
	}
	for _, task := range all[held : 2*held] {
		wire(task) // never released
	}
	mine := map[*tlp.WireSpec]bool{}
	for i, spec := range specs {
		if got, want := inlineFrame(all[i], TaskMsg{}, spec), inlineFrame(all[i], TaskMsg{}, fresh[all[i].ID]); !bytes.Equal(got, want) {
			t.Errorf("held spec of %s was overwritten by a later Wire", all[i].ID)
		}
		mine[spec] = true
		spec.Release()
	}
	reused := 0
	for _, task := range all[held : 2*held] {
		spec := wire(task)
		if mine[spec] {
			reused++
		}
		if got, want := inlineFrame(task, TaskMsg{}, spec), inlineFrame(task, TaskMsg{}, fresh[task.ID]); !bytes.Equal(got, want) {
			t.Errorf("%s: frame wired into a recycled spec differs from its fresh rows", task.ID)
		}
		spec.Release()
	}
	if reused == 0 {
		t.Errorf("%d released specs, none reused by the next %d Wires", held, held)
	}

	// Shipped: two stub workers decode every frame and answer with the
	// task's recorded result.
	co := listenBare(t, Config{Workers: 2, LocalWorkers: 2})
	var (
		mu   sync.Mutex
		sent = map[string][]byte{}
		ref  = map[string][]byte{}
	)
	stub := func(conn net.Conn) {
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		enc, dec := NewEncTab(), &DecTab{}
		chunks := map[uint64]ops5.Seed{}
		resolve := func(id uint64) (ops5.Seed, bool) { s, ok := chunks[id]; return s, ok }
		var buf []byte
		for {
			typ, payload, err := readFrame(br, buf)
			if err != nil || typ == frameShutdown {
				return
			}
			buf = payload
			switch typ {
			case frameChunk:
				id, seed, err := DecodeChunk(dec, payload)
				if err != nil {
					t.Errorf("stub: chunk: %v", err)
					return
				}
				chunks[id] = seed
				continue
			case frameTaskV2:
			default:
				continue
			}
			m, _, err := DecodeTaskV2(dec, payload, resolve)
			if err != nil {
				t.Errorf("stub: task: %v", err)
				return
			}
			a := where[m.ID]
			task := rec.queues[a.queue][a.idx]
			mu.Lock()
			sent[m.ID] = inlineFrame(task, *m, &m.Spec)
			ref[m.ID] = inlineFrame(task, *m, fresh[m.ID])
			mu.Unlock()
			res := *rec.results[a.queue][a.idx]
			res.RunID, res.Seq = m.RunID, m.Seq
			if _, err := writeFrame(bw, frameResult, EncodeResultV2(enc, &res)); err != nil || bw.Flush() != nil {
				return
			}
		}
	}
	go stub(dialWorker(t, co, 1))
	go stub(dialWorker(t, co, 2))
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
	mu.Lock()
	defer mu.Unlock()
	if len(sent) != len(all) {
		t.Fatalf("%d task frames for %d tasks", len(sent), len(all))
	}
	for _, task := range all {
		if !bytes.Equal(sent[task.ID], ref[task.ID]) {
			t.Errorf("%s: the shipped frame differs from the frame of its fresh rows", task.ID)
		}
	}
	for _, ws := range co.Stats().PerWorker {
		if ws.Tasks == 0 {
			t.Errorf("slot %d ran nothing: one feeder wired the round", ws.Slot)
		}
	}
}

// wireRecorder runs queues on a coordinator and keeps, per task, the
// seed rows its Wire gave, copied into fresh memory as they were wired.
type wireRecorder struct {
	inner tlp.BoundQueue
	mu    sync.Mutex
	seeds map[string][]ops5.Seed
}

func (r *wireRecorder) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	own := make([]*tlp.Task, len(tasks))
	for i, task := range tasks {
		t := *task
		t.Wire = func() (*tlp.WireSpec, error) {
			spec, err := task.Wire()
			if err == nil {
				r.mu.Lock()
				r.seeds[task.ID] = freshSpec(spec).Seeds
				r.mu.Unlock()
			}
			return spec, err
		}
		own[i] = &t
	}
	return r.inner.RunTasks(ctx, own)
}

// TestDifferentialWorkerTaskRecycling holds a worker's recycled task
// storage to the rows the coordinator wired. A worker of two task
// processes, kept a full window ahead, decodes every task frame of a DC
// interpretation with re-entry into storage a finished task released:
// when each task starts, its decoded seeds still equal the rows wired
// for it, however many frames were decoded while it sat in the queue;
// every output and phase report equals the in-process run's; and the
// storage was reused. A task's storage released before its result
// frame is encoded is overwritten by a later frame while its engine
// runs on it, and fails this (or the race detector, under make oracle).
func TestDifferentialWorkerTaskRecycling(t *testing.T) {
	p := airportParams("DC")
	d, err := spam.NewDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := spam.NewDataset(p) // the worker's own copy
	if err != nil {
		t.Fatal(err)
	}
	co := listenBare(t, Config{Workers: 1, LocalWorkers: 2})
	w := newWorker(dialWorker(t, co, 1))
	w.datasets[wd.Name] = wd
	rec := &wireRecorder{seeds: map[string][]ops5.Seed{}}
	var (
		mu             sync.Mutex
		started, stale int
		maxQueued      int
		storage        = map[*TaskMsg]bool{}
	)
	w.onStart = func(m *TaskMsg, queued int) {
		rec.mu.Lock()
		want, ok := rec.seeds[m.ID]
		rec.mu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		started++
		maxQueued = max(maxQueued, queued)
		storage[m] = true
		if !ok || !reflect.DeepEqual(m.Spec.Seeds, want) {
			stale++
			if stale <= 3 {
				t.Errorf("task %s starts on seeds other than those wired for it", m.ID)
			}
		}
	}
	served := make(chan error, 1)
	go func() { served <- w.serve() }()

	opt := spam.InterpretOptions{Workers: 2, ReEntry: true}
	local, err := d.Interpret(opt)
	if err != nil {
		t.Fatal(err)
	}
	remoteOpt := opt
	rec.inner = NewRunner(co, opt)
	remoteOpt.Runner = rec
	// A result frame encoded from overwritten storage can name another
	// task, and its own run would then wait for it for ever.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	remote, err := d.InterpretContext(ctx, remoteOpt)
	if ctx.Err() != nil {
		t.Fatalf("the run did not finish in a minute: a result went missing (%v)", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !spam.SameOutputs(local, remote) {
		t.Error("outputs over recycled worker storage differ from the in-process run's")
	}
	if lf, rf := phaseFingerprint(local), phaseFingerprint(remote); lf != rf {
		t.Errorf("phase statistics differ:\nlocal:\n%s\ncluster:\n%s", lf, rf)
	}
	window := co.cfg.shipWindow
	peak := co.Stats().PerWorker[0].PeakInFlight
	co.Close()
	if err := <-served; err != nil {
		t.Fatalf("worker: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Logf("%d tasks started on %d task storages; queue up to %d deep; peak %d in flight of %d", started, len(storage), maxQueued, peak, window)
	if peak != window || maxQueued < window/2 {
		t.Errorf("peak %d in flight, queue up to %d deep: the window of %d was never full", peak, maxQueued, window)
	}
	if len(storage) > window+w.init.LocalWorkers || len(storage) >= started {
		t.Errorf("%d task storages for %d tasks: the worker did not recycle them", len(storage), started)
	}
}
