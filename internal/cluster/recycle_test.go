package cluster

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"slices"
	"sync"
	"testing"

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
	m.ID, m.Label, m.Group, m.EstSize, m.MemEst, m.Spec = t.ID, t.Label, t.Group, t.EstSize, t.MemEst, *spec
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
	rec := &roundRecorder{}
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
