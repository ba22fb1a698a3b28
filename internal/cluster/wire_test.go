package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"spampsm/internal/faults"
	"spampsm/internal/ops5"
	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/symtab"
	"spampsm/internal/tlp"
	"spampsm/internal/wm"
)

// keepOf is the keep rule a worker of d applies to the rows of spec's
// result frame.
func keepOf(d *spam.Dataset, spec *tlp.WireSpec) func(*wm.WME) bool {
	_, keep, err := d.WireBuild(spec)
	if err != nil {
		panic(err)
	}
	return keep
}

// snapRows is a worker task's snapshot in fresh memory.
func snapRows(rows tlp.Rows, classes []string, keep func(*wm.WME) bool) []SnapClass {
	var s snapshot
	s.take(rows, classes, keep)
	return s.classes
}

// corpusQueue builds real tasks from the three airports' RTF queues
// plus DC's full LCC/FA/model pipeline — every wire-spec phase the
// coordinator actually ships — and returns them with their datasets.
func corpusQueue(t testing.TB) ([]*tlp.Task, map[string]*spam.Dataset) {
	t.Helper()
	var queue []*tlp.Task
	datasets := map[string]*spam.Dataset{}
	pipeline := func(name string, d *spam.Dataset) {
		datasets[name] = d
		rtf := spam.BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 3, false)
		queue = append(queue, rtf...)
		if name != "DC" {
			return
		}
		pool := &tlp.Pool{Workers: 2}
		rtfResults, err := pool.Run(rtf)
		if err != nil {
			t.Fatalf("%s: rtf: %v", name, err)
		}
		frags := spam.ExtractFragments(rtfResults)
		lcc := spam.BuildLCCTasks(d.KB, d.Store, d.Progs.LCC, frags, spam.Level3, false)
		queue = append(queue, lcc...)
		lccResults, err := pool.Run(lcc)
		if err != nil {
			t.Fatalf("%s: lcc: %v", name, err)
		}
		pairs, outs := spam.ExtractLCC(lccResults)
		fa := spam.BuildFATasks(d.KB, d.Store, d.Progs.FA, frags, pairs, outs)
		queue = append(queue, fa...)
		faResults, err := pool.Run(fa)
		if err != nil {
			t.Fatalf("%s: fa: %v", name, err)
		}
		fas, _ := spam.ExtractFA(faResults)
		queue = append(queue, spam.BuildMODELTask(d.KB, d.Store, d.Progs.Model, frags, fas))
	}
	for _, name := range []string{"SF", "DC", "MOFF"} {
		d, err := spam.NewDataset(airportParams(name))
		if err != nil {
			t.Fatalf("%s: dataset: %v", name, err)
		}
		pipeline(name, d)
	}
	return queue, datasets
}

// corpusTasks wraps corpusQueue's tasks as the messages that ship them.
func corpusTasks(t testing.TB) []*TaskMsg {
	t.Helper()
	queue, _ := corpusQueue(t)
	cfg := tlp.RunConfig{
		FiringBudget: 120000, MaxRetries: 2,
		TaskTimeout: 250 * time.Millisecond, RetryBackoff: time.Millisecond,
	}
	var out []*TaskMsg
	for i, task := range queue {
		if task.Wire == nil {
			t.Fatalf("task %s has no wire spec", task.ID)
		}
		spec, err := task.Wire()
		if err != nil {
			t.Fatalf("task %s: wire: %v", task.ID, err)
		}
		out = append(out, &TaskMsg{
			RunID: uint64(i + 1), Seq: i, StartAttempt: 1 + i%3,
			ID: task.ID, Label: task.Label, Group: task.Group,
			Config: cfg, Spec: *spec,
		})
	}
	if len(out) == 0 {
		t.Fatal("empty wire corpus")
	}
	return out
}

func sampleResults() []*ResultMsg {
	return []*ResultMsg{
		{RunID: 3, Seq: 9, TaskID: "rtf-004", Worker: 1, Attempts: 2,
			Stats: ops5.RunStats{Firings: 41, Cycles: 44, RHSActions: 90,
				MatchInstr: 1234.5, ResolveInstr: 17, ActInstr: 90, InitInstr: 400, Halted: true},
			HasLog: true,
			Mem: ops5.MemStats{SeedWMEs: 12, SeedBytes: 480,
				PeakWMEs: 60, PeakTokens: 140, PeakBytes: 9000},
			ArenaSlabs: 23, ArenaBytes: 71296,
			Snapshot: []SnapClass{{Name: "fragment", Attrs: []string{"id", "kind", "score"},
				Rows: [][]symtab.Value{
					{symtab.Sym("f1"), symtab.Sym("runway"), symtab.Float(0.9)},
					{symtab.Int(2), symtab.Nil, symtab.Float(-1.25)},
				}}},
		},
		{RunID: 1, Seq: 0, TaskID: "lcc-000", Attempts: 3, Quarantined: true,
			Err: &WireError{Msg: "tlp: task lcc-000: injected build failure", Marks: tlp.MarkInjected},
			AttemptErrs: []WireError{
				{Msg: "tlp: task lcc-000: worker crash", Marks: tlp.MarkCrash | tlp.MarkInjected},
				{Msg: "tlp: task lcc-000: injected build failure", Marks: tlp.MarkInjected},
			},
		},
		{RunID: 2, Seq: 5, TaskID: "fa-001", Attempts: 1, Cancelled: true,
			Err: &WireError{Msg: "tlp: task fa-001: cancelled", Marks: tlp.MarkCancelled}},
	}
}

// TestWireBuildMatchesLocalBuild pins the one-derivation property from
// outside spam, for every phase: the engine a worker rebuilds from a
// task's wire spec (Dataset.WireBuild) and the engine the task builds
// locally run to the same statistics and the same extracted WMEs.
func TestWireBuildMatchesLocalBuild(t *testing.T) {
	queue, datasets := corpusQueue(t)
	phases := map[string]int{}
	for _, task := range queue {
		spec, err := task.Wire()
		if err != nil {
			t.Fatalf("task %s: wire: %v", task.ID, err)
		}
		phases[spec.Phase]++
		rebuild, _, err := datasets[spec.Dataset].WireBuild(spec)
		if err != nil {
			t.Fatalf("task %s: wire build: %v", task.ID, err)
		}
		shipped, err := rebuild(nil)
		if err != nil {
			t.Fatalf("task %s: rebuild: %v", task.ID, err)
		}
		local, err := task.BuildWith(nil)
		if err != nil {
			t.Fatalf("task %s: local build: %v", task.ID, err)
		}
		for _, e := range []*ops5.Engine{shipped, local} {
			if _, err := e.Run(0); err != nil {
				t.Fatalf("task %s: run: %v", task.ID, err)
			}
		}
		if shipped.Stats() != local.Stats() {
			t.Errorf("task %s: run stats differ:\nshipped: %+v\nlocal:   %+v", task.ID, shipped.Stats(), local.Stats())
		}
		// Every extracted row, not only those a result frame keeps: the
		// two engines must agree on the rows the keep rule drops too.
		if s, l := snapRows(shipped, spec.Extract, nil), snapRows(local, spec.Extract, nil); !reflect.DeepEqual(s, l) {
			t.Errorf("task %s: extracted WMEs differ:\nshipped: %+v\nlocal:   %+v", task.ID, s, l)
		}
	}
	for _, ph := range []string{"rtf", "lcc", "fa", "model"} {
		if phases[ph] == 0 {
			t.Errorf("corpus has no %s task", ph)
		}
	}
}

// outputWireRunner runs every queue serially on engines that own their
// memory and, per task, holds the output its Read gives on the live
// engine to the output it gives on the rows a worker would ship of the
// engine, encoded into a result frame and decoded as the coordinator
// decodes it — over one codec table pair and one set of class
// definitions, like a connection — and decoded a second time, into one
// resultReader's reused buffers in stream order, as the coordinator's
// reader decodes it.
type outputWireRunner struct {
	t         *testing.T
	d         *spam.Dataset
	enc       *EncTab
	dec       *DecTab
	rows      *frameRows
	reuse     resultReader
	reuseDec  *DecTab
	reuseRows *frameRows
	prev      string              // the last task read through the reused buffers
	prevOut   any                 // what it read there
	prevWant  any                 // what it read on its fresh decode
	defAttrs  map[string][]string // reuseRows' cached definitions' attributes, as they were cached
	phases    map[string]int
	reread    int // re-entry tasks
}

func (r *outputWireRunner) RunTasks(ctx context.Context, tasks []*tlp.Task) ([]*tlp.Result, error) {
	results := make([]*tlp.Result, len(tasks))
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
		live := task.Read(e)
		frame := EncodeResultV2(r.enc, &ResultMsg{Attempts: 1, Stats: e.Stats(), Snapshot: snapRows(e, spec.Extract, keepOf(r.d, spec))})
		m, err := DecodeResultV2(r.dec, frame)
		if err != nil {
			return nil, err
		}
		shipped, err := r.rows.read(task.Read, m.Snapshot)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(live, shipped) {
			r.t.Errorf("task %s: output read from the live engine\n%+v\nfrom its result frame\n%+v", task.ID, live, shipped)
		}
		reused, err := r.reuse.decode(r.reuseDec, frame)
		if err != nil {
			return nil, err
		}
		// The frame just landed on the last one's buffers: what the last
		// task read there must not have changed with them.
		if r.prev != "" && !reflect.DeepEqual(r.prevOut, r.prevWant) {
			r.t.Errorf("task %s: its output changed when the next frame was decoded into the reused buffers\n%+v\nwant\n%+v", r.prev, r.prevOut, r.prevWant)
		}
		for name, def := range r.reuseRows.defs {
			if !slices.Equal(def.Attrs, r.defAttrs[name]) {
				r.t.Errorf("task %s: the cached definition of %s changed when the frame was decoded into the reused buffers: %v, cached as %v", task.ID, name, def.Attrs, r.defAttrs[name])
			}
		}
		got, err := r.reuseRows.read(task.Read, reused.Snapshot)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(got, shipped) {
			r.t.Errorf("task %s: output read from the reused buffers\n%+v\nfrom a fresh decode\n%+v", task.ID, got, shipped)
		}
		r.prev, r.prevOut, r.prevWant = task.ID, got, shipped
		for name, def := range r.reuseRows.defs {
			r.defAttrs[name] = slices.Clone(def.Attrs)
		}
		r.phases[spec.Phase]++
		if strings.HasPrefix(task.ID, "lccr") {
			r.reread++
		}
		results[i] = &tlp.Result{TaskID: task.ID, SeqInQ: i, Attempts: 1, Stats: e.Stats(), Log: e.Log(), Output: live}
	}
	return results, nil
}

// TestDifferentialTaskOutputWire: for every task of a DC interpretation
// with re-entry, in all four phases, the task's Read gives the same
// output on its live engine as on its encoded and decoded result frame
// — the wire ships every class a phase's read reads (WireSpec.Extract).
// It gives that output too on the frame decoded in stream order into
// one reader's reused message and value slice, and still gives it after
// the next frame is decoded over them: no phase's read keeps a value
// slice the coordinator's reader will overwrite, and no class definition
// the reader's frameRows caches changes with them.
func TestDifferentialTaskOutputWire(t *testing.T) {
	d, err := spam.NewDataset(scene.DC)
	if err != nil {
		t.Fatal(err)
	}
	r := &outputWireRunner{t: t, d: d, enc: NewEncTab(), dec: &DecTab{}, rows: &frameRows{defs: map[string]*wm.ClassDef{}},
		reuseDec: &DecTab{}, reuseRows: &frameRows{defs: map[string]*wm.ClassDef{}}, defAttrs: map[string][]string{}, phases: map[string]int{}}
	in, err := d.Interpret(spam.InterpretOptions{ReEntry: true, Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{"rtf", "lcc", "fa", "model"} {
		if r.phases[ph] == 0 {
			t.Errorf("no %s task ran", ph)
		}
	}
	if r.reread == 0 || !in.ModelFound || len(in.Pairs) == 0 {
		t.Errorf("%d re-entry tasks, %d pairs, model found %v: the run is too small to mean anything", r.reread, len(in.Pairs), in.ModelFound)
	}
}

// chunkRefsFor models the coordinator's chunk plan for one task in
// isolation: every shared (digest-carrying) seed becomes a chunk,
// assigning ids in seed order from the given table.
func chunkRefsFor(m *TaskMsg, resident map[string]uint64, next *uint64) ([]int64, []uint64, []ops5.Seed) {
	refs := make([]int64, len(m.Spec.Seeds))
	var newIDs []uint64
	var newSeeds []ops5.Seed
	for i, s := range m.Spec.Seeds {
		refs[i] = -1
		if s.Digest == "" {
			continue
		}
		id, ok := resident[s.Digest]
		if !ok {
			id = *next
			*next++
			resident[s.Digest] = id
			newIDs = append(newIDs, id)
			newSeeds = append(newSeeds, s)
		}
		refs[i] = int64(id)
	}
	return refs, newIDs, newSeeds
}

// taskMsgDiff names the first field of a task message that got does
// not carry as want does, or returns "". Every exported field counts,
// the spec's one by one: they are what a task frame encodes. A spec's
// unexported fields are its pool's state (its value slab, whether it
// is recycled), which no frame carries.
func taskMsgDiff(want, got *TaskMsg) string {
	fields := func(w, g reflect.Value, prefix string) string {
		for i := 0; i < w.NumField(); i++ {
			f := w.Type().Field(i)
			if f.IsExported() && f.Name != "Spec" && !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
				return prefix + f.Name
			}
		}
		return ""
	}
	if f := fields(reflect.ValueOf(*want), reflect.ValueOf(*got), ""); f != "" {
		return f
	}
	return fields(reflect.ValueOf(want.Spec), reflect.ValueOf(got.Spec), "Spec.")
}

// TestWireRoundTripTasksV2 checks structural identity —
// decode(encode(m)) == m — over the real airport task corpus and
// representative results: every task both fully inline and with
// its shared seeds resolved through chunk frames, sharing one intern
// table pair across the whole stream — exactly one connection's
// lifetime. The v2 result codec's dropped TaskID is covered too.
func TestWireRoundTripTasksV2(t *testing.T) {
	enc, dec := NewEncTab(), &DecTab{}
	for _, m := range corpusTasks(t) {
		got, refs, err := DecodeTaskV2(dec, EncodeTaskV2(enc, m, nil), func(uint64) (ops5.Seed, bool) {
			return ops5.Seed{}, false
		})
		if err != nil {
			t.Fatalf("task %s: inline decode: %v", m.ID, err)
		}
		if f := taskMsgDiff(m, got); f != "" {
			t.Errorf("task %s: inline round trip changed %s:\nin:  %+v\nout: %+v", m.ID, f, m, got)
		}
		for _, r := range refs {
			if r != -1 {
				t.Fatalf("task %s: inline frame decoded chunk ref %d", m.ID, r)
			}
		}
	}

	encC, decC := NewEncTab(), &DecTab{}
	resident := map[string]uint64{}
	workerChunks := map[uint64]ops5.Seed{}
	var next uint64
	for _, m := range corpusTasks(t) {
		refs, newIDs, newSeeds := chunkRefsFor(m, resident, &next)
		for i, id := range newIDs {
			gotID, seed, err := DecodeChunk(decC, EncodeChunk(encC, id, newSeeds[i]))
			if err != nil {
				t.Fatalf("chunk %d: decode: %v", id, err)
			}
			if gotID != id || !reflect.DeepEqual(seed, newSeeds[i]) {
				t.Fatalf("chunk %d: round trip changed chunk: got id %d seed %+v", id, gotID, seed)
			}
			workerChunks[gotID] = seed
		}
		got, gotRefs, err := DecodeTaskV2(decC, EncodeTaskV2(encC, m, refs), func(id uint64) (ops5.Seed, bool) {
			s, ok := workerChunks[id]
			return s, ok
		})
		if err != nil {
			t.Fatalf("task %s: chunked decode: %v", m.ID, err)
		}
		if f := taskMsgDiff(m, got); f != "" {
			t.Errorf("task %s: chunked round trip changed %s:\nin:  %+v\nout: %+v", m.ID, f, m, got)
		}
		if !reflect.DeepEqual(refs, gotRefs) {
			t.Errorf("task %s: refs changed: in %v out %v", m.ID, refs, gotRefs)
		}
	}

	// Every RunConfig field crosses the wire; a frame with a byte too
	// many or too few is refused.
	full, trailing, truncated := configFrames(t)
	m, _, err := DecodeTaskV2(&DecTab{}, full, fuzzResolve)
	if err != nil {
		t.Fatalf("full-config frame: %v", err)
	}
	if m.Config.FiringBudget != 120000 || m.Config.Faults.PermanentFraction != 0.75 || m.Config.Faults.Seed != 42 {
		t.Errorf("RunConfig changed on the wire: %+v", m.Config)
	}
	if !bytes.Equal(full, EncodeTaskV2(NewEncTab(), m, nil)) {
		t.Error("full-config frame does not re-encode to itself")
	}
	for name, frame := range map[string][]byte{"trailing": trailing, "truncated": truncated} {
		if _, _, err := DecodeTaskV2(&DecTab{}, frame, fuzzResolve); err == nil {
			t.Errorf("decoder accepted a %s frame", name)
		}
	}

	encR, decR := NewEncTab(), &DecTab{}
	for _, r := range sampleResults() {
		got, err := DecodeResultV2(decR, EncodeResultV2(encR, r))
		if err != nil {
			t.Fatalf("result %s: decode: %v", r.TaskID, err)
		}
		want := *r
		want.TaskID = "" // v2 result frames carry no task ID
		if !reflect.DeepEqual(&want, got) {
			t.Errorf("result %s: round trip changed message:\nin:  %+v\nout: %+v", r.TaskID, &want, got)
		}
	}
}

// TestWireV2InternSharing pins the point of the stateful codec: the
// second frame carrying the same strings is strictly smaller than the
// first, and a reference never leaks across connections (fresh tables
// decode only their own stream).
func TestWireV2InternSharing(t *testing.T) {
	tasks := corpusTasks(t)
	m := tasks[0]
	enc := NewEncTab()
	first := EncodeTaskV2(enc, m, nil)
	second := EncodeTaskV2(enc, m, nil)
	if len(second) >= len(first) {
		t.Fatalf("repeat frame did not shrink: first %d bytes, second %d", len(first), len(second))
	}
	dec := &DecTab{}
	noResolve := func(uint64) (ops5.Seed, bool) { return ops5.Seed{}, false }
	if _, _, err := DecodeTaskV2(dec, first, noResolve); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	got, _, err := DecodeTaskV2(dec, second, noResolve)
	if err != nil {
		t.Fatalf("second frame: %v", err)
	}
	if f := taskMsgDiff(m, got); f != "" {
		t.Fatalf("second frame decoded a different %s:\nin:  %+v\nout: %+v", f, m, got)
	}
	// A fresh connection must reject the reference-bearing second frame.
	if _, _, err := DecodeTaskV2(&DecTab{}, second, noResolve); err == nil {
		t.Fatal("fresh table accepted a frame with dangling intern references")
	}
}

// configFrames returns one corpus task's frame under a RunConfig with
// no zero field, and two corruptions of it the decoder must refuse: a
// trailing byte, and the frame cut one byte short.
func configFrames(t testing.TB) (full, trailing, truncated []byte) {
	t.Helper()
	m := *corpusTasks(t)[0]
	m.Config = tlp.RunConfig{
		FiringBudget: 120000, MaxRetries: 2,
		TaskTimeout: 250 * time.Millisecond, RetryBackoff: time.Millisecond,
		Faults: faults.Config{Seed: 42, BuildFailRate: 0.125, PanicRate: 0.25, CrashRate: 0.5, PermanentFraction: 0.75},
	}
	full = EncodeTaskV2(NewEncTab(), &m, nil)
	return full, append(bytes.Clone(full), 0), full[:len(full)-1]
}

// fuzzResolve synthesizes a deterministic seed for any chunk id, so
// arbitrary fuzzed reference frames decode and re-encode stably.
func fuzzResolve(id uint64) (ops5.Seed, bool) {
	return ops5.Seed{Class: "chunk", Vals: []symtab.Value{symtab.Int(int64(id))}}, true
}

// FuzzWireRoundTrip fuzzes every binary codec with the invariant that
// any payload the decoder accepts re-encodes to the same bytes after a
// second decode (canonical-form fixed point — NaN-safe where DeepEqual
// is not). The first corpus byte selects the codec (0 and 1 were the
// deleted v1 task and result codecs); the codecs run against fresh
// intern tables per frame, so the invariant is the single-frame
// canonical form (cross-frame table state is pinned by
// TestWireV2InternSharing). Selector 6 is two result frames of one
// stream, the first prefixed with its length, decoded back to back into
// one resultReader's reused buffers: each must decode to what a fresh
// DecodeResultV2 beside it gives, the first before the second is
// decoded over it.
func FuzzWireRoundTrip(f *testing.F) {
	for _, m := range corpusTasks(f) {
		f.Add(append([]byte{2}, EncodeTaskV2(NewEncTab(), m, nil)...))
		// The same task redelivered after a worker death charged it.
		redelivered := *m
		redelivered.StartAttempt++
		f.Add(append([]byte{2}, EncodeTaskV2(NewEncTab(), &redelivered, nil)...))
		resident := map[string]uint64{}
		var next uint64
		refs, ids, seeds := chunkRefsFor(m, resident, &next)
		enc := NewEncTab()
		for i, id := range ids {
			f.Add(append([]byte{3}, EncodeChunk(NewEncTab(), id, seeds[i])...))
			EncodeChunk(enc, id, seeds[i]) // advance the table like a real stream
		}
		f.Add(append([]byte{2}, EncodeTaskV2(enc, m, refs)...))
	}
	for _, r := range sampleResults() {
		f.Add(append([]byte{5}, EncodeResultV2(NewEncTab(), r)...))
		// The same result from another executor of the worker process.
		other := *r
		other.Worker++
		f.Add(append([]byte{5}, EncodeResultV2(NewEncTab(), &other)...))
	}
	f.Add(append([]byte{4}, EncodeChunkFree([]uint64{0, 7, 130})...))
	// A frame from a process with another vocabulary: its symbol
	// literals, spliced in at equal length, are names this process has
	// never interned, so decoding is what interns them.
	foreign := EncodeResultV2(NewEncTab(), sampleResults()[0])
	foreign = bytes.ReplaceAll(foreign, []byte("runway"), []byte("rUnWaY"))
	f.Add(append([]byte{5}, bytes.ReplaceAll(foreign, []byte("f1"), []byte("F!"))...))
	// A task under a RunConfig with no zero field, then that frame with
	// a byte too many and a byte too few, which the decoder must refuse.
	full, trailing, truncated := configFrames(f)
	f.Add(append([]byte{2}, full...))
	f.Add(append([]byte{2}, trailing...))
	f.Add(append([]byte{2}, truncated...))
	// Result pairs: a large frame then a small one over its buffers, the
	// reverse, and one frame twice, the second time by reference only.
	results := sampleResults()
	for _, pair := range [][2]*ResultMsg{{results[0], results[1]}, {results[1], results[0]}, {results[0], results[0]}, {results[2], results[0]}} {
		enc := NewEncTab()
		first, second := EncodeResultV2(enc, pair[0]), EncodeResultV2(enc, pair[1])
		f.Add(append(binary.AppendUvarint([]byte{6}, uint64(len(first))), append(first, second...)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind, payload := data[0], data[1:]
		switch kind % 7 {
		case 2:
			m, refs, err := DecodeTaskV2(&DecTab{}, payload, fuzzResolve)
			if err != nil {
				return
			}
			enc := EncodeTaskV2(NewEncTab(), m, refs)
			m2, refs2, err := DecodeTaskV2(&DecTab{}, enc, fuzzResolve)
			if err != nil {
				t.Fatalf("re-decode rejected own encoding: %v", err)
			}
			if !bytes.Equal(enc, EncodeTaskV2(NewEncTab(), m2, refs2)) {
				t.Fatalf("task v2 encoding not canonical")
			}
		case 3:
			id, s, err := DecodeChunk(&DecTab{}, payload)
			if err != nil {
				return
			}
			enc := EncodeChunk(NewEncTab(), id, s)
			id2, s2, err := DecodeChunk(&DecTab{}, enc)
			if err != nil {
				t.Fatalf("re-decode rejected own encoding: %v", err)
			}
			if !bytes.Equal(enc, EncodeChunk(NewEncTab(), id2, s2)) {
				t.Fatalf("chunk encoding not canonical")
			}
		case 4:
			ids, err := DecodeChunkFree(payload)
			if err != nil {
				return
			}
			enc := EncodeChunkFree(ids)
			ids2, err := DecodeChunkFree(enc)
			if err != nil {
				t.Fatalf("re-decode rejected own encoding: %v", err)
			}
			if !bytes.Equal(enc, EncodeChunkFree(ids2)) {
				t.Fatalf("chunk-free encoding not canonical")
			}
		case 5:
			r, err := DecodeResultV2(&DecTab{}, payload)
			if err != nil {
				return
			}
			enc := EncodeResultV2(NewEncTab(), r)
			r2, err := DecodeResultV2(&DecTab{}, enc)
			if err != nil {
				t.Fatalf("re-decode rejected own encoding: %v", err)
			}
			if !bytes.Equal(enc, EncodeResultV2(NewEncTab(), r2)) {
				t.Fatalf("result v2 encoding not canonical")
			}
		case 6:
			n, k := binary.Uvarint(payload)
			if k <= 0 || n > uint64(len(payload)-k) {
				return
			}
			frames := [2][]byte{payload[k : k+int(n)], payload[k+int(n):]}
			var reused resultReader
			reuseTab, freshTab := &DecTab{}, &DecTab{}
			for i, frame := range frames {
				got, err := reused.decode(reuseTab, frame)
				want, wantErr := DecodeResultV2(freshTab, frame)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("frame %d: reused decode err %v, fresh decode err %v", i, err, wantErr)
				}
				if err != nil {
					return
				}
				if !bytes.Equal(EncodeResultV2(NewEncTab(), got), EncodeResultV2(NewEncTab(), want)) {
					t.Fatalf("frame %d decoded into reused buffers differs from its fresh decode", i)
				}
			}
		}
	})
}
