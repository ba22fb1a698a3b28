package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"

	"spampsm/internal/ops5"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// TestIsClosedConn: only the connection going away is a clean worker
// exit. The verdict follows the error chain, never the text — a decode
// failure whose message happens to mention EOF is still a failure.
func TestIsClosedConn(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{fmt.Errorf("read: %w", io.EOF), true},
		{fmt.Errorf("read: %w", io.ErrUnexpectedEOF), true},
		{fmt.Errorf("read: %w", net.ErrClosed), true},
		{fmt.Errorf("read: %w", &net.OpError{Op: "read", Err: syscall.ECONNRESET}), true},
		{errors.New("cluster: truncated or malformed string: unexpected EOF in payload"), false},
		{errors.New("cluster: dataset \"X\": connection reset by generator"), false},
		{fmt.Errorf("read: %w", syscall.EPIPE), false},
	}
	for _, tc := range cases {
		if got := isClosedConn(tc.err); got != tc.want {
			t.Errorf("isClosedConn(%q) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// shipped round-trips a task through the wire as the coordinator and a
// worker would — Wire, task frame, decode — and returns the engine the
// worker's WireBuild constructs from what arrived.
func shipped(t *testing.T, d *spam.Dataset, task *tlp.Task) *ops5.Engine {
	t.Helper()
	spec, err := task.Wire()
	if err != nil {
		t.Fatalf("task %s: wire: %v", task.ID, err)
	}
	frame := EncodeTaskV2(NewEncTab(), &TaskMsg{RunID: 1, StartAttempt: 1, ID: task.ID, Spec: *spec}, nil)
	m, _, err := DecodeTaskV2(&DecTab{}, frame, fuzzResolve)
	if err != nil {
		t.Fatalf("task %s: decode: %v", task.ID, err)
	}
	build, err := d.WireBuild(&m.Spec)
	if err != nil {
		t.Fatalf("task %s: wire build: %v", task.ID, err)
	}
	e, err := build(nil)
	if err != nil {
		t.Fatalf("task %s: build: %v", task.ID, err)
	}
	return e
}

// TestWorkerHonoursShippedBuildMode: the mode a task frame carries
// decides which engine the receiving process builds. The reference
// paths are observably identical to the production ones, so a worker
// that ignored the mode would pass every differential test; this one
// looks at the engine and the store instead.
func TestWorkerHonoursShippedBuildMode(t *testing.T) {
	d, err := spam.NewDataset(airportParams("DC"))
	if err != nil {
		t.Fatal(err)
	}
	rtf := func(mode tlp.BuildMode) *tlp.Task {
		return spam.BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 3, mode)[0]
	}
	if !shipped(t, d, rtf(tlp.BuildMode{})).DispatchedMatch() {
		t.Error("zero mode built a sweeping engine")
	}
	if shipped(t, d, rtf(tlp.BuildMode{NaiveMatch: true})).DispatchedMatch() {
		t.Error("a frame carrying NaiveMatch built a dispatching engine")
	}

	in, err := d.Interpret(spam.InterpretOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// geoLookups runs the first few LCC tasks as shipped under a mode
	// and returns how many predicate-memo lookups the store saw.
	geoLookups := func(mode tlp.BuildMode) (lookups int64, firings int) {
		tasks := spam.BuildLCCTasks(d.KB, d.Store, d.Progs.LCC, in.Fragments, spam.Level3, mode)
		before := d.Store.GeoStats()
		for _, task := range tasks[:min(8, len(tasks))] {
			e := shipped(t, d, task)
			if _, err := e.Run(0); err != nil {
				t.Fatalf("task %s: run: %v", task.ID, err)
			}
			firings += e.Stats().Firings
		}
		after := d.Store.GeoStats()
		return after.Hits + after.Misses - before.Hits - before.Misses, firings
	}
	memo, want := geoLookups(tlp.BuildMode{})
	if memo == 0 {
		t.Fatal("zero-mode LCC tasks made no memo lookups: the check below is vacuous")
	}
	ref, got := geoLookups(tlp.BuildMode{ReferenceGeo: true})
	if ref != 0 {
		t.Errorf("a frame carrying ReferenceGeo made %d predicate-memo lookups", ref)
	}
	if got != want {
		t.Errorf("reference-geometry tasks fired %d productions, memoised ones %d", got, want)
	}
}

// TestDifferentialClusterReferenceModes: a run on two worker processes
// with every reference bit set produces the outputs and per-phase
// statistics of the default run in this process.
func TestDifferentialClusterReferenceModes(t *testing.T) {
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
	local, err := d.Interpret(spam.InterpretOptions{Workers: 2, ReEntry: true})
	if err != nil {
		t.Fatalf("local interpret: %v", err)
	}
	opt := spam.InterpretOptions{ReEntry: true,
		Build: tlp.BuildMode{NaiveMatch: true, FreshCompile: true, ReferenceGeo: true}}
	opt.Runner = NewRunner(co, opt)
	remote, err := d.Interpret(opt)
	if err != nil {
		t.Fatalf("cluster interpret: %v", err)
	}
	if !spam.SameOutputs(local, remote) {
		t.Error("reference-mode cluster outputs differ from the default in-process run")
	}
	if lf, rf := phaseFingerprint(local), phaseFingerprint(remote); lf != rf {
		t.Errorf("phase statistics differ:\nlocal:\n%s\ncluster:\n%s", lf, rf)
	}
}
