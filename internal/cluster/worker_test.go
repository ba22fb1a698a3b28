package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"spampsm/internal/faults"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// pipedWorker is a real worker serving one end of a pipe; the test
// holds the other end and speaks the coordinator's side of the wire.
type pipedWorker struct {
	t      *testing.T
	w      *worker
	coord  net.Conn
	br     *bufio.Reader
	enc    *EncTab
	dec    *DecTab
	served chan error
}

// pipeWorker starts a worker with d registered and sends its handshake.
// onStart, when set, sees the pool's queue length at every task start.
func pipeWorker(t *testing.T, d *spam.Dataset, init InitMsg, onStart func(queued int)) *pipedWorker {
	t.Helper()
	coord, work := net.Pipe()
	p := &pipedWorker{t: t, w: newWorker(work), coord: coord, br: bufio.NewReader(coord),
		enc: NewEncTab(), dec: &DecTab{}, served: make(chan error, 1)}
	p.w.datasets[d.Name] = d
	p.w.onStart = onStart
	go func() { p.served <- p.w.serve() }()
	init.Magic, init.Version = Magic, Version
	if err := sendJSONFrame(coord, frameInit, init); err != nil {
		t.Fatalf("write init: %v", err)
	}
	return p
}

// send writes one task frame: the i-th of tasks, under cfg.
func (p *pipedWorker) send(tasks []*tlp.Task, i int, cfg tlp.RunConfig) {
	p.t.Helper()
	spec, err := tasks[i].Wire()
	if err != nil {
		p.t.Fatal(err)
	}
	m := &TaskMsg{RunID: 1, Seq: i, StartAttempt: 1, ID: tasks[i].ID, Config: cfg, Spec: *spec}
	if err := sendFrame(p.coord, frameTaskV2, EncodeTaskV2(p.enc, m, nil)); err != nil {
		p.t.Fatalf("write task %d: %v", i, err)
	}
}

// recv reads one result frame.
func (p *pipedWorker) recv() *ResultMsg {
	p.t.Helper()
	typ, payload, err := readFrame(p.br, nil)
	if err != nil || typ != frameResult {
		p.t.Fatalf("read result: frame type %d, %v", typ, err)
	}
	r, err := DecodeResultV2(p.dec, payload)
	if err != nil {
		p.t.Fatalf("decode result: %v", err)
	}
	return r
}

// wait returns what serve returned, failing the test if it still runs.
func (p *pipedWorker) wait(within time.Duration) error {
	p.t.Helper()
	select {
	case err := <-p.served:
		return err
	case <-time.After(within):
		p.t.Fatal("worker still serving")
		return nil
	}
}

// poolProcesses counts the goroutines running a tlp.Pool task process.
func poolProcesses() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "tlp.(*Pool).process(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestServeWorkerLeavesNoTaskProcesses: ServeWorker closes its pool
// on every way out, so none of the pool's task processes outlives it —
// after a run the coordinator ends with Shutdown, after a connection
// that drops while the worker is idle, and after one that drops with a
// task running and a queue behind it to cancel.
func TestServeWorkerLeavesNoTaskProcesses(t *testing.T) {
	d, err := spam.NewDataset(airportParams("DC"))
	if err != nil {
		t.Fatal(err)
	}
	tasks := tinyTasks(t, d, 9)
	slow := tlp.RunConfig{MaxRetries: 1, RetryBackoff: 20 * time.Second, Faults: faults.Config{Seed: 1, BuildFailRate: 1}}
	legs := []struct {
		name    string
		workers int
		drive   func(p *pipedWorker, started <-chan struct{})
	}{
		{"run then shutdown", 2, func(p *pipedWorker, _ <-chan struct{}) {
			for i := range 4 {
				p.send(tasks, i, tlp.RunConfig{})
			}
			for range 4 {
				p.recv()
			}
			// One write: the worker hangs up as soon as it has the header.
			bw := bufio.NewWriter(p.coord)
			writeFrame(bw, frameShutdown, nil)
			if err := bw.Flush(); err != nil {
				p.t.Fatalf("write shutdown: %v", err)
			}
		}},
		{"dropped connection", 2, func(p *pipedWorker, _ <-chan struct{}) {
			p.send(tasks, 0, tlp.RunConfig{})
			p.recv()
			p.coord.Close()
		}},
		{"cancelled queue", 1, func(p *pipedWorker, started <-chan struct{}) {
			p.send(tasks, 0, slow)
			<-started
			for i := 1; i < len(tasks); i++ {
				p.send(tasks, i, tlp.RunConfig{})
			}
			p.coord.Close()
		}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			before := poolProcesses()
			started := make(chan struct{}, len(tasks))
			p := pipeWorker(t, d, InitMsg{LocalWorkers: leg.workers}, func(int) { started <- struct{}{} })
			leg.drive(p, started)
			if err := p.wait(10 * time.Second); err != nil {
				t.Fatalf("worker: %v", err)
			}
			n := poolProcesses()
			for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = poolProcesses() {
				time.Sleep(time.Millisecond)
			}
			if n > before {
				t.Errorf("%d task processes alive after ServeWorker returned", n-before)
			}
		})
	}
}

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
