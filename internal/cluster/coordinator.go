package cluster

import (
	"bufio"
	"container/list"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"spampsm/internal/ops5"
	"spampsm/internal/symtab"
	"spampsm/internal/tlp"
	"spampsm/internal/wm"
)

// Config configures a Coordinator.
type Config struct {
	// Workers is the number of worker processes to spawn (default 2).
	Workers int
	// LocalWorkers is each worker process's task processes, the size
	// of its tlp.Pool (default 1).
	LocalWorkers int
	// Network/Addr select the transport: "unix" (default, socket in a
	// private temp dir) or "tcp" with an explicit listen address —
	// multi-host is one flag away (see docs/CLUSTER.md).
	Network string
	Addr    string
	// The fields below are set only by this package's tests; their
	// zero values select the defaults.

	// shipWindow caps the tasks in flight to one worker process. Zero
	// means shipDepth per task process, the measured depth that keeps
	// one fed across a result→claim→ship round trip; the chaos tests
	// pin it to 1, where which task a death interrupts is
	// deterministic.
	shipWindow int
	// connectTimeout bounds how long Start waits for the spawned
	// workers to connect back (default 30s).
	connectTimeout time.Duration
	// exe is the worker executable (default: this binary, which flips
	// into worker mode through WorkerEnv — see MaybeWorker).
	exe string
}

// shipDepth is how many tasks per task process the coordinator keeps in
// flight to a worker process when Config.shipWindow is zero. A task
// lasts ≈0.25 ms and one result → deliver → claim → ship → decode round
// trip crosses three processes and four goroutine wake-ups (≈110–150 µs
// a task that a depth of 2 did not hide); docs/PERFORMANCE.md "The
// cluster round trip" has the sweeps this value is read from.
const shipDepth = 16

// chunkBudget bounds each worker's resident-chunk table in encoded
// bytes; the LRU tail is evicted past it.
const chunkBudget = 32 << 20

// respawnBudget bounds the replacement processes Start's coordinator
// spawns after connection losses: the bounded-restart discipline of
// the pool's retry budget lifted to processes.
const respawnBudget = 1

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.LocalWorkers < 1 {
		c.LocalWorkers = 1
	}
	if c.Network == "" {
		c.Network = "unix"
	}
	if c.shipWindow < 1 {
		c.shipWindow = shipDepth * c.LocalWorkers
	}
	if c.connectTimeout <= 0 {
		c.connectTimeout = 30 * time.Second
	}
	return c
}

// Stats is the coordinator's cumulative accounting.
type Stats struct {
	Workers         int   // configured worker processes
	WireVersion     int   // protocol version spoken to workers
	TasksShipped    int   // task frames sent (including re-ships)
	TasksCompleted  int   // results merged (including synthesized)
	ShippedBytes    int64 // task + chunk + result frame bytes on the wire
	ResultBytes     int64 // result-frame share of ShippedBytes
	ChunksShipped   int   // chunk frames sent
	ChunkBytes      int64 // chunk-frame share of ShippedBytes
	ChunkHits       int64 // seed refs resolved against resident chunks
	ChunkSavedBytes int64 // encoded seed bytes the hits avoided re-shipping
	Evictions       int   // chunks dropped under the resident-chunk budget
	// ContinuationTasks and Continuations are always 0: every task
	// reaches a worker through the shard queue. They stay only because
	// the benchmark module's cluster.continuation_share compiles against
	// them.
	ContinuationTasks int
	Continuations     int
	Steals            int // tasks claimed from another shard's deque
	Requeued          int // in-flight tasks recovered from dead workers
	// Uncharged is the share of Requeued a death cannot have
	// interrupted — shipped behind the tasks the worker can have started
	// — which requeue without a charged attempt.
	Uncharged    int
	WorkerDeaths int // connections lost mid-run
	Respawns     int // replacement processes spawned
	// PerWorker breaks shipping down by worker slot. Stragglers that
	// outlive a respawn share slot 0's row, like its shard.
	PerWorker []WorkerStats
}

// WorkerStats is one worker slot's share of the accounting.
type WorkerStats struct {
	Slot           int
	Tasks          int   // results merged from this slot
	ShippedBytes   int64 // task + chunk + result bytes through this slot
	Steals         int
	PeakInFlight   int // most tasks in flight on the slot's connection at once
	ChunkHits      int64
	ResidentChunks int   // resident-chunk table size after the last ship
	ResidentBytes  int64 // its encoded-byte footprint
	Evictions      int
	// ArenaSlabs/ArenaBytes are the match arenas the slot's worker
	// process held after the last task it reported (ResultMsg).
	ArenaSlabs int
	ArenaBytes int64
}

// task states within a run.
const (
	statePending = iota
	stateInflight
	stateDone
)

// run is one Submit invocation in flight: the ordered queue, its
// shard deques, and the merge state. Several runs can be active at
// once (the serving path); workers drain them in creation order.
type run struct {
	id    uint64
	cfg   tlp.RunConfig
	tasks []*tlp.Task
	state []uint8
	// startAttempt is the global attempt number the task's next
	// delivery resumes from; it advances when a worker dies holding
	// the task, charging the loss against the task's retry budget.
	startAttempt []int
	// priorErrs accumulates the process-loss errors charged to a task
	// before its final result, prepended to the result's AttemptErrs
	// so RunReport sees the full attempt history.
	priorErrs [][]error
	shipBytes []int
	results   []*tlp.Result
	remaining int
	shards    [][]int // per-slot pending deques of queue indices
	overflow  []int   // requeued work, served before shard work
	failed    error
	cancelled bool
	// wiring counts the run's claimed tasks whose Wire is running on a
	// feeder. Submit does not return while it is above 0: a Wire reads
	// state its caller may change once Submit has returned.
	wiring int
}

// chunkTable is the coordinator's model of one worker's resident
// chunks. Guarded by co.mu.
type chunkTable struct {
	next uint64 // next chunk id to assign
	tick uint64 // ship generation, pins this ship's chunks against eviction
	// A chunk is its seed's content (byDigest). byVec finds it by the
	// address of a value vector that holds that content: a shared seed's
	// vector is built once and never changes (ops5.Seed), and the key
	// keeps it alive, so a ship hashes a digest only for a vector it has
	// not met. Equal content has one vector per program and store that
	// built it, so an entry is keyed under each vector met. A hit still
	// compares the digest (one pointer compare for the seed's own
	// string), so a vector reused for other content costs a lookup, never
	// a wrong chunk.
	byVec    map[*symtab.Value]*chunkEntry
	byDigest map[string]*chunkEntry
	lru      *list.List // front = most recently shipped/referenced
	bytes    int64      // resident encoded bytes
}

type chunkEntry struct {
	id     uint64
	vecs   []*symtab.Value // its keys in byVec
	digest string
	size   int64 // the seed's canonical stateless encoding (appendSeed)
	tick   uint64
	elem   *list.Element
}

// newChunk is a chunk a ship adds to a worker's table: its frame
// precedes the task frame that first references it.
type newChunk struct {
	id   uint64
	seed ops5.Seed
}

func newChunkTable() *chunkTable {
	return &chunkTable{byVec: map[*symtab.Value]*chunkEntry{}, byDigest: map[string]*chunkEntry{}, lru: list.New()}
}

// vecOf is the address of a seed's value vector, nil for an empty one.
func vecOf(s ops5.Seed) *symtab.Value {
	if len(s.Vals) == 0 {
		return nil
	}
	return &s.Vals[0]
}

type flightKey struct {
	runID uint64
	seq   int
}

// flight is one task in flight on a connection: its run, and its
// 1-based place in the connection's ship order — the order its frames
// were written in, which is the order the worker's pool starts them
// in — or 0 while the task is claimed and its frame is not yet
// written.
type flight struct {
	rn      *run
	shipped uint64
}

// wconn is one live worker connection.
type wconn struct {
	c        net.Conn
	bw       *bufio.Writer
	writeMu  sync.Mutex
	slot     int
	dead     bool
	inflight map[flightKey]flight
	shipSeq  uint64 // task frames written: the last flight.shipped handed out
	// room is what the connection's feeder waits on (its L is co.mu):
	// it is signalled when a result frees a slot of this connection's
	// window, and broadcast with every connection's when work becomes
	// claimable for all (a new run, a requeue) and when the connection
	// dies or the coordinator closes.
	room *sync.Cond
	// chunks is the resident-chunk model and ws the worker's slot row
	// in the coordinator's per-worker stats. Both guarded by co.mu; enc
	// — the coordinator→worker intern table — is guarded by writeMu
	// like the stream it mirrors.
	chunks *chunkTable
	enc    *EncTab
	ws     *WorkerStats
	// buf, refs and fresh are one ship's scratch, reused by the next:
	// the frame being encoded, the task's seed refs and the chunks it
	// adds. Guarded by writeMu.
	buf   []byte
	refs  []int64
	fresh []newChunk
}

// hangUp ends a connection whose write failed without discarding what
// the worker already sent: only the write half closes, so the reader
// still merges every result the worker flushed before it sees the end
// of the stream and runs workerLost — whose charge rule counts on the
// unmerged tasks being the unfinished ones. A live worker reads the
// end of its stream and leaves; a dead one's stream has ended already.
func (w *wconn) hangUp() {
	if hc, ok := w.c.(interface{ CloseWrite() error }); ok && hc.CloseWrite() == nil {
		return
	}
	w.c.Close()
}

type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

// Coordinator shards task queues across worker processes. Create with
// Start, submit with Submit (any number of concurrent runs), and
// release the processes with Close.
type Coordinator struct {
	cfg  Config
	addr string
	ln   net.Listener
	dir  string // private socket dir (unix transport)

	mu sync.Mutex
	// cond is what waitConnected and every Submit wait on: it is
	// broadcast when a worker connects or a spawn fails, when a run
	// completes, fails or is cancelled or its last Wire ends, when a
	// worker is lost and when the coordinator closes. Feeders wait on
	// their own connection's condition (wconn.room).
	cond          *sync.Cond
	conns         []*wconn
	slots         []*wconn
	datasets      []DatasetSpec
	dsNames       map[string]bool
	runs          []*run
	runSeq        uint64
	respawnsLeft  int
	pendingSpawns int
	spawnFailed   error
	closed        bool
	stats         Stats
	perWorker     []WorkerStats
	// chunkBudget is the chunkBudget constant, lowered only by a test
	// that forces eviction.
	chunkBudget int64

	procMu sync.Mutex
	procs  []*proc
}

var _ tlp.Queue = (*Coordinator)(nil)

// Start listens, spawns the worker processes, and waits for all of
// them to connect. A process lost later is replaced within
// respawnBudget.
func Start(cfg Config) (*Coordinator, error) {
	co, err := listen(cfg)
	if err != nil {
		return nil, err
	}
	co.mu.Lock()
	co.respawnsLeft = respawnBudget
	co.mu.Unlock()
	for i := 0; i < co.cfg.Workers; i++ {
		if err := co.spawn(); err != nil {
			co.Close()
			return nil, err
		}
	}
	if err := co.waitConnected(co.cfg.Workers, co.cfg.connectTimeout); err != nil {
		co.Close()
		return nil, err
	}
	return co, nil
}

// listen is Start without the processes: a coordinator accepting on
// its address, every slot empty. Whoever dials Addr becomes a worker —
// Start's spawned processes, or a test's in-process ones. It respawns
// nothing: it has no process of its own to replace.
func listen(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:         cfg,
		dsNames:     map[string]bool{},
		slots:       make([]*wconn, cfg.Workers),
		perWorker:   make([]WorkerStats, cfg.Workers),
		runSeq:      1,
		chunkBudget: chunkBudget,
	}
	co.cond = sync.NewCond(&co.mu)
	co.stats.Workers = cfg.Workers
	co.stats.WireVersion = Version
	for i := range co.perWorker {
		co.perWorker[i].Slot = i
	}

	addr := cfg.Addr
	if cfg.Network == "unix" && addr == "" {
		dir, err := os.MkdirTemp("", "spamclu")
		if err != nil {
			return nil, fmt.Errorf("cluster: socket dir: %w", err)
		}
		co.dir = dir
		addr = filepath.Join(dir, "coord.sock")
	}
	ln, err := net.Listen(cfg.Network, addr)
	if err != nil {
		co.cleanupDir()
		return nil, fmt.Errorf("cluster: listen %s %s: %w", cfg.Network, addr, err)
	}
	co.ln = ln
	co.addr = ln.Addr().String()
	go co.acceptLoop()
	return co, nil
}

func (co *Coordinator) cleanupDir() {
	if co.dir != "" {
		os.RemoveAll(co.dir)
	}
}

// Addr returns the coordinator's listen address (workers on other
// hosts dial it when the transport is tcp).
func (co *Coordinator) Addr() string { return co.addr }

// Stats returns a snapshot of the coordinator's accounting.
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	s := co.stats
	s.PerWorker = append([]WorkerStats(nil), co.perWorker...)
	return s
}

// waitConnected blocks until n workers are live (or a spawn failed,
// or the deadline passes).
func (co *Coordinator) waitConnected(n int, timeout time.Duration) error {
	deadline := time.AfterFunc(timeout, func() {
		co.mu.Lock()
		if co.spawnFailed == nil && len(co.conns) < n {
			co.spawnFailed = fmt.Errorf("cluster: %d/%d workers connected before timeout", len(co.conns), n)
		}
		co.cond.Broadcast()
		co.mu.Unlock()
	})
	defer deadline.Stop()
	co.mu.Lock()
	defer co.mu.Unlock()
	for len(co.conns) < n && co.spawnFailed == nil && !co.closed {
		co.cond.Wait()
	}
	return co.spawnFailed
}

// spawn launches one worker process pointed back at the listener.
func (co *Coordinator) spawn() error {
	exe := co.cfg.exe
	if exe == "" {
		var err error
		exe, err = os.Executable()
		if err != nil {
			return fmt.Errorf("cluster: worker executable: %w", err)
		}
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), WorkerEnv+"="+co.cfg.Network+"|"+co.addr)
	cmd.Stderr = os.Stderr
	co.mu.Lock()
	co.pendingSpawns++
	co.mu.Unlock()
	if err := cmd.Start(); err != nil {
		co.mu.Lock()
		co.pendingSpawns--
		co.spawnFailed = fmt.Errorf("cluster: spawn worker: %w", err)
		co.cond.Broadcast()
		co.mu.Unlock()
		return co.spawnFailed
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	co.procMu.Lock()
	co.procs = append(co.procs, p)
	co.procMu.Unlock()
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	return nil
}

func (co *Coordinator) acceptLoop() {
	for {
		c, err := co.ln.Accept()
		if err != nil {
			return
		}
		go co.register(c)
	}
}

// register handshakes a fresh worker connection: Init, dataset
// replay, slot assignment, then the reader and feeder goroutines.
func (co *Coordinator) register(c net.Conn) {
	w := &wconn{c: c, bw: bufio.NewWriterSize(c, 1<<16), inflight: map[flightKey]flight{},
		chunks: newChunkTable(), enc: NewEncTab(), room: sync.NewCond(&co.mu)}
	// Holding writeMu across the handshake makes dataset ordering
	// airtight: once the conn is listed, a concurrent RegisterDataset
	// blocks here until Init and the replayed specs are on the wire.
	w.writeMu.Lock()
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		w.writeMu.Unlock()
		c.Close()
		return
	}
	slot := -1
	for i, s := range co.slots {
		if s == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		// More connections than slots (e.g. a straggler after respawn):
		// share slot 0's shard; stealing keeps it busy.
		slot = 0
	} else {
		co.slots[slot] = w
	}
	w.slot = slot
	w.ws = &co.perWorker[slot]
	co.conns = append(co.conns, w)
	if co.pendingSpawns > 0 {
		co.pendingSpawns--
	}
	init := InitMsg{
		Magic: Magic, Version: Version,
		LocalWorkers: co.cfg.LocalWorkers,
	}
	specs := append([]DatasetSpec(nil), co.datasets...)
	co.cond.Broadcast()
	co.mu.Unlock()

	ok := true
	if _, err := writeJSONFrame(w.bw, frameInit, init); err != nil {
		ok = false
	}
	for _, spec := range specs {
		if !ok {
			break
		}
		if _, err := writeJSONFrame(w.bw, frameDataset, spec); err != nil {
			ok = false
		}
	}
	if ok && w.bw.Flush() != nil {
		ok = false
	}
	w.writeMu.Unlock()
	if !ok {
		c.Close()
		co.workerLost(w)
		return
	}
	go co.reader(w)
	go co.feeder(w)
}

// RegisterDataset ships a dataset's generator parameters to every
// worker (and replays them to workers that join later). Idempotent by
// name.
func (co *Coordinator) RegisterDataset(spec DatasetSpec) error {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return errors.New("cluster: coordinator closed")
	}
	if co.dsNames[spec.Name] {
		co.mu.Unlock()
		return nil
	}
	co.dsNames[spec.Name] = true
	co.datasets = append(co.datasets, spec)
	conns := append([]*wconn(nil), co.conns...)
	co.mu.Unlock()
	for _, w := range conns {
		w.writeMu.Lock()
		_, err := writeJSONFrame(w.bw, frameDataset, spec)
		if err == nil {
			err = w.bw.Flush()
		}
		w.writeMu.Unlock()
		if err != nil {
			// The reader will notice the dead connection; dataset replay
			// covers any respawn.
			w.hangUp()
		}
	}
	return nil
}

// Submit ships the queue across the workers in the order the caller's
// slice holds it, and returns merged results in that order — the
// cluster equivalent of tlp.Pool.Submit, with identical result, report
// and cancellation semantics. It never writes into the caller's slice.
// Concurrent runs multiplex onto the same worker set.
func (co *Coordinator) Submit(ctx context.Context, cfg tlp.RunConfig, tasks []*tlp.Task) ([]*tlp.Result, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("tlp: empty task queue")
	}
	for _, t := range tasks {
		if t.Wire == nil {
			return nil, fmt.Errorf("cluster: task %s has no wire spec (not cluster-executable)", t.ID)
		}
	}

	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return nil, errors.New("cluster: coordinator closed")
	}
	if len(co.conns) == 0 && co.pendingSpawns == 0 && co.respawnsLeft == 0 {
		// The recovery path fails runs that were active when the last
		// worker died; a run submitted after that would wait forever.
		co.mu.Unlock()
		return nil, errors.New("cluster: no live worker processes")
	}
	n := len(tasks)
	rn := &run{
		id: co.runSeq, cfg: cfg, tasks: tasks,
		state:        make([]uint8, n),
		startAttempt: make([]int, n),
		priorErrs:    make([][]error, n),
		shipBytes:    make([]int, n),
		results:      make([]*tlp.Result, n),
		remaining:    n,
		shards:       make([][]int, len(co.slots)),
	}
	co.runSeq++
	queue := make([]int, n)
	for i := range rn.startAttempt {
		rn.startAttempt[i] = 1
		queue[i] = i
	}
	// Contiguous striping: shard s owns queue indices [s·n/S, (s+1)·n/S),
	// so FIFO order within a shard tracks global queue order and a
	// drained worker steals from the back of the fullest shard.
	s := len(co.slots)
	for sh := 0; sh < s; sh++ {
		rn.shards[sh] = queue[sh*n/s : (sh+1)*n/s : (sh+1)*n/s]
	}
	co.runs = append(co.runs, rn)
	co.wakeFeeders()
	co.mu.Unlock()

	stop := context.AfterFunc(ctx, func() {
		co.mu.Lock()
		if rn.remaining > 0 {
			rn.cancelled = true
			co.cond.Broadcast()
		}
		co.mu.Unlock()
	})
	defer stop()

	co.mu.Lock()
	for rn.remaining > 0 && rn.failed == nil && !rn.cancelled {
		co.cond.Wait()
	}
	if rn.cancelled && rn.remaining > 0 {
		// Mirror tlp's cancellation contract: every unfinished task gets
		// a Result wrapping ErrCancelled (same message bytes as
		// tlp.cancelledResult); shipped tasks keep running remotely but
		// their late frames are dropped.
		cause := ctx.Err()
		if cause == nil {
			cause = context.Canceled
		}
		for i, t := range rn.tasks {
			if rn.state[i] == stateDone {
				continue
			}
			// Drop pending deque entries lazily: feeders skip runs that
			// are cancelled.
			err := fmt.Errorf("tlp: task %s: %w: %w", t.ID, tlp.ErrCancelled, cause)
			rn.results[i] = &tlp.Result{
				TaskID: t.ID, SeqInQ: i, Err: err, Cancelled: true,
				Attempts:    rn.startAttempt[i] - 1,
				AttemptErrs: append(append([]error(nil), rn.priorErrs[i]...), err),
				ShipBytes:   rn.shipBytes[i],
			}
			rn.state[i] = stateDone
			rn.remaining--
			co.stats.TasksCompleted++
		}
	}
	for rn.wiring > 0 {
		co.cond.Wait()
	}
	co.removeRun(rn)
	failed := rn.failed
	results := rn.results
	co.mu.Unlock()
	if failed != nil {
		return nil, failed
	}
	return results, nil
}

// wakeFeeders wakes every connection's feeder: work is claimable for
// all of them, or the coordinator is closing. Caller holds mu.
func (co *Coordinator) wakeFeeders() {
	for _, w := range co.conns {
		w.room.Broadcast()
	}
}

// removeRun drops a finished run from the active list. Caller holds mu.
func (co *Coordinator) removeRun(rn *run) {
	for i, r := range co.runs {
		if r == rn {
			co.runs = append(co.runs[:i], co.runs[i+1:]...)
			return
		}
	}
}

// pick claims the next queue index for a worker: requeued overflow
// first, then the worker's own shard in order, then a steal from the
// back of the fullest shard (ties go to the first). Caller holds mu.
func (co *Coordinator) pick(w *wconn) (*run, int, bool) {
	for _, rn := range co.runs {
		if rn.failed != nil || rn.cancelled {
			continue
		}
		if len(rn.overflow) > 0 {
			idx := rn.overflow[0]
			rn.overflow = rn.overflow[1:]
			return rn, idx, true
		}
		if dq := rn.shards[w.slot]; len(dq) > 0 {
			rn.shards[w.slot] = dq[1:]
			return rn, dq[0], true
		}
		best := -1
		for s, dq := range rn.shards {
			if len(dq) > 0 && (best < 0 || len(dq) > len(rn.shards[best])) {
				best = s
			}
		}
		if best >= 0 {
			dq := rn.shards[best]
			idx := dq[len(dq)-1]
			rn.shards[best] = dq[:len(dq)-1]
			co.stats.Steals++
			w.ws.Steals++
			return rn, idx, true
		}
	}
	return nil, 0, false
}

// claim claims the next task for the worker when it has window room
// and work exists; with wait set it blocks until then (ok=false when
// the worker died or the coordinator closed), without it it returns
// ok=false at once. The claimed task is marked in-flight and being
// wired; the caller must ship it.
func (co *Coordinator) claim(w *wconn, wait bool) (*run, int, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for {
		if w.dead || co.closed {
			return nil, 0, false
		}
		if len(w.inflight) < co.cfg.shipWindow {
			if rn, idx, ok := co.pick(w); ok {
				rn.state[idx] = stateInflight
				rn.wiring++
				w.inflight[flightKey{rn.id, idx}] = flight{rn: rn}
				w.ws.PeakInFlight = max(w.ws.PeakInFlight, len(w.inflight))
				return rn, idx, true
			}
		}
		if !wait {
			return nil, 0, false
		}
		w.room.Wait()
	}
}

// ship wires one claimed task — its Wire runs here, on the
// connection's feeder, so a phase's first window reaches a worker
// before the rest of its queue is wired — then encodes and writes it
// into the connection's buffer, preceded by the chunk frames it needs;
// the feeder flushes once it has shipped all it can claim, so the first
// task of a window waits for the window's last (docs/CLUSTER.md "The
// pipeline" has what that costs a worker at a phase's start). The
// wired spec is ship's until those frames are encoded, and goes back to
// its pool on every path out. A Wire error fails the run. ship returns
// false on a write error — the caller closes the connection and
// workerLost requeues everything in flight there, including this task.
//
// Lock order is writeMu→mu, the same as register.
func (co *Coordinator) ship(w *wconn, rn *run, idx int) bool {
	t := rn.tasks[idx]
	spec, wireErr := t.Wire()
	if spec != nil {
		defer spec.Release() // after every frame below is encoded
	}

	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	var frees []uint64
	w.refs, w.fresh = w.refs[:0], w.fresh[:0]
	defer func() { clear(w.fresh) }() // the spec's seeds are not the scratch's to keep
	co.mu.Lock()
	if wireErr != nil && rn.failed == nil && !rn.cancelled {
		rn.failed = fmt.Errorf("cluster: task %s: %w", t.ID, wireErr)
		co.cond.Broadcast()
	}
	rn.wiring--
	if rn.wiring == 0 {
		// The run's Submit waits for its last Wire — which can end after
		// the run's last result, when its connection died mid-Wire and
		// another worker re-shipped the task.
		co.cond.Broadcast()
	}
	if w.dead || co.closed {
		// The connection died between claim and ship; workerLost owns
		// the requeue of everything in flight here.
		co.mu.Unlock()
		return !w.dead
	}
	key := flightKey{rn.id, idx}
	if wireErr != nil || rn.failed != nil || rn.cancelled || rn.state[idx] != stateInflight || w.inflight[key].rn != rn {
		// The task has no frame, or its run failed or was cancelled
		// between claim and ship (a cancelled run's results are
		// synthesized by its Submit): nothing to send, free the window
		// slot (for this feeder, which is the one running).
		delete(w.inflight, key)
		co.mu.Unlock()
		return true
	}
	w.shipSeq++
	w.inflight[key] = flight{rn: rn, shipped: w.shipSeq}
	ct := w.chunks
	ct.tick++
	for _, seed := range spec.Seeds {
		if seed.Digest == "" {
			w.refs = append(w.refs, -1) // task-private: ships inline
			continue
		}
		vec := vecOf(seed)
		e, ok := ct.byVec[vec]
		if ok && e.digest != seed.Digest {
			ok = false
		}
		if !ok {
			if e, ok = ct.byDigest[seed.Digest]; ok && vec != nil {
				e.vecs = append(e.vecs, vec)
				ct.byVec[vec] = e
			}
		}
		if ok {
			e.tick = ct.tick
			ct.lru.MoveToFront(e.elem)
			co.stats.ChunkHits++
			co.stats.ChunkSavedBytes += e.size
			w.ws.ChunkHits++
		} else {
			w.buf = appendSeed(w.buf[:0], seed)
			e = &chunkEntry{id: ct.next, digest: seed.Digest, size: int64(len(w.buf)), tick: ct.tick}
			ct.next++
			e.elem = ct.lru.PushFront(e)
			if vec != nil {
				e.vecs = []*symtab.Value{vec}
				ct.byVec[vec] = e
			}
			ct.byDigest[seed.Digest] = e
			ct.bytes += e.size
			w.fresh = append(w.fresh, newChunk{id: e.id, seed: seed})
		}
		w.refs = append(w.refs, int64(e.id))
	}
	// LRU eviction under the budget — but never a chunk this very
	// ship references (tick-pinned).
	for ct.bytes > co.chunkBudget {
		back := ct.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*chunkEntry)
		if e.tick == ct.tick {
			break
		}
		ct.lru.Remove(back)
		for _, vec := range e.vecs {
			delete(ct.byVec, vec)
		}
		delete(ct.byDigest, e.digest)
		ct.bytes -= e.size
		frees = append(frees, e.id)
		co.stats.Evictions++
		w.ws.Evictions++
	}
	w.ws.ResidentChunks = len(ct.byDigest)
	w.ws.ResidentBytes = ct.bytes
	m := TaskMsg{
		RunID: rn.id, Seq: idx, StartAttempt: rn.startAttempt[idx],
		ID: t.ID, Label: t.Label, Group: t.Group,
		Config: rn.cfg, Spec: *spec,
	}
	co.mu.Unlock()

	// Encode and write outside mu — only writeMu is held across the
	// (possibly blocking) socket writes, so result delivery never
	// stalls behind a slow ship. Every frame is encoded into w.buf, one
	// after the other; the encoders intern against w.enc, which writeMu
	// guards along with the stream order it depends on.
	wired := 0
	var chunkBytes int64
	var err error
	if len(frees) > 0 {
		var n int
		n, err = writeFrame(w.bw, frameChunkFree, EncodeChunkFree(frees))
		wired += n
	}
	for _, nc := range w.fresh {
		if err != nil {
			break
		}
		var n int
		w.buf = w.enc.chunk(w.buf[:0], nc.id, nc.seed)
		n, err = writeFrame(w.bw, frameChunk, w.buf)
		wired += n
		chunkBytes += int64(n)
	}
	if err == nil {
		var n int
		w.buf = w.enc.task(w.buf[:0], &m, w.refs)
		n, err = writeFrame(w.bw, frameTaskV2, w.buf)
		wired += n
	}

	co.mu.Lock()
	if err == nil {
		rn.shipBytes[idx] += wired
		co.stats.TasksShipped++
		co.stats.ShippedBytes += int64(wired)
		co.stats.ChunksShipped += len(w.fresh)
		co.stats.ChunkBytes += chunkBytes
		w.ws.ShippedBytes += int64(wired)
	}
	co.mu.Unlock()
	return err == nil
}

// feeder is a connection's writer loop: wait for a task to claim, ship
// it and every other task it can claim without waiting, then flush them
// in one write.
func (co *Coordinator) feeder(w *wconn) {
	for {
		rn, idx, ok := co.claim(w, true)
		if !ok {
			return
		}
		for ok {
			if !co.ship(w, rn, idx) {
				// Write failure: hang up and let the reader's workerLost
				// path requeue everything in flight here — including this
				// task — exactly once.
				w.hangUp()
				return
			}
			rn, idx, ok = co.claim(w, false)
		}
		w.writeMu.Lock()
		err := w.bw.Flush()
		w.writeMu.Unlock()
		if err != nil {
			w.hangUp()
			return
		}
	}
}

// reader is a connection's read loop: merge result frames until the
// connection drops, then run the process-death recovery. It owns the
// worker→coordinator intern table: one reader per connection, decoding
// in stream order, each frame into the same payload buffer and the same
// message (resultReader), which deliver is done with before the next
// frame is read.
func (co *Coordinator) reader(w *wconn) {
	br := bufio.NewReaderSize(w.c, 1<<16)
	dec, rows := &DecTab{}, &frameRows{defs: map[string]*wm.ClassDef{}}
	var (
		res resultReader
		buf []byte
	)
	for {
		typ, payload, err := readFrame(br, buf)
		if err != nil || typ != frameResult {
			break
		}
		buf = payload
		m, err := res.decode(dec, payload)
		if err != nil {
			break
		}
		co.deliver(w, rows, m, frameLen(len(payload)))
	}
	w.c.Close()
	co.workerLost(w)
}

// deliver merges one result frame. wireBytes is the result frame's
// size for ship-overhead accounting. The task's Read runs on the
// shipped rows before co.mu is taken for the merge: a flight's task
// never changes, so looking it up is all that needs the lock.
func (co *Coordinator) deliver(w *wconn, rows *frameRows, m *ResultMsg, wireBytes int) {
	var read func(tlp.Rows) any
	co.mu.Lock()
	if fl, ok := w.inflight[flightKey{m.RunID, m.Seq}]; ok && m.Err == nil {
		read = fl.rn.tasks[m.Seq].Read
	}
	co.mu.Unlock()
	out, readErr := rows.read(read, m.Snapshot)
	co.mu.Lock()
	defer co.mu.Unlock()
	key := flightKey{m.RunID, m.Seq}
	fl, ok := w.inflight[key]
	if !ok {
		return // stale frame for a requeued or unknown task
	}
	rn := fl.rn
	delete(w.inflight, key)
	w.room.Signal() // this connection's window has room
	if rn.state[m.Seq] != stateInflight {
		return // run cancelled meanwhile; result already synthesized
	}
	r := &tlp.Result{
		// Result frames carry no task ID; the run state does.
		TaskID: rn.tasks[m.Seq].ID, SeqInQ: m.Seq, Worker: m.Worker,
		Attempts: m.Attempts, Stats: m.Stats,
		Quarantined: m.Quarantined, Cancelled: m.Cancelled,
	}
	if m.HasLog {
		r.Log = &ops5.CostLog{Mem: m.Mem}
	}
	if m.Err != nil {
		r.Err = &tlp.RemoteError{Msg: m.Err.Msg, Marks: m.Err.Marks}
	}
	for _, ae := range m.AttemptErrs {
		r.AttemptErrs = append(r.AttemptErrs, &tlp.RemoteError{Msg: ae.Msg, Marks: ae.Marks})
	}
	if prior := rn.priorErrs[m.Seq]; len(prior) > 0 {
		r.AttemptErrs = append(append([]error(nil), prior...), r.AttemptErrs...)
	}
	if readErr != nil {
		r.Err = &tlp.RemoteError{Msg: readErr.Error()}
		r.AttemptErrs = append(r.AttemptErrs, r.Err)
	} else {
		r.Output = out
	}
	rn.shipBytes[m.Seq] += wireBytes
	r.ShipBytes = rn.shipBytes[m.Seq]
	rn.results[m.Seq] = r
	rn.state[m.Seq] = stateDone
	rn.remaining--
	if rn.remaining == 0 {
		co.cond.Broadcast()
	}
	co.stats.TasksCompleted++
	co.stats.ShippedBytes += int64(wireBytes)
	co.stats.ResultBytes += int64(wireBytes)
	w.ws.Tasks++
	w.ws.ShippedBytes += int64(wireBytes)
	w.ws.ArenaSlabs, w.ws.ArenaBytes = m.ArenaSlabs, m.ArenaBytes
}

// frameRows is one connection's result frames as a task's Read walks
// them (tlp.Rows): each class under a definition resolved once per
// (class, attributes) pair and connection, every row handed over in one
// record, its TimeTag counting from 1 per class — a read takes values
// in walk order, never tags.
type frameRows struct {
	defs    map[string]*wm.ClassDef
	classes []SnapClass // the frame being read
	w       wm.WME
}

// read runs a task's Read, if it has one, over a frame's shipped rows.
func (fr *frameRows) read(taskRead func(tlp.Rows) any, classes []SnapClass) (any, error) {
	if taskRead == nil {
		return nil, nil
	}
	for _, sc := range classes {
		def := fr.defs[sc.Name]
		if len(sc.Rows) == 0 || def != nil && slices.Equal(def.Attrs, sc.Attrs) {
			continue
		}
		// The definition keeps its attribute slice; sc.Attrs is the
		// reader's, which the next frame overwrites.
		def, err := wm.NewClassDef(sc.Name, slices.Clone(sc.Attrs)...)
		if err != nil {
			return nil, fmt.Errorf("cluster: snapshot class %q: %w", sc.Name, err)
		}
		fr.defs[sc.Name] = def
	}
	fr.classes = classes
	defer func() { fr.classes, fr.w = nil, wm.WME{} }()
	return taskRead(fr), nil
}

// EachWME walks the frame's rows of a class.
func (fr *frameRows) EachWME(class string, f func(*wm.WME)) {
	for _, sc := range fr.classes {
		if sc.Name == class {
			for j, row := range sc.Rows {
				fr.w = wm.WME{Class: fr.defs[class], Vals: row, TimeTag: j + 1}
				f(&fr.w)
			}
			return
		}
	}
}

// workerLost runs the process-level recovery for a dropped
// connection: requeue its in-flight tasks, the loss charged against
// the retry budgets of those it can have interrupted, quarantine the
// exhausted ones, and respawn a replacement within the bounded budget.
func (co *Coordinator) workerLost(w *wconn) {
	co.mu.Lock()
	if w.dead {
		co.mu.Unlock()
		return
	}
	w.dead = true
	for i, c := range co.conns {
		if c == w {
			co.conns = append(co.conns[:i], co.conns[i+1:]...)
			break
		}
	}
	if co.slots[w.slot] == w {
		co.slots[w.slot] = nil
	}
	if !co.closed {
		co.stats.WorkerDeaths++
	}

	keys := make([]flightKey, 0, len(w.inflight))
	for k, fl := range w.inflight {
		if fl.rn.state[k.seq] == stateInflight {
			keys = append(keys, k)
		}
	}
	// The worker's pool starts tasks in ship order and the reader
	// merged every result the worker flushed before it reported the
	// loss, so of the unmerged tasks only the first few in that order
	// can have started: one running on each task process, and a flush batch
	// of finished results that died in the worker's write buffer.
	// Charging the whole window instead would quarantine, at MaxRetries
	// 0, a window of tasks for one death; charging fewer could leave the
	// task that killed the worker at the attempt that kills the next one.
	interrupted := co.cfg.LocalWorkers + resultBatch
	sort.Slice(keys, func(i, j int) bool { return w.inflight[keys[i]].shipped < w.inflight[keys[j]].shipped })
	charged := map[flightKey]bool{}
	for _, k := range keys {
		if w.inflight[k].shipped > 0 && len(charged) < interrupted {
			charged[k] = true
		}
	}
	// Deterministic requeue order: (runID, seq) ascending, so two
	// identical chaos runs rebuild identical overflow queues.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].runID != keys[j].runID {
			return keys[i].runID < keys[j].runID
		}
		return keys[i].seq < keys[j].seq
	})
	for _, k := range keys {
		rn, idx := w.inflight[k].rn, k.seq
		t := rn.tasks[idx]
		if !charged[k] {
			// Never started: redelivered at the attempt it was shipped at.
			rn.state[idx] = statePending
			rn.overflow = append(rn.overflow, idx)
			co.stats.Requeued++
			co.stats.Uncharged++
			continue
		}
		// The loss is an attempt that crashed: same classification as
		// the pool's simulated worker crash, deterministic message (no
		// pids, no timestamps).
		crashErr := fmt.Errorf("tlp: task %s: %w (worker process lost)", t.ID, tlp.ErrWorkerCrash)
		rn.priorErrs[idx] = append(rn.priorErrs[idx], crashErr)
		rn.startAttempt[idx]++
		maxAttempts := 1 + rn.cfg.MaxRetries
		if attempts := rn.startAttempt[idx] - 1; attempts >= maxAttempts {
			rn.results[idx] = &tlp.Result{
				TaskID: t.ID, SeqInQ: idx, Err: crashErr,
				Attempts:    attempts,
				AttemptErrs: append([]error(nil), rn.priorErrs[idx]...),
				Quarantined: true,
				ShipBytes:   rn.shipBytes[idx],
			}
			rn.state[idx] = stateDone
			rn.remaining--
			co.stats.TasksCompleted++
		} else {
			rn.state[idx] = statePending
			rn.overflow = append(rn.overflow, idx)
			co.stats.Requeued++
		}
	}
	clear(w.inflight)
	w.room.Broadcast() // its feeder returns

	respawn := false
	if !co.closed && co.respawnsLeft > 0 {
		co.respawnsLeft--
		respawn = true
		co.stats.Respawns++
	} else if !co.closed && len(co.conns) == 0 && co.pendingSpawns == 0 {
		// No survivors and no replacements: active runs cannot finish.
		err := errors.New("cluster: all worker processes lost and respawn budget exhausted")
		for _, rn := range co.runs {
			if rn.remaining > 0 && rn.failed == nil {
				rn.failed = err
			}
		}
	}
	// The requeued tasks are anyone's, and a run may have ended: a
	// quarantine can complete it, the lost process can fail it.
	co.wakeFeeders()
	co.cond.Broadcast()
	co.mu.Unlock()
	if respawn {
		co.spawn()
	}
}

// Close shuts the cluster down: shutdown frames, closed connections
// and listener, and a bounded wait for the worker processes to exit
// (stragglers are killed). With no connection — as on a failed Start —
// no process was sent a Shutdown frame to exit on, so none is waited
// for: they are all killed at once.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return nil
	}
	co.closed = true
	conns := append([]*wconn(nil), co.conns...)
	co.wakeFeeders()
	co.cond.Broadcast()
	co.mu.Unlock()

	for _, w := range conns {
		w.writeMu.Lock()
		if _, err := writeFrame(w.bw, frameShutdown, nil); err == nil {
			w.bw.Flush()
		}
		w.writeMu.Unlock()
	}
	if co.ln != nil {
		co.ln.Close()
	}
	for _, w := range conns {
		w.c.Close()
	}

	co.procMu.Lock()
	procs := append([]*proc(nil), co.procs...)
	co.procMu.Unlock()
	bound := 3 * time.Second
	if len(conns) == 0 {
		bound = 0
	}
	deadline := time.After(bound)
	for _, p := range procs {
		select {
		case <-p.done:
		case <-deadline:
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	co.cleanupDir()
	return nil
}
