// Package cluster is the multi-process scale-out runtime of SPAM/PSM:
// a coordinator process that shards each phase's task queue across N
// worker processes and merges their tlp.Result-equivalent replies.
// It promotes the message-passing execution model the repository so
// far only simulated (internal/msgpass, internal/svm) to real
// processes, following the layered design of Or-parallel cluster
// systems: every worker hosts a local tlp.Pool (a single-machine
// worker team), and the cluster layer is a scheduler of pools that
// ships tasks, steals work across shards, and applies the pool's
// retry/quarantine semantics at process granularity — a lost worker
// connection requeues its in-flight tasks on the survivors, with
// bounded respawn.
//
// Results are byte-identical to a single-process tlp.Pool run: tasks
// ship as seed working memories (the same rete.RouteDigest shared-seed
// discipline the in-process path uses), workers rebuild engines from
// the identically-generated dataset, and the differential oracle in
// this package's tests proves the identity for SF/DC/MOFF. See
// docs/CLUSTER.md.
package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"spampsm/internal/ops5"
	"spampsm/internal/rete"
	"spampsm/internal/scene"
	"spampsm/internal/symtab"
	"spampsm/internal/tlp"
)

// Wire protocol version. The Init frame carries magic and version and
// a worker refuses any other: coordinator and workers are one
// re-exec'd binary, so there is no older peer to negotiate with. Bump
// Version on any change to the frame layouts below. (v1 shipped every
// seed inline; v2 is content-addressed seed shipping — frameChunk plus
// chunk-ref task frames — and a continuation mark on task and result
// frames; v3 adds the worker process's match-arena footprint to the
// result frame; v4 drops the result frame's two
// retracted-working-memory fields, which nothing fills since engines
// stopped being reset; v5 puts the run's
// build mode in the task frame, ships tlp.RunConfig as it stands and
// leaves the Init frame the handshake and the worker's own pool size,
// memory budget and process-fault plan; v6 retires build-mode bit 8,
// the per-WME seed load; v7 drops the build-mode byte, since every run
// builds its engines one way and a worker never captures; v8 drops the
// task frame's flags byte and the result frame's continuation bit,
// since every task reaches a worker through the shard queue; v9 drops
// the RunConfig's firing cap, since FiringBudget is the one per-task
// firing limit; v10 drops the Init frame's memory budget, since a
// worker's pool orders by policy only; v11 drops the Init frame's
// process-fault plan, since a worker death is a test's doing, from
// outside the worker; see docs/CLUSTER.md.)
const (
	Magic   = "SPAMCLU1"
	Version = 11
)

// Frame types. Every frame is [type byte][uvarint payload length]
// [payload]; Init and DatasetAdd payloads are JSON (sent once per
// connection / dataset — robustness over compactness), Task, Result
// and the chunk frames are the compact binary encoding (the per-task
// hot path, fuzz-tested for decode(encode(x)) identity). Type 3 was
// the v1 all-inline task frame.
const (
	frameInit      = 1 // coordinator→worker: InitMsg (JSON)
	frameDataset   = 2 // coordinator→worker: DatasetSpec (JSON)
	frameResult    = 4 // worker→coordinator: ResultMsg (binary)
	frameShutdown  = 5 // coordinator→worker: empty
	frameChunk     = 6 // coordinator→worker: one content-addressed seed chunk
	frameTaskV2    = 7 // coordinator→worker: TaskMsg with chunk refs
	frameChunkFree = 8 // coordinator→worker: evicted chunk ids
)

// maxFrame bounds a frame payload; a decoder never allocates past it,
// so a corrupt or adversarial length prefix cannot balloon memory.
const maxFrame = 64 << 20

// frameLen is the on-wire size of a frame with the given payload
// length: type byte, uvarint length prefix, payload.
func frameLen(payloadLen int) int {
	n := 1 + payloadLen
	v := uint64(payloadLen)
	for {
		n++
		v >>= 7
		if v == 0 {
			return n
		}
	}
}

// InitMsg is the first frame of every connection: protocol handshake
// plus the per-process worker configuration (the knobs a worker's
// local tlp.Pool inherits from the coordinator's flags).
type InitMsg struct {
	Magic        string
	Version      int
	LocalWorkers int
}

// DatasetSpec names a dataset and carries the generator parameters to
// rebuild it from scratch. Scenes are deterministic functions of
// their parameters, so shipping the parameters — a few dozen bytes —
// gives every worker a byte-identical dataset without shipping the
// scene itself.
type DatasetSpec struct {
	Name     string
	Domain   string // "airport" | "suburban"
	Airport  scene.Params
	Suburban scene.SuburbanParams
}

// TaskMsg is one shipped task: identity and scheduler estimates, the
// attempt number to resume from (>1 after the coordinator charged
// earlier attempts to a lost worker), the run configuration the
// worker's pool must replay for byte-identical retry/quarantine
// behavior, and the task's WireSpec (phase, seed working memory and
// extraction classes).
type TaskMsg struct {
	RunID        uint64
	Seq          int
	StartAttempt int
	ID           string
	Label        string
	Group        string
	EstSize      float64
	MemEst       float64
	Config       tlp.RunConfig
	Spec         tlp.WireSpec
}

// WireError is an error flattened for shipping: message plus
// tlp classification marks (see tlp.ErrorMarks).
type WireError struct {
	Msg   string
	Marks uint32
}

// SnapClass is one class's rows in a result's working-memory
// snapshot: the class layout plus the value vectors, in timetag
// order.
type SnapClass struct {
	Name  string
	Attrs []string
	Rows  [][]symtab.Value
}

// ResultMsg is one task's outcome crossing back: the final attempt's
// statistics, the flattened errors, and the snapshot of the extracted
// working-memory classes.
type ResultMsg struct {
	RunID       uint64
	Seq         int
	TaskID      string
	Worker      int
	Attempts    int
	Stats       ops5.RunStats
	Mem         ops5.MemStats
	HasLog      bool
	Err         *WireError
	AttemptErrs []WireError
	Quarantined bool
	Cancelled   bool
	Snapshot    []SnapClass
	// ArenaSlabs/ArenaBytes are what the worker process's task
	// processes' match arenas held, in total, when this task finished
	// (rete.Scratch.Arena): the coordinator's view of worker memory
	// that outlives tasks.
	ArenaSlabs int
	ArenaBytes int64
}

// ---------------------------------------------------------------------------
// Framing

// writeFrame emits one frame on w. The header is appended into w's own
// buffer, so a frame costs no allocation of its own.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) (int, error) {
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("cluster: frame payload %d exceeds limit", len(payload))
	}
	hdr := binary.AppendUvarint(append(w.AvailableBuffer(), typ), uint64(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return len(hdr) + len(payload), nil
}

// readFrame reads one frame from r into buf, which it grows when the
// payload does not fit: a read loop that passes back the last payload
// reuses one buffer for every frame, so what it decodes must not keep
// the payload's bytes.
func readFrame(r *bufio.Reader, buf []byte) (byte, []byte, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, err
	}
	if n > maxFrame {
		return 0, nil, fmt.Errorf("cluster: frame payload %d exceeds limit", n)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

func writeJSONFrame(w *bufio.Writer, typ byte, v interface{}) (int, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	return writeFrame(w, typ, payload)
}

// ---------------------------------------------------------------------------
// Binary encoding primitives

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], math.Float64bits(f))
	return append(b, t[:]...)
}

func appendInt(b []byte, i int64) []byte {
	return binary.AppendVarint(b, i)
}

func appendUint(b []byte, u uint64) []byte {
	return binary.AppendUvarint(b, u)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decoder walks a frame payload. Malformed input flips err and makes
// every further read return a zero value; decode entry points check
// err once at the end. Length prefixes are validated against the
// remaining payload before any allocation, so a hostile frame cannot
// make the decoder allocate more than it received.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("cluster: truncated or malformed %s", what)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) float() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail("float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.fail("string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) bool() bool { return d.byte() != 0 }

// count reads an item count and bounds it by the remaining payload
// (each item encodes to at least one byte).
func (d *decoder) count(what string) int {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.fail(what + " count")
		return 0
	}
	return int(n)
}

// ---------------------------------------------------------------------------
// Values and seeds

const (
	valNil = iota
	valSym
	valInt
	valFloat
)

func appendValue(b []byte, v symtab.Value) []byte {
	switch v.Kind() {
	case symtab.KindSym:
		b = append(b, valSym)
		return appendString(b, v.SymVal())
	case symtab.KindInt:
		b = append(b, valInt)
		return appendInt(b, v.IntVal())
	case symtab.KindFloat:
		b = append(b, valFloat)
		return appendFloat(b, v.FloatVal())
	default:
		return append(b, valNil)
	}
}

func appendValues(b []byte, vals []symtab.Value) []byte {
	b = appendUint(b, uint64(len(vals)))
	for _, v := range vals {
		b = appendValue(b, v)
	}
	return b
}

// appendSeed is the canonical stateless encoding of a seed — class,
// shared flag, values — independent of any connection's intern state:
// the size function of the coordinator's chunk plan.
func appendSeed(b []byte, s ops5.Seed) []byte {
	b = appendString(b, s.Class)
	b = appendBool(b, s.Digest != "")
	return appendValues(b, s.Vals)
}

// ---------------------------------------------------------------------------
// Task frames

func appendRunConfig(b []byte, c tlp.RunConfig) []byte {
	b = append(b, byte(c.Policy))
	b = appendInt(b, int64(c.FiringBudget))
	b = appendInt(b, int64(c.MaxRetries))
	b = appendInt(b, int64(c.TaskTimeout))
	b = appendInt(b, int64(c.RetryBackoff))
	b = appendInt(b, c.Faults.Seed)
	b = appendFloat(b, c.Faults.BuildFailRate)
	b = appendFloat(b, c.Faults.PanicRate)
	b = appendFloat(b, c.Faults.CrashRate)
	b = appendFloat(b, c.Faults.PermanentFraction)
	return b
}

func (d *decoder) runConfig() tlp.RunConfig {
	var c tlp.RunConfig
	c.Policy = tlp.QueuePolicy(d.byte())
	c.FiringBudget = int(d.varint())
	c.MaxRetries = int(d.varint())
	c.TaskTimeout = time.Duration(d.varint())
	c.RetryBackoff = time.Duration(d.varint())
	c.Faults.Seed = d.varint()
	c.Faults.BuildFailRate = d.float()
	c.Faults.PanicRate = d.float()
	c.Faults.CrashRate = d.float()
	c.Faults.PermanentFraction = d.float()
	return c
}

// ---------------------------------------------------------------------------
// v2: per-connection interning

// The v2 codec is stateful per connection and per direction: each
// side's single frame-writer interns the strings (class names, symbol
// values, attribute names, labels) and run configurations it sends, so
// a value crosses a given connection once and every later use is a
// 1-2 byte reference. The stream is self-describing — a reference
// always points at a literal sent earlier on the same connection — and
// each direction has exactly one writer (the coordinator's writeMu,
// the worker's writeMu) and one reader, so the tables need no locks of
// their own.

// EncTab is the sender half of one direction's intern state.
type EncTab struct {
	strs map[string]uint64
	cfgs map[tlp.RunConfig]uint64
}

// NewEncTab returns an empty sender intern table.
func NewEncTab() *EncTab {
	return &EncTab{strs: map[string]uint64{}, cfgs: map[tlp.RunConfig]uint64{}}
}

// DecTab is the receiver half of one direction's intern state.
type DecTab struct {
	strs []string
	// syms[i] is symtab.Sym(strs[i]) from the slot's first use as a
	// symbol value (Nil before it, and for slots that only ever name a
	// class, an attribute or a label): a symbol is interned once per
	// connection, not once per occurrence. The wire carries names only —
	// an intern id means nothing to the process at the other end.
	syms []symtab.Value
	cfgs []tlp.RunConfig
}

// sym returns table slot i as a symbol value.
func (t *DecTab) sym(i uint64) symtab.Value {
	for uint64(len(t.syms)) <= i {
		t.syms = append(t.syms, symtab.Nil)
	}
	if t.syms[i].IsNil() {
		t.syms[i] = symtab.Sym(t.strs[i])
	}
	return t.syms[i]
}

// str appends an interned string: uvarint 0 plus the literal on first
// use (registering it), a 1-based table reference afterwards.
func (t *EncTab) str(b []byte, s string) []byte {
	if id, ok := t.strs[s]; ok {
		return appendUint(b, id+1)
	}
	t.strs[s] = uint64(len(t.strs))
	b = append(b, 0)
	return appendString(b, s)
}

func (d *decoder) str(t *DecTab) string {
	k := d.uvarint()
	if k == 0 {
		s := d.string()
		if d.err == nil {
			t.strs = append(t.strs, s)
		}
		return s
	}
	if k > uint64(len(t.strs)) {
		d.fail("string ref")
		return ""
	}
	return t.strs[k-1]
}

// Compact floats: modeled costs and sizes are overwhelmingly
// integral-valued float64s, which a varint ships in 2-4 bytes instead
// of 8. Non-integral (or -0.0, or out-of-range) values ship raw.
const (
	fltRaw = 0
	fltInt = 1
)

func appendFloatC(b []byte, f float64) []byte {
	if f == math.Trunc(f) && f >= -(1<<53) && f <= 1<<53 && !(f == 0 && math.Signbit(f)) {
		b = append(b, fltInt)
		return appendInt(b, int64(f))
	}
	b = append(b, fltRaw)
	return appendFloat(b, f)
}

func (d *decoder) floatC() float64 {
	switch d.byte() {
	case fltInt:
		return float64(d.varint())
	case fltRaw:
		return d.float()
	default:
		d.fail("float tag")
		return 0
	}
}

// v2 values merge the kind tag and the symbol reference into one
// uvarint — a repeated symbol costs its table reference alone, and a
// float costs one tag for both the kind and the compact/raw choice:
// 0 nil, 1 int, 2 raw float, 3 integral float (varint), 4 symbol
// literal (registering it), k >= 5 a reference to symbol table
// entry k-5.
const (
	v2Nil      = 0
	v2Int      = 1
	v2FloatRaw = 2
	v2FloatInt = 3
	v2SymNew   = 4
	v2SymRef   = 5 // + table index
)

func (t *EncTab) value(b []byte, v symtab.Value) []byte {
	switch v.Kind() {
	case symtab.KindSym:
		s := v.SymVal()
		if id, ok := t.strs[s]; ok {
			return appendUint(b, v2SymRef+id)
		}
		t.strs[s] = uint64(len(t.strs))
		b = append(b, v2SymNew)
		return appendString(b, s)
	case symtab.KindInt:
		b = append(b, v2Int)
		return appendInt(b, v.IntVal())
	case symtab.KindFloat:
		f := v.FloatVal()
		if f == math.Trunc(f) && f >= -(1<<53) && f <= 1<<53 && !(f == 0 && math.Signbit(f)) {
			b = append(b, v2FloatInt)
			return appendInt(b, int64(f))
		}
		b = append(b, v2FloatRaw)
		return appendFloat(b, f)
	default:
		return append(b, v2Nil)
	}
}

func (d *decoder) valueT(t *DecTab) symtab.Value {
	switch tag := d.uvarint(); tag {
	case v2Nil:
		return symtab.Nil
	case v2Int:
		return symtab.Int(d.varint())
	case v2FloatRaw:
		return symtab.Float(d.float())
	case v2FloatInt:
		return symtab.Float(float64(d.varint()))
	case v2SymNew:
		s := d.string()
		if d.err != nil {
			return symtab.Nil
		}
		t.strs = append(t.strs, s)
		return t.sym(uint64(len(t.strs) - 1))
	default:
		if tag-v2SymRef >= uint64(len(t.strs)) {
			d.fail("symbol ref")
			return symtab.Nil
		}
		return t.sym(tag - v2SymRef)
	}
}

func (t *EncTab) values(b []byte, vals []symtab.Value) []byte {
	b = appendUint(b, uint64(len(vals)))
	for _, v := range vals {
		b = t.value(b, v)
	}
	return b
}

func (d *decoder) valuesT(t *DecTab) []symtab.Value {
	n := d.count("value")
	if n == 0 {
		return nil
	}
	vals := make([]symtab.Value, 0, n)
	for i := 0; i < n; i++ {
		vals = append(vals, d.valueT(t))
	}
	return vals
}

// seed ships a seed as class + shared flag + values under interning.
// The digest string itself never crosses the wire: a shared seed's
// digest is a pure function of (class, values), so the decoder
// recomputes it with the same rete.RouteDigest the coordinator used —
// identical string, identical alpha-routing memoization, identical
// Init charges.
func (t *EncTab) seed(b []byte, s ops5.Seed) []byte {
	b = t.str(b, s.Class)
	b = appendBool(b, s.Digest != "")
	return t.values(b, s.Vals)
}

func (d *decoder) seedT(t *DecTab) ops5.Seed {
	s := ops5.Seed{Class: d.str(t)}
	shared := d.bool()
	s.Vals = d.valuesT(t)
	if shared && d.err == nil {
		s.Digest = rete.RouteDigest(s.Class, s.Vals)
	}
	return s
}

// runConfig interns the whole RunConfig by value: one run's tasks all
// carry the same configuration, so it crosses each connection once.
func (t *EncTab) runConfig(b []byte, c tlp.RunConfig) []byte {
	if id, ok := t.cfgs[c]; ok {
		return appendUint(b, id+1)
	}
	t.cfgs[c] = uint64(len(t.cfgs))
	b = append(b, 0)
	return appendRunConfig(b, c)
}

func (d *decoder) runConfigT(t *DecTab) tlp.RunConfig {
	k := d.uvarint()
	if k == 0 {
		c := d.runConfig()
		if d.err == nil {
			t.cfgs = append(t.cfgs, c)
		}
		return c
	}
	if k > uint64(len(t.cfgs)) {
		d.fail("config ref")
		return tlp.RunConfig{}
	}
	return t.cfgs[k-1]
}

// ---------------------------------------------------------------------------
// v2: content-addressed chunks and chunk-ref task frames

// A v2 task frame ships each seed as one uvarint tag: 0 means the
// seed follows inline, k > 0 references resident chunk id k-1.

// EncodeChunk serializes one content-addressed seed chunk: the
// coordinator-assigned resident id plus the seed. A chunk ships to a
// given worker at most once; later tasks reference it by id.
func EncodeChunk(t *EncTab, id uint64, s ops5.Seed) []byte {
	return t.chunk(make([]byte, 0, 64), id, s)
}

// chunk appends a chunk frame payload to b.
func (t *EncTab) chunk(b []byte, id uint64, s ops5.Seed) []byte {
	b = appendUint(b, id)
	return t.seed(b, s)
}

// DecodeChunk parses a chunk frame payload.
func DecodeChunk(t *DecTab, payload []byte) (uint64, ops5.Seed, error) {
	d := &decoder{b: payload}
	id := d.uvarint()
	s := d.seedT(t)
	if d.err != nil {
		return 0, ops5.Seed{}, d.err
	}
	if len(d.b) != 0 {
		return 0, ops5.Seed{}, fmt.Errorf("cluster: %d trailing bytes after chunk frame", len(d.b))
	}
	return id, s, nil
}

// EncodeChunkFree serializes an eviction notice: chunk ids the
// coordinator dropped from the worker's resident table under its LRU
// budget. The worker frees them before any later frame can reference
// them again (a re-shipped chunk gets a fresh id).
func EncodeChunkFree(ids []uint64) []byte {
	b := make([]byte, 0, 16)
	b = appendUint(b, uint64(len(ids)))
	for _, id := range ids {
		b = appendUint(b, id)
	}
	return b
}

// DecodeChunkFree parses an eviction-notice payload.
func DecodeChunkFree(payload []byte) ([]uint64, error) {
	d := &decoder{b: payload}
	n := d.count("chunk free")
	var ids []uint64
	if n > 0 {
		ids = make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, d.uvarint())
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after chunk-free frame", len(d.b))
	}
	return ids, nil
}

// EncodeTaskV2 serializes a v2 task frame payload against the
// connection's sender intern table. refs runs parallel to
// m.Spec.Seeds: refs[i] >= 0 ships seed i as a reference to that
// resident chunk id, refs[i] < 0 ships it inline. A nil refs ships
// every seed inline (still a valid v2 frame). Task IDs stay literal —
// they are unique per run, so interning them would only grow the
// table.
func EncodeTaskV2(t *EncTab, m *TaskMsg, refs []int64) []byte {
	return t.task(make([]byte, 0, 256), m, refs)
}

// task appends a v2 task frame payload to b.
func (t *EncTab) task(b []byte, m *TaskMsg, refs []int64) []byte {
	b = appendUint(b, m.RunID)
	b = appendUint(b, uint64(m.Seq))
	b = appendUint(b, uint64(m.StartAttempt))
	b = appendString(b, m.ID)
	b = t.str(b, m.Label)
	b = t.str(b, m.Group)
	b = appendFloatC(b, m.EstSize)
	b = appendFloatC(b, m.MemEst)
	b = t.runConfig(b, m.Config)
	b = t.str(b, m.Spec.Dataset)
	b = t.str(b, m.Spec.Phase)
	b = appendUint(b, uint64(len(m.Spec.Extract)))
	for _, c := range m.Spec.Extract {
		b = t.str(b, c)
	}
	b = appendUint(b, uint64(len(m.Spec.Seeds)))
	for i, s := range m.Spec.Seeds {
		if i < len(refs) && refs[i] >= 0 {
			b = appendUint(b, uint64(refs[i])+1)
			continue
		}
		b = append(b, 0)
		b = t.seed(b, s)
	}
	return b
}

// DecodeTaskV2 parses a v2 task frame payload against the
// connection's receiver intern table, resolving chunk references
// through resolve (the worker's resident-chunk table). The returned
// refs slice mirrors the wire encoding — refs[i] is the chunk id seed
// i arrived as, or -1 for inline — so EncodeTaskV2(t, m, refs) with
// equivalent intern state reproduces the payload byte for byte (the
// fuzz round-trip invariant). An id resolve does not know is a
// protocol error: chunks always precede the first frame referencing
// them on a connection.
func DecodeTaskV2(t *DecTab, payload []byte, resolve func(uint64) (ops5.Seed, bool)) (*TaskMsg, []int64, error) {
	f := new(taskFrame)
	if err := t.task(f, payload, resolve); err != nil {
		return nil, nil, err
	}
	return &f.m, f.refs, nil
}

// taskFrame is a decoded task frame's storage: the message, the chunk
// refs its seeds arrived as, and the slab its inline seeds' value
// vectors are carved from. Decoding into a used one keeps its arrays,
// so it overwrites what the previous frame decoded into it.
type taskFrame struct {
	m    TaskMsg
	refs []int64
	vals []symtab.Value
}

// task decodes a v2 task frame payload into f (DecodeTaskV2).
func (t *DecTab) task(f *taskFrame, payload []byte, resolve func(uint64) (ops5.Seed, bool)) error {
	d := &decoder{b: payload}
	m := &f.m
	m.RunID = d.uvarint()
	m.Seq = int(d.uvarint())
	m.StartAttempt = int(d.uvarint())
	m.ID = d.string()
	m.Label = d.str(t)
	m.Group = d.str(t)
	m.EstSize = d.floatC()
	m.MemEst = d.floatC()
	m.Config = d.runConfigT(t)
	m.Spec.Dataset = d.str(t)
	m.Spec.Phase = d.str(t)
	m.Spec.Extract = resize(m.Spec.Extract, d.count("extract"))
	for i := range m.Spec.Extract {
		m.Spec.Extract[i] = d.str(t)
	}
	n := d.count("seed")
	clear(m.Spec.Seeds) // the previous frame's chunk seeds are not the storage's to keep
	m.Spec.Seeds, f.refs, f.vals = resize(m.Spec.Seeds, n), resize(f.refs, n), f.vals[:0]
	for i := 0; i < n && d.err == nil; i++ {
		if tag := d.uvarint(); tag != 0 {
			id := tag - 1
			s, ok := resolve(id)
			if !ok {
				return fmt.Errorf("cluster: task %s references unknown chunk %d", m.ID, id)
			}
			m.Spec.Seeds[i], f.refs[i] = s, int64(id)
			continue
		}
		s := ops5.Seed{Class: d.str(t)}
		shared := d.bool()
		if k := d.count("value"); k > 0 {
			start := len(f.vals)
			for range k {
				f.vals = append(f.vals, d.valueT(t))
			}
			s.Vals = f.vals[start:len(f.vals):len(f.vals)]
		}
		if shared && d.err == nil {
			s.Digest = rete.RouteDigest(s.Class, s.Vals)
		}
		m.Spec.Seeds[i], f.refs[i] = s, -1
	}
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after task frame", len(d.b))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Result frames

const (
	rfErr = 1 << iota
	rfQuarantined
	rfCancelled
	rfHalted
	rfLog
)

func appendWireError(b []byte, e WireError) []byte {
	b = appendString(b, e.Msg)
	return appendUint(b, uint64(e.Marks))
}

func (d *decoder) wireError() WireError {
	return WireError{Msg: d.string(), Marks: uint32(d.uvarint())}
}

// EncodeResultV2 serializes a result frame payload against the
// worker→coordinator intern table: snapshot class names, attribute
// names and symbol values intern (the dominant repeated content of a
// phase's results), modeled-cost floats ship compact, and the task ID
// stays off the wire entirely — (RunID, Seq) already names the task,
// and the coordinator restores the ID from its own run state. Error
// messages stay literal.
func EncodeResultV2(t *EncTab, m *ResultMsg) []byte { return t.result(make([]byte, 0, 256), m) }

// result appends a result frame payload to b.
func (t *EncTab) result(b []byte, m *ResultMsg) []byte {
	b = appendUint(b, m.RunID)
	b = appendUint(b, uint64(m.Seq))
	b = appendUint(b, uint64(m.Worker))
	b = appendUint(b, uint64(m.Attempts))
	var flags byte
	if m.Err != nil {
		flags |= rfErr
	}
	if m.Quarantined {
		flags |= rfQuarantined
	}
	if m.Cancelled {
		flags |= rfCancelled
	}
	if m.Stats.Halted {
		flags |= rfHalted
	}
	if m.HasLog {
		flags |= rfLog
	}
	b = append(b, flags)
	b = appendUint(b, uint64(m.Stats.Firings))
	b = appendUint(b, uint64(m.Stats.Cycles))
	b = appendUint(b, uint64(m.Stats.RHSActions))
	b = appendFloatC(b, m.Stats.MatchInstr)
	b = appendFloatC(b, m.Stats.ResolveInstr)
	b = appendFloatC(b, m.Stats.ActInstr)
	b = appendFloatC(b, m.Stats.InitInstr)
	b = appendUint(b, uint64(m.Mem.SeedWMEs))
	b = appendFloatC(b, m.Mem.SeedBytes)
	b = appendUint(b, uint64(m.Mem.PeakWMEs))
	b = appendUint(b, uint64(m.Mem.PeakTokens))
	b = appendFloatC(b, m.Mem.PeakBytes)
	b = appendUint(b, uint64(m.ArenaSlabs))
	b = appendUint(b, uint64(m.ArenaBytes))
	if m.Err != nil {
		b = appendWireError(b, *m.Err)
	}
	b = appendUint(b, uint64(len(m.AttemptErrs)))
	for _, e := range m.AttemptErrs {
		b = appendWireError(b, e)
	}
	b = appendUint(b, uint64(len(m.Snapshot)))
	for _, sc := range m.Snapshot {
		b = t.str(b, sc.Name)
		b = appendUint(b, uint64(len(sc.Attrs)))
		for _, a := range sc.Attrs {
			b = t.str(b, a)
		}
		b = appendUint(b, uint64(len(sc.Rows)))
		for _, row := range sc.Rows {
			b = t.values(b, row)
		}
	}
	return b
}

// DecodeResultV2 parses a v2 result frame payload against the
// connection's receiver intern table. The returned message has an
// empty TaskID — v2 result frames do not carry it.
func DecodeResultV2(t *DecTab, payload []byte) (*ResultMsg, error) {
	return new(resultReader).decode(t, payload)
}

// resultReader decodes one connection's result frames into one reused
// message: its slices keep their capacity from frame to frame, and
// every row is carved from one reused value slice. What decode returns
// is valid until the next decode — the coordinator's reader runs the
// task's Read over it first, and every phase's read copies what it
// keeps — so a frame allocates only its new strings and whatever a
// larger frame than any before it needs.
type resultReader struct {
	m    ResultMsg
	err  WireError
	vals []symtab.Value
}

// resize returns s at length n, keeping its array — and the elements'
// own slices with it — when it is large enough.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

func (r *resultReader) decode(t *DecTab, payload []byte) (*ResultMsg, error) {
	d := &decoder{b: payload}
	m := &r.m
	m.RunID = d.uvarint()
	m.Seq = int(d.uvarint())
	m.Worker = int(d.uvarint())
	m.Attempts = int(d.uvarint())
	flags := d.byte()
	m.Quarantined = flags&rfQuarantined != 0
	m.Cancelled = flags&rfCancelled != 0
	m.HasLog = flags&rfLog != 0
	m.Stats.Firings = int(d.uvarint())
	m.Stats.Cycles = int(d.uvarint())
	m.Stats.RHSActions = int(d.uvarint())
	m.Stats.MatchInstr = d.floatC()
	m.Stats.ResolveInstr = d.floatC()
	m.Stats.ActInstr = d.floatC()
	m.Stats.InitInstr = d.floatC()
	m.Stats.Halted = flags&rfHalted != 0
	m.Mem.SeedWMEs = int(d.uvarint())
	m.Mem.SeedBytes = d.floatC()
	m.Mem.PeakWMEs = int(d.uvarint())
	m.Mem.PeakTokens = int(d.uvarint())
	m.Mem.PeakBytes = d.floatC()
	m.ArenaSlabs = int(d.uvarint())
	m.ArenaBytes = int64(d.uvarint())
	m.Err = nil
	if flags&rfErr != 0 {
		r.err = d.wireError()
		m.Err = &r.err
	}
	m.AttemptErrs = resize(m.AttemptErrs, d.count("attempt error"))
	for i := range m.AttemptErrs {
		m.AttemptErrs[i] = d.wireError()
	}
	r.vals = r.vals[:0]
	m.Snapshot = resize(m.Snapshot, d.count("snapshot class"))
	for i := range m.Snapshot {
		sc := &m.Snapshot[i]
		sc.Name = d.str(t)
		sc.Attrs = resize(sc.Attrs, d.count("snapshot attr"))
		for j := range sc.Attrs {
			sc.Attrs[j] = d.str(t)
		}
		sc.Rows = resize(sc.Rows, d.count("snapshot row"))
		for j := range sc.Rows {
			sc.Rows[j] = nil
			if n := d.count("value"); n > 0 {
				start := len(r.vals)
				for range n {
					r.vals = append(r.vals, d.valueT(t))
				}
				sc.Rows[j] = r.vals[start:len(r.vals):len(r.vals)]
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after result frame", len(d.b))
	}
	return m, nil
}
