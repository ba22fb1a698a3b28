// Session serving: long-lived incremental interpretations over HTTP.
//
// POST /session opens a spam.Session over a named or inline scene and
// returns its initial interpretation; POST /update folds a scene delta
// (explicit region lists, or server-generated churn for load drivers)
// into a live session and returns the incrementally updated
// interpretation — byte-identical to interpreting the updated scene
// from scratch, at cost proportional to the churn. DELETE /session/{id}
// closes one explicitly.
//
// Live sessions are LRU-bounded (Config.MaxSessions): opening a
// session past the cap evicts the least recently used one, dropping
// its cached engines. Each session is serialized by its own mutex —
// concurrent updates to one session queue behind each other — while
// distinct sessions update in parallel over the shared pool. A
// cancelled or failed update leaves the session consistent but cold:
// the phases that never ran are swept from the task cache and rebuild
// on the next update.
//
// Response bodies stay byte-deterministic for a fixed request
// sequence: wall-clock time travels in the X-Elapsed-Ms header, and
// the racey predicate-memo counters live in /stats, not in update
// responses.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// session is one live incremental interpretation.
type session struct {
	mu     sync.Mutex // serializes Interpret/Update on sess
	id     string
	name   string // dataset name for /stats
	tenant string
	sess   *spam.Session
}

// sessionStore is the server's LRU-bounded live-session table.
type sessionStore struct {
	mu      sync.Mutex
	max     int
	seq     int64
	byID    map[string]*session
	lastUse map[string]int64

	opened  int64
	evicted int64
	closed  int64
	updates int64
}

func newSessionStore(max int) *sessionStore {
	return &sessionStore{max: max, byID: map[string]*session{}, lastUse: map[string]int64{}}
}

// open registers a new session, evicting the least recently used one
// past the cap. Eviction only unlinks the table entry: a request
// mid-update on the evicted session holds its own pointer and
// completes normally; the engines are reclaimed when it finishes.
func (st *sessionStore) open(name, tenant string, sess *spam.Session) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.byID) >= st.max {
		var lruID string
		var lruSeq int64
		for id := range st.byID {
			if u := st.lastUse[id]; lruID == "" || u < lruSeq {
				lruID, lruSeq = id, u
			}
		}
		delete(st.byID, lruID)
		delete(st.lastUse, lruID)
		st.evicted++
	}
	st.seq++
	s := &session{id: fmt.Sprintf("s%d", st.seq), name: name, tenant: tenant, sess: sess}
	st.byID[s.id] = s
	st.lastUse[s.id] = st.seq
	st.opened++
	return s
}

// get looks a session up and marks it most recently used.
func (st *sessionStore) get(id string) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.byID[id]
	if s != nil {
		st.seq++
		st.lastUse[id] = st.seq
	}
	return s
}

func (st *sessionStore) close(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.byID[id]; !ok {
		return false
	}
	delete(st.byID, id)
	delete(st.lastUse, id)
	st.closed++
	return true
}

// SessionStat is one live session's /stats row.
type SessionStat struct {
	ID      string             `json:"id"`
	Dataset string             `json:"dataset"`
	Tenant  string             `json:"tenant"`
	Updates int                `json:"updates"`
	Regions int                `json:"regions"`
	Geo     spam.GeoMemoStats  `json:"geo"`
	Grid    spam.LiveGridStats `json:"grid"`
}

// SessionStats is the /stats session section.
type SessionStats struct {
	Open    int           `json:"open"`
	Opened  int64         `json:"opened"`
	Evicted int64         `json:"evicted"`
	Closed  int64         `json:"closed"`
	Updates int64         `json:"updates"`
	Live    []SessionStat `json:"live,omitempty"`
}

func (st *sessionStore) stats() SessionStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := SessionStats{
		Open:    len(st.byID),
		Opened:  st.opened,
		Evicted: st.evicted,
		Closed:  st.closed,
		Updates: st.updates,
	}
	for _, s := range st.byID {
		// Snapshot without taking s.mu: the store counters are only
		// read here, and a mid-update session's counters are merely a
		// moment older.
		out.Live = append(out.Live, SessionStat{
			ID:      s.id,
			Dataset: s.name,
			Tenant:  s.tenant,
			Updates: s.sess.Updates(),
			Regions: len(s.sess.Scene().Regions),
			Geo:     s.sess.Store().GeoStats(),
			Grid:    s.sess.GridStats(),
		})
	}
	return out
}

// SessionRequest is the POST /session wire format: the scene and
// interpretation options the session is pinned to.
type SessionRequest struct {
	Scene  string       `json:"scene,omitempty"`
	Inline *InlineScene `json:"inline,omitempty"`
	Tenant string       `json:"tenant,omitempty"`

	Level    int  `json:"level,omitempty"`
	RTFBatch int  `json:"rtfBatch,omitempty"`
	ReEntry  bool `json:"reentry,omitempty"`

	DeadlineMs int `json:"deadlineMs,omitempty"`
}

// DeltaRequest is the POST /update wire format. Exactly one of the
// explicit delta (removed/moved/added) or Churn must be present.
type DeltaRequest struct {
	Session string `json:"session"`
	Tenant  string `json:"tenant,omitempty"`

	Removed []int          `json:"removed,omitempty"`
	Moved   []InlineRegion `json:"moved,omitempty"`
	Added   []InlineRegion `json:"added,omitempty"`

	// Churn asks the server to generate the delta deterministically
	// against the session's current scene — the load generator's and
	// smoke tests' path.
	Churn *ChurnRequest `json:"churn,omitempty"`

	DeadlineMs int `json:"deadlineMs,omitempty"`
}

// ChurnRequest mirrors scene.Churn on the wire.
type ChurnRequest struct {
	Seed     uint64  `json:"seed"`
	Fraction float64 `json:"fraction"`
	// Occlusion/MisSeg/Emergent default to the standard update mix
	// (scene.DefaultChurn) when all are zero.
	Occlusion float64 `json:"occlusion,omitempty"`
	MisSeg    float64 `json:"misseg,omitempty"`
	Emergent  float64 `json:"emergent,omitempty"`
}

// UpdateSummary is spam.UpdateReport's deterministic wire subset: no
// wall clock (X-Elapsed-Ms), no concurrency-dependent memo counters
// (/stats).
type UpdateSummary struct {
	Update      int     `json:"update"`
	DeltaSize   int     `json:"deltaSize"`
	Tasks       int     `json:"tasks"`
	Reused      int     `json:"reused"`
	Rerun       int     `json:"rerun"`
	Fresh       int     `json:"fresh"`
	Dropped     int     `json:"dropped"`
	SeedsDiffed int     `json:"seedsDiffed"`
	DiffInstr   float64 `json:"diffInstr"`
	UpdateInstr float64 `json:"updateInstr"`
	// Reasons is spam.UpdateReport.Reasons: why each re-run task ran
	// again, as counts keyed "<phase> <signature>[ <rows>]".
	Reasons map[string]int `json:"reasons,omitempty"`
}

func summarize(rep *spam.UpdateReport) UpdateSummary {
	return UpdateSummary{
		Update:      rep.Update,
		DeltaSize:   rep.DeltaSize,
		Tasks:       rep.Tasks,
		Reused:      rep.Reused,
		Rerun:       rep.Rerun,
		Fresh:       rep.Fresh,
		Dropped:     rep.Dropped,
		SeedsDiffed: rep.SeedsDiffed,
		DiffInstr:   rep.DiffInstr,
		UpdateInstr: rep.UpdateInstr,
		Reasons:     rep.Reasons,
	}
}

// SessionResponse answers both /session and /update: the session
// handle, the incremental accounting, and the interpretation summary.
type SessionResponse struct {
	Session string        `json:"session"`
	Report  UpdateSummary `json:"report"`
	Result  *Response     `json:"result"`
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	var req SessionRequest
	if aerr := decodeBody(w, r, &req); aerr != nil {
		s.rejected.Add(1)
		s.writeAPIError(w, aerr)
		return
	}
	if (req.Scene == "") == (req.Inline == nil) {
		s.rejected.Add(1)
		s.writeAPIError(w, &apiError{status: 400, msg: "exactly one of scene or inline is required"})
		return
	}
	if req.Level < 0 || req.Level > 3 {
		s.rejected.Add(1)
		s.writeAPIError(w, &apiError{status: 400, msg: "level must be 1..3"})
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = r.Header.Get("X-Tenant")
	}
	if tenant == "" {
		tenant = "default"
	}

	release, aerr := s.admit(r.Context(), tenant)
	if aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	defer release()

	var (
		ds  *spam.Dataset
		err error
	)
	if req.Scene != "" {
		ds, err = s.cache.namedDataset(req.Scene)
	} else {
		ds, err = s.cache.inlineDataset(req.Inline)
	}
	if err != nil {
		s.rejected.Add(1)
		s.writeAPIError(w, &apiError{status: 400, msg: err.Error()})
		return
	}

	// The session clones the scene, so sharing the cached dataset is
	// safe; its updates never touch the cache's copy. The runner pins
	// the session's task queues to the shared pool for its lifetime.
	opt := spam.InterpretOptions{
		Level:    spam.Level(req.Level),
		RTFBatch: req.RTFBatch,
		ReEntry:  req.ReEntry,
		Runner: tlp.BoundQueue{Queue: s.pool, Config: tlp.RunConfig{
			Policy:       s.cfg.Sched,
			RetryBackoff: s.cfg.RetryBackoff,
		}},
	}
	sess := s.sessions.open(datasetName(req.Scene, req.Inline), tenant, spam.NewSession(ds, opt))
	sess.mu.Lock()
	defer sess.mu.Unlock()

	ctx, cancel := s.requestContext(r, req.DeadlineMs)
	defer cancel()
	in, rep, ierr := sess.sess.Interpret(ctx)
	s.finishSessionRun(w, start, sess, in, rep, ierr, ctx.Err() != nil)
}

func (s *Server) handleSessionUpdate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	var req DeltaRequest
	if aerr := decodeBody(w, r, &req); aerr != nil {
		s.rejected.Add(1)
		s.writeAPIError(w, aerr)
		return
	}
	explicit := len(req.Removed)+len(req.Moved)+len(req.Added) > 0
	if req.Churn != nil && explicit {
		s.rejected.Add(1)
		s.writeAPIError(w, &apiError{status: 400, msg: "churn and an explicit delta are mutually exclusive"})
		return
	}
	sess := s.sessions.get(req.Session)
	if sess == nil {
		s.rejected.Add(1)
		s.writeAPIError(w, &apiError{status: 404, msg: "unknown session (expired or never opened)"})
		return
	}

	release, aerr := s.admit(r.Context(), sess.tenant)
	if aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	defer release()

	sess.mu.Lock()
	defer sess.mu.Unlock()

	// The delta is built under the session lock: churn reads the
	// session's current scene, and explicit deltas validate against it
	// (scene.Apply rejects unknown or colliding IDs).
	var delta *scene.Delta
	if req.Churn != nil {
		c := scene.Churn{
			Seed: req.Churn.Seed, Fraction: req.Churn.Fraction,
			Occlusion: req.Churn.Occlusion, MisSeg: req.Churn.MisSeg,
			Emergent: req.Churn.Emergent,
		}
		if c.Occlusion == 0 && c.MisSeg == 0 && c.Emergent == 0 {
			c = scene.DefaultChurn(req.Churn.Seed, req.Churn.Fraction)
		}
		delta = sess.sess.Scene().Churn(c)
	} else {
		var err error
		if delta, err = toDelta(&req); err != nil {
			s.rejected.Add(1)
			s.writeAPIError(w, &apiError{status: 400, msg: err.Error()})
			return
		}
	}

	ctx, cancel := s.requestContext(r, req.DeadlineMs)
	defer cancel()
	in, rep, ierr := sess.sess.Update(ctx, delta)
	if ierr != nil && rep == nil {
		// The delta was rejected before anything ran (unknown or
		// colliding region IDs); the session scene is untouched.
		s.rejected.Add(1)
		s.writeAPIError(w, &apiError{status: 400, msg: ierr.Error()})
		return
	}
	if ierr == nil {
		s.sessions.mu.Lock()
		s.sessions.updates++
		s.sessions.mu.Unlock()
	}
	s.finishSessionRun(w, start, sess, in, rep, ierr, ctx.Err() != nil)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	id := r.PathValue("id")
	if !s.sessions.close(id) {
		s.rejected.Add(1)
		s.writeAPIError(w, &apiError{status: 404, msg: "unknown session"})
		return
	}
	s.completed.Add(1)
	writeJSON(w, http.StatusOK, map[string]string{"closed": id})
}

// finishSessionRun settles counters and writes the response for one
// session interpretation run (initial or update).
func (s *Server) finishSessionRun(w http.ResponseWriter, start time.Time, sess *session,
	in *spam.Interpretation, rep *spam.UpdateReport, ierr error, ctxDone bool) {
	elapsed := time.Since(start)
	w.Header().Set("X-Elapsed-Ms", strconv.FormatFloat(float64(elapsed)/float64(time.Millisecond), 'f', 3, 64))
	switch {
	case ierr == nil:
		s.completed.Add(1)
	case errors.Is(ierr, context.DeadlineExceeded) || ctxDone:
		s.timedOut.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: ierr.Error()})
		return
	default:
		s.failed.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: ierr.Error()})
		return
	}
	req := &Request{} // session responses never run degraded
	writeJSON(w, http.StatusOK, &SessionResponse{
		Session: sess.id,
		Report:  summarize(rep),
		Result:  buildResponse(req, in),
	})
}

// requestContext derives the run context: client disconnect plus the
// clamped deadline.
func (s *Server) requestContext(r *http.Request, deadlineMs int) (context.Context, context.CancelFunc) {
	deadline := s.cfg.DefaultDeadline
	if deadlineMs > 0 {
		deadline = time.Duration(deadlineMs) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	return context.WithTimeout(r.Context(), deadline)
}

// toDelta converts an explicit wire delta to a scene delta.
func toDelta(req *DeltaRequest) (*scene.Delta, error) {
	d := &scene.Delta{Removed: req.Removed}
	for _, ir := range req.Moved {
		reg, err := toRegion(ir)
		if err != nil {
			return nil, err
		}
		d.Moved = append(d.Moved, reg)
	}
	for _, ir := range req.Added {
		reg, err := toRegion(ir)
		if err != nil {
			return nil, err
		}
		d.Added = append(d.Added, reg)
	}
	return d, nil
}

func datasetName(named string, inline *InlineScene) string {
	if named != "" {
		return named
	}
	if inline != nil {
		return "inline:" + inline.Name
	}
	return "inline"
}
