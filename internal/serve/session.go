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
	"fmt"
	"net/http"
	"sync"

	"spampsm/internal/scene"
	"spampsm/internal/spam"
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

// open registers a session whose first interpretation has succeeded,
// evicting the least recently used one past the cap. Eviction only unlinks the table entry: a request
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

func sessionResponse(id string, rep *spam.UpdateReport, in *spam.Interpretation) *SessionResponse {
	// Session responses never run degraded.
	return &SessionResponse{Session: id, Report: summarize(rep), Result: buildResponse(false, in)}
}

// sessionRefuses names the first field of a /session body that only a
// one-shot /interpret takes ("" when there is none): a session's tasks
// are retained across updates, so none may be partial, budgeted or
// fault-injected.
func sessionRefuses(req *Request) string {
	switch {
	case req.Degraded:
		return "degraded"
	case req.FiringBudget != 0:
		return "firingBudget"
	case req.MaxRetries != 0:
		return "maxRetries"
	case req.Faults != nil:
		return "faults"
	}
	return ""
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var req Request
	s.handle(w, r, "/session", &req, func() (*exchange, *apiError) {
		if field := sessionRefuses(&req); field != "" {
			// Worded as the strict decoder words any other field /session
			// does not know.
			return nil, &apiError{status: 400, msg: fmt.Sprintf("bad request body: json: unknown field %q", field)}
		}
		if aerr := req.validate(); aerr != nil {
			return nil, aerr
		}
		x := &exchange{tenant: req.Tenant, dataset: datasetName(&req), deadlineMs: req.DeadlineMs}
		x.resolve = func() (runFunc, error) {
			ds, err := s.cache.dataset(&req)
			if err != nil {
				return nil, err
			}
			// The session clones the scene, so sharing the cached dataset
			// is safe; its updates never touch the cache's copy. The
			// runner pins the session's task queues to the shared pool
			// for its lifetime.
			sess := spam.NewSession(ds, s.options(&req, s.pool))
			return func(ctx context.Context) (*spam.Interpretation, any, error) {
				in, rep, err := sess.Interpret(ctx)
				if err != nil {
					// Nothing is registered: a session that never
					// answered has no id a client could use or close.
					return in, nil, err
				}
				x.live = s.sessions.open(x.dataset, x.tenant, sess)
				return in, sessionResponse(x.live.id, rep, in), nil
			}, nil
		}
		return x, nil
	})
}

func (s *Server) handleSessionUpdate(w http.ResponseWriter, r *http.Request) {
	var req DeltaRequest
	s.handle(w, r, "/update", &req, func() (*exchange, *apiError) {
		explicit := len(req.Removed)+len(req.Moved)+len(req.Added) > 0
		if req.Churn != nil && explicit {
			return nil, &apiError{status: 400, msg: "churn and an explicit delta are mutually exclusive"}
		}
		sess := s.sessions.get(req.Session)
		if sess == nil {
			return nil, &apiError{status: 404, msg: "unknown session (expired or never opened)"}
		}
		return &exchange{
			tenant:     sess.tenant,
			dataset:    sess.name,
			deadlineMs: req.DeadlineMs,
			live:       sess,
			resolve: func() (runFunc, error) {
				// The delta is built under the session lock: churn reads
				// the session's current scene, and explicit deltas
				// validate against it (scene.Apply rejects unknown or
				// colliding IDs).
				delta, err := toDelta(&req, sess.sess.Scene())
				if err != nil {
					return nil, err
				}
				return func(ctx context.Context) (*spam.Interpretation, any, error) {
					in, rep, err := sess.sess.Update(ctx, delta)
					switch {
					case err != nil && rep == nil:
						// The delta was rejected before anything ran
						// (unknown or colliding region IDs); the session
						// scene is untouched.
						return nil, nil, &apiError{status: 400, msg: err.Error()}
					case err != nil:
						return in, nil, err
					}
					s.sessions.mu.Lock()
					s.sessions.updates++
					s.sessions.mu.Unlock()
					return in, sessionResponse(sess.id, rep, in), nil
				}, nil
			},
		}, nil
	})
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

// toDelta converts a wire delta to a scene delta: the explicit region
// lists, or churn generated against the session's current scene. A
// session's scene is held to the bound on an inline one, so no run of
// updates grows it without limit.
func toDelta(req *DeltaRequest, current *scene.Scene) (*scene.Delta, error) {
	d := &scene.Delta{Removed: req.Removed}
	if req.Churn != nil {
		c := scene.Churn{
			Seed: req.Churn.Seed, Fraction: req.Churn.Fraction,
			Occlusion: req.Churn.Occlusion, MisSeg: req.Churn.MisSeg,
			Emergent: req.Churn.Emergent,
		}
		if c.Emergent < 0 || c.Emergent > 1 {
			// Emergent regions are generated, not sent: the count is
			// the client's number times the scene's size.
			return nil, fmt.Errorf("serve: churn emergent %g is not in 0..1", c.Emergent)
		}
		if c.Occlusion == 0 && c.MisSeg == 0 && c.Emergent == 0 {
			c = scene.DefaultChurn(req.Churn.Seed, req.Churn.Fraction)
		}
		d = current.Churn(c)
	}
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
	if n := len(current.Regions) + len(d.Added) - len(d.Removed); n > maxInlineRegions {
		return nil, fmt.Errorf("serve: update grows the scene to %d regions (max %d)", n, maxInlineRegions)
	}
	return d, nil
}

// datasetName is how /stats names what a request runs on.
func datasetName(req *Request) string {
	if req.Scene != "" {
		return req.Scene
	}
	if req.Inline != nil {
		return "inline:" + req.Inline.Name
	}
	return "inline"
}
