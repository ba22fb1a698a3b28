package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"spampsm/internal/geom"
	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// maxBodyBytes bounds a request body.
const maxBodyBytes = 8 << 20

// Request is the /interpret and /session wire format. Exactly one of
// Scene (a named dataset) or Inline (a scene carried in the request)
// must be set; for /session it names the scene and interpretation
// options the session is pinned to, and Degraded, FiringBudget and
// MaxRetries are refused.
type Request struct {
	Scene  string       `json:"scene,omitempty"` // SF | DC | MOFF
	Inline *InlineScene `json:"inline,omitempty"`
	Tenant string       `json:"tenant,omitempty"` // or X-Tenant header

	Level    int  `json:"level,omitempty"`    // LCC decomposition level 1..3
	RTFBatch int  `json:"rtfBatch,omitempty"` // regions per RTF task
	ReEntry  bool `json:"reentry,omitempty"`
	// Degraded asks for a partial interpretation instead of an error
	// when some tasks exhaust their retries.
	Degraded bool `json:"degraded,omitempty"`

	DeadlineMs   int `json:"deadlineMs,omitempty"`   // request deadline
	FiringBudget int `json:"firingBudget,omitempty"` // per-task firing cap
	MaxRetries   int `json:"maxRetries,omitempty"`
}

// InlineScene is a scene carried in the request body.
type InlineScene struct {
	Name    string         `json:"name"`
	Domain  string         `json:"domain"` // airport | suburban
	W       float64        `json:"w"`
	H       float64        `json:"h"`
	Regions []InlineRegion `json:"regions"`
}

// InlineRegion is one region of an inline scene.
type InlineRegion struct {
	ID        int          `json:"id"`
	Poly      [][2]float64 `json:"poly"`
	Intensity float64      `json:"intensity"`
	Texture   float64      `json:"texture"`
	Kind      string       `json:"kind,omitempty"` // ground truth (evaluation only)
}

// maxInlineRegions bounds one inline scene.
const maxInlineRegions = 2048

func (is *InlineScene) toScene() (*scene.Scene, error) {
	d := scene.Domain(is.Domain)
	if d == "" {
		d = scene.Airport
	}
	if d != scene.Airport && d != scene.Suburban {
		return nil, fmt.Errorf("serve: unknown domain %q", is.Domain)
	}
	if len(is.Regions) == 0 {
		return nil, errors.New("serve: inline scene has no regions")
	}
	if len(is.Regions) > maxInlineRegions {
		return nil, fmt.Errorf("serve: inline scene has %d regions (max %d)",
			len(is.Regions), maxInlineRegions)
	}
	name := is.Name
	if name == "" {
		name = "inline"
	}
	s := &scene.Scene{Name: name, Domain: d, W: is.W, H: is.H}
	seen := map[int]bool{}
	for _, r := range is.Regions {
		if seen[r.ID] {
			return nil, fmt.Errorf("serve: duplicate region id %d", r.ID)
		}
		seen[r.ID] = true
		reg, err := toRegion(r)
		if err != nil {
			return nil, err
		}
		s.Regions = append(s.Regions, reg)
	}
	return s, nil
}

// toRegion converts one wire region, shared by inline scenes and
// explicit session deltas.
func toRegion(r InlineRegion) (*scene.Region, error) {
	if len(r.Poly) < 3 {
		return nil, fmt.Errorf("serve: region %d: polygon needs >= 3 points", r.ID)
	}
	poly := make(geom.Polygon, len(r.Poly))
	for i, p := range r.Poly {
		poly[i] = geom.Point{X: p[0], Y: p[1]}
	}
	return &scene.Region{
		ID: r.ID, Poly: poly, TrueKind: scene.Kind(r.Kind),
		Intensity: r.Intensity, Texture: r.Texture,
	}, nil
}

// PhaseSummary is one phase of a Response: counts only, all of them
// deterministic for a fixed request (timing never appears here).
type PhaseSummary struct {
	Phase       string `json:"phase"`
	Tasks       int    `json:"tasks"`
	Firings     int    `json:"firings"`
	Hypotheses  int    `json:"hypotheses"`
	Attempts    int    `json:"attempts"`
	Retries     int    `json:"retries"`
	Recovered   int    `json:"recovered"`
	Quarantined int    `json:"quarantined"`
	Cancelled   int    `json:"cancelled"`
	Panics      int    `json:"panics"`
}

// Response is the /interpret result. Its JSON encoding is a pure
// function of the request (wall-clock time travels in the
// X-Elapsed-Ms header), so concurrent serving can be differentially
// tested against solo runs byte for byte.
type Response struct {
	Dataset      string            `json:"dataset"`
	Degraded     bool              `json:"degraded"` // ran in degraded (partial-tolerant) mode
	Completeness spam.Completeness `json:"completeness"`

	Fragments       int  `json:"fragments"`
	Pairs           int  `json:"pairs"`
	Outcomes        int  `json:"outcomes"`
	FunctionalAreas int  `json:"functionalAreas"`
	Predictions     int  `json:"predictions"`
	ModelFound      bool `json:"modelFound"`
	ModelScore      int  `json:"modelScore"`
	ModelFAs        int  `json:"modelFAs"`

	Phases []PhaseSummary `json:"phases"`
}

// Handler returns the server's HTTP interface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /interpret", s.handleInterpret)
	mux.HandleFunc("POST /session", s.handleSessionOpen)
	mux.HandleFunc("POST /update", s.handleSessionUpdate)
	mux.HandleFunc("DELETE /session/{id}", s.handleSessionClose)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeAPIError(w http.ResponseWriter, aerr *apiError) {
	if aerr.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(aerr.retryAfter))
	}
	writeJSON(w, aerr.status, errorBody{Error: aerr.msg})
}

// validate checks what /interpret and /session both require of a body.
func (req *Request) validate() *apiError {
	if (req.Scene == "") == (req.Inline == nil) {
		return &apiError{status: 400, msg: "exactly one of scene or inline is required"}
	}
	if req.Level < 0 || req.Level > 3 {
		return &apiError{status: 400, msg: "level must be 1..3"}
	}
	return nil
}

// options maps a request onto the interpretation it asks for, its
// task queues bound to queue.
func (s *Server) options(req *Request, queue tlp.Queue) spam.InterpretOptions {
	cfg := tlp.RunConfig{
		Policy:       s.cfg.Sched,
		MaxRetries:   req.MaxRetries,
		RetryBackoff: retryBackoff,
		FiringBudget: req.FiringBudget,
	}
	return spam.InterpretOptions{
		Level:    spam.Level(req.Level),
		RTFBatch: req.RTFBatch,
		ReEntry:  req.ReEntry,
		Degraded: req.Degraded,
		Runner:   tlp.BoundQueue{Queue: queue, Config: cfg},
	}
}

// exchange is what an endpoint supplies for one decoded, validated
// request; handle does everything else.
type exchange struct {
	tenant     string // admitted under; "" = the X-Tenant header, then "default"
	dataset    string // what runs, as /stats names it
	deadlineMs int
	// live is the registered session the request ran on: /update's
	// target, locked from admission until the response is written, or
	// the one /session registered once its first interpretation
	// succeeded.
	live *session
	// resolve finds what the request runs on — a cached dataset, a new
	// session, a delta against a live one — and returns the call to
	// make on it. It runs only once the request is admitted, because an
	// inline scene builds real state and must not bypass the
	// concurrency budget; its error is the client's.
	resolve func() (runFunc, error)
}

// runFunc makes an endpoint's one call into spam and returns the
// interpretation (for the report; partial or nil beside an error) and
// the body that answers it. An *apiError says the request was refused
// before anything ran.
type runFunc func(ctx context.Context) (in *spam.Interpretation, body any, err error)

// handle is the lifecycle of an interpretation request — /interpret,
// /session and /update — written once: count it, decode the body
// (bounded, strict), let the endpoint validate it and say what it
// runs, default the tenant, admit, resolve the target, derive the
// clamped deadline, run, classify the outcome, settle the counters,
// report to /stats, stamp X-Elapsed-Ms, answer.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, endpoint string, body bodyValue, plan func() (*exchange, *apiError)) {
	start := time.Now()
	s.requests.Add(1)
	reject := func(aerr *apiError) {
		s.rejected.Add(1)
		s.writeAPIError(w, aerr)
	}
	aerr := decodeBody(w, r, body)
	var x *exchange
	if aerr == nil {
		x, aerr = plan()
	}
	if aerr != nil {
		reject(aerr)
		return
	}
	if x.tenant == "" {
		x.tenant = r.Header.Get("X-Tenant")
	}
	if x.tenant == "" {
		x.tenant = "default"
	}

	release, aerr := s.admit(r.Context(), x.tenant)
	if aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	defer release()

	if x.live != nil {
		x.live.mu.Lock()
		defer x.live.mu.Unlock()
	}
	run, err := x.resolve()
	if err != nil {
		reject(&apiError{status: 400, msg: err.Error()})
		return
	}

	// Request-scoped execution context: client disconnect plus the
	// (clamped) deadline.
	deadline := s.cfg.DefaultDeadline
	if x.deadlineMs > 0 {
		// Clamped in milliseconds: a client's number times a
		// millisecond can overflow a Duration.
		deadline = time.Duration(min(x.deadlineMs, int(maxDeadline/time.Millisecond))) * time.Millisecond
	}
	deadline = min(deadline, maxDeadline)
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	in, answer, ierr := run(ctx)
	if errors.As(ierr, &aerr) {
		reject(aerr)
		return
	}
	elapsed := time.Since(start)
	status := http.StatusOK
	switch {
	case ierr == nil:
		s.completed.Add(1)
		if !in.Completeness.Complete {
			s.degraded.Add(1)
		}
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.timedOut.Add(1)
		status = http.StatusGatewayTimeout
	case ctx.Err() != nil:
		// Client went away; nobody reads this response.
		s.cancelled.Add(1)
		status = http.StatusServiceUnavailable
	default:
		s.failed.Add(1)
		status = http.StatusInternalServerError
	}
	rep := requestReport(s.seq.Add(1), endpoint, x, in, status, elapsed)
	s.shipped.Add(rep.ShippedBytes)
	s.record(rep)

	w.Header().Set("X-Elapsed-Ms", strconv.FormatFloat(float64(elapsed)/float64(time.Millisecond), 'f', 3, 64))
	if ierr != nil {
		answer = errorBody{Error: ierr.Error()}
	}
	writeJSON(w, status, answer)
}

func (s *Server) handleInterpret(w http.ResponseWriter, r *http.Request) {
	var req Request
	s.handle(w, r, "/interpret", &req, func() (*exchange, *apiError) {
		if aerr := req.validate(); aerr != nil {
			return nil, aerr
		}
		// Named scenes can ship: the workers regenerate them from the
		// specs registered at startup. Inline scenes exist only in this
		// process, so they stay on the shared pool.
		var queue tlp.Queue = s.pool
		if s.cfg.Cluster != nil && req.Scene != "" {
			queue = s.cfg.Cluster
		}
		return &exchange{
			tenant:     req.Tenant,
			dataset:    datasetName(&req),
			deadlineMs: req.DeadlineMs,
			resolve: func() (runFunc, error) {
				ds, err := s.cache.dataset(&req)
				if err != nil {
					return nil, err
				}
				return func(ctx context.Context) (*spam.Interpretation, any, error) {
					in, err := ds.InterpretContext(ctx, s.options(&req, queue))
					if err != nil {
						return in, nil, err
					}
					return in, buildResponse(req.Degraded, in), nil
				}, nil
			},
		}, nil
	})
}

func buildResponse(degraded bool, in *spam.Interpretation) *Response {
	resp := &Response{
		Dataset:         in.Dataset.Name,
		Degraded:        degraded,
		Completeness:    in.Completeness,
		Fragments:       len(in.Fragments),
		Pairs:           len(in.Pairs),
		Outcomes:        len(in.Outcomes),
		FunctionalAreas: len(in.FAs),
		Predictions:     len(in.Predictions),
		ModelFound:      in.ModelFound,
	}
	if in.ModelFound {
		resp.ModelScore = in.Model.Score
		resp.ModelFAs = in.Model.NFAs
	}
	for _, p := range in.Phases {
		ps := PhaseSummary{
			Phase:      p.Phase,
			Tasks:      p.Tasks,
			Firings:    p.Firings,
			Hypotheses: p.Hypotheses,
		}
		if rep := p.Report; rep != nil {
			ps.Attempts = rep.Attempts
			ps.Retries = rep.Retries
			ps.Recovered = rep.Recovered
			ps.Quarantined = rep.Quarantined
			ps.Cancelled = rep.Cancelled
			ps.Panics = rep.Panics
		}
		resp.Phases = append(resp.Phases, ps)
	}
	return resp
}

func requestReport(seq int64, endpoint string, x *exchange, in *spam.Interpretation, status int, elapsed time.Duration) RequestReport {
	rep := RequestReport{
		Seq:       seq,
		Endpoint:  endpoint,
		Dataset:   x.dataset,
		Tenant:    x.tenant,
		Status:    status,
		ElapsedMs: float64(elapsed) / float64(time.Millisecond),
	}
	if x.live != nil {
		rep.Session = x.live.id
	}
	if in != nil {
		rep.Complete = in.Completeness.Complete
		rep.Tasks = in.Completeness.Tasks
		rep.Cancelled = in.Completeness.Cancelled
		for _, p := range in.Phases {
			for _, r := range p.Results {
				if r != nil {
					rep.ShippedBytes += int64(r.ShipBytes)
				}
			}
			if p.Report == nil {
				continue
			}
			rep.Attempts += p.Report.Attempts
			rep.Retries += p.Report.Retries
			rep.Panics += p.Report.Panics
			rep.Quarantined += p.Report.Quarantined
		}
	}
	return rep
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	body := map[string]any{
		"status":      "ok",
		"draining":    s.draining.Load(),
		"poolHealthy": s.pool.Healthy(),
		"quarantined": st.Quarantined,
	}
	code := http.StatusOK
	if !s.Healthy() {
		body["status"] = "unhealthy"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
