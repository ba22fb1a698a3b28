// Package serve implements interpretation-as-a-service: a long-running
// multi-tenant HTTP server that accepts concurrent scene-interpretation
// requests and runs them over shared compiled knowledge — one
// tlp.Pool of task processes, one compiled rule Programs per
// knowledge base, and one RegionStore per scene — with per-request
// isolation (context cancellation, deadlines, firing budgets),
// admission control with load shedding, per-tenant fairness, and a
// graceful drain. See docs/SERVING.md.
package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"spampsm/internal/cluster"
	"spampsm/internal/symtab"
	"spampsm/internal/tlp"
)

// Config sizes the server. The zero value is usable; withDefaults
// fills every knob.
type Config struct {
	// Workers is the shared pool's task-process count — the only place
	// execution parallelism is configured; per-request worker counts
	// are ignored.
	Workers int
	// MaxConcurrent is the number of interpretations allowed in flight
	// at once (the admission semaphore).
	MaxConcurrent int
	// MaxQueued bounds how many admitted requests may wait for the
	// semaphore; beyond it new arrivals are shed with 429 + Retry-After.
	MaxQueued int
	// PerTenantMax caps one tenant's in-flight interpretations so no
	// tenant can occupy every slot. 0 = no per-tenant cap.
	PerTenantMax int
	// DefaultDeadline applies when a request names none; maxDeadline
	// clamps what a request may ask for.
	DefaultDeadline time.Duration
	// SceneCacheRegions caps the inline-scene dataset cache by total
	// cached region count (the RegionStore's size driver); least
	// recently used scenes are evicted past it.
	SceneCacheRegions int
	// QuarantineBudget is the shared pool's quarantine tolerance
	// before /healthz degrades. Only live runs' quarantines count —
	// cancelled runs and tasks that ran out of their request's own
	// firing budget are class-split out. 0 = no budget.
	QuarantineBudget int
	// MaxSessions bounds the live incremental sessions (POST /session);
	// opening one past the cap evicts the least recently used. Each
	// session retains a private scene clone, its region store and every
	// task's result (statistics, cost log, extracted working memory — no
	// engine), so the cap is the server's main memory lever for the
	// incremental path.
	MaxSessions int
	// Cluster, when set, executes named-scene requests across worker
	// processes instead of the shared in-process pool (the cmd layer
	// wires a cluster.Coordinator in; see docs/CLUSTER.md). Inline
	// scenes and sessions always stay on the shared pool: an inline
	// scene exists only in this process, and so does a session's scene —
	// a private clone its deltas mutate, which no worker has.
	Cluster tlp.Queue
}

const (
	// maxDeadline clamps the deadline a request may ask for.
	maxDeadline = 5 * time.Minute
	// retryBackoff is every request's first-retry delay (doubling).
	retryBackoff = time.Millisecond
	// recentReports is how many per-request reports /stats retains.
	recentReports = 64
)

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 2 * c.Workers
	}
	if c.MaxQueued < 1 {
		c.MaxQueued = 4 * c.MaxConcurrent
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.SceneCacheRegions < 1 {
		c.SceneCacheRegions = 4096
	}
	if c.MaxSessions < 1 {
		c.MaxSessions = 8
	}
	return c
}

// Server is one interpretation service instance.
type Server struct {
	cfg      Config
	pool     *tlp.Pool
	cache    *datasetCache
	sessions *sessionStore
	sem      chan struct{}
	queued   atomic.Int64

	draining atomic.Bool // set under tenantMu
	drainCh  chan struct{}
	inflight sync.WaitGroup

	// tenantMu guards tenants and orders admission against Drain: a
	// request checks draining and joins inflight under it, so once Drain
	// has set draining, Close's inflight.Wait covers every request that
	// got in.
	tenantMu sync.Mutex
	tenants  map[string]int

	seq       atomic.Int64
	requests  atomic.Int64
	shipped   atomic.Int64 // cluster wire bytes across all requests
	completed atomic.Int64
	degraded  atomic.Int64
	failed    atomic.Int64
	timedOut  atomic.Int64
	cancelled atomic.Int64
	shed      atomic.Int64
	rejected  atomic.Int64 // malformed / invalid requests

	recentMu sync.Mutex
	recent   []RequestReport // ring, newest last
}

// New makes a server: caches empty, and a pool whose task processes
// start with the first request.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		pool:     &tlp.Pool{Workers: cfg.Workers, QuarantineBudget: cfg.QuarantineBudget},
		cache:    newDatasetCache(cfg.SceneCacheRegions),
		sessions: newSessionStore(cfg.MaxSessions),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		drainCh:  make(chan struct{}),
		tenants:  map[string]int{},
	}
}

// apiError is an admission or validation failure with its HTTP shape.
type apiError struct {
	status     int
	retryAfter int // seconds; 0 = no Retry-After header
	msg        string
}

func (e *apiError) Error() string { return e.msg }

// admit applies admission control for one request: drain state, the
// per-tenant cap, then the concurrency semaphore with a bounded wait
// queue. On success the returned release settles every counter; on
// failure the *apiError says how to answer.
func (s *Server) admit(ctx context.Context, tenant string) (release func(), aerr *apiError) {
	s.tenantMu.Lock()
	if s.draining.Load() {
		s.tenantMu.Unlock()
		return nil, &apiError{status: 503, retryAfter: 5, msg: "server draining"}
	}
	if s.cfg.PerTenantMax > 0 && s.tenants[tenant] >= s.cfg.PerTenantMax {
		s.tenantMu.Unlock()
		s.shed.Add(1)
		return nil, &apiError{status: 429, retryAfter: 1,
			msg: "tenant concurrency limit reached"}
	}
	s.tenants[tenant]++
	s.inflight.Add(1)
	s.tenantMu.Unlock()
	undo := func() {
		s.tenantMu.Lock()
		s.tenants[tenant]--
		if s.tenants[tenant] == 0 {
			delete(s.tenants, tenant)
		}
		s.tenantMu.Unlock()
		s.inflight.Done()
	}

	select {
	case s.sem <- struct{}{}:
	default:
		// No free slot: wait, but only if the wait queue has room.
		if s.queued.Add(1) > int64(s.cfg.MaxQueued) {
			s.queued.Add(-1)
			undo()
			s.shed.Add(1)
			return nil, &apiError{status: 429, retryAfter: 1, msg: "server overloaded"}
		}
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			undo()
			s.cancelled.Add(1)
			return nil, &apiError{status: 503, msg: "client gone while queued"}
		case <-s.drainCh:
			s.queued.Add(-1)
			undo()
			s.shed.Add(1)
			return nil, &apiError{status: 503, retryAfter: 5, msg: "server draining"}
		}
	}
	return func() {
		<-s.sem
		undo()
	}, nil
}

// Drain stops admitting new requests; in-flight ones run to completion.
func (s *Server) Drain() {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
}

// Close drains, waits for every in-flight request, and shuts the
// shared pool down.
func (s *Server) Close() {
	s.Drain()
	s.inflight.Wait()
	s.pool.Close()
}

// Healthy reports whether the server should pass health checks:
// accepting requests and the shared pool within its quarantine budget.
func (s *Server) Healthy() bool {
	return !s.draining.Load() && s.pool.Healthy()
}

// RequestReport is the per-request accounting kept for /stats, one per
// /interpret, /session or /update that ran: which request, what it ran,
// how its tasks fared. Wall-clock time lives
// here (and in the X-Elapsed-Ms response header) — never in response
// bodies, which stay byte-deterministic.
type RequestReport struct {
	Seq         int64  `json:"seq"`
	Endpoint    string `json:"endpoint"`
	Session     string `json:"session,omitempty"` // the live session it ran on
	Dataset     string `json:"dataset"`
	Tenant      string `json:"tenant"`
	Status      int    `json:"status"`
	Complete    bool   `json:"complete"`
	Tasks       int    `json:"tasks"`
	Attempts    int    `json:"attempts"`
	Retries     int    `json:"retries"`
	Panics      int    `json:"panics"`
	Quarantined int    `json:"quarantined"`
	Cancelled   int    `json:"cancelled"`
	// ShippedBytes is the request's total task+result wire traffic when
	// it ran on the cluster backend (0 for in-process execution).
	ShippedBytes int64   `json:"shippedBytes,omitempty"`
	ElapsedMs    float64 `json:"elapsedMs"`
}

func (s *Server) record(rep RequestReport) {
	s.recentMu.Lock()
	s.recent = append(s.recent, rep)
	if over := len(s.recent) - recentReports; over > 0 {
		s.recent = append(s.recent[:0], s.recent[over:]...)
	}
	s.recentMu.Unlock()
}

// Stats is the /stats document.
type Stats struct {
	Healthy  bool `json:"healthy"`
	Draining bool `json:"draining"`

	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Degraded  int64 `json:"degraded"` // completed with partial results
	Failed    int64 `json:"failed"`
	TimedOut  int64 `json:"timedOut"`
	Cancelled int64 `json:"cancelled"`
	Shed      int64 `json:"shed"`
	Rejected  int64 `json:"rejected"`
	InFlight  int   `json:"inFlight"`
	Queued    int64 `json:"queued"`
	// Interned is the size of the process's symbol table. It only
	// grows, and only programs and the knowledge base feed it: a value
	// that climbs with traffic means a request string became a symbol.
	Interned int `json:"interned"`
	// ShippedBytes totals the cluster backend's wire traffic (0 when
	// serving purely in-process).
	ShippedBytes int64 `json:"shippedBytes"`
	// Cluster is the cluster backend's coordinator accounting — chunk
	// shipping, steals, what worker deaths requeued with
	// and without a charged attempt, and the per-worker breakdown, each
	// slot's peak pipeline depth included.
	// Nil when serving purely in-process or when the backend exposes
	// no stats.
	Cluster *cluster.Stats `json:"cluster,omitempty"`

	Pool       tlp.Counters    `json:"pool"`
	SceneCache CacheStats      `json:"sceneCache"`
	Sessions   SessionStats    `json:"sessions"`
	Tenants    map[string]int  `json:"tenants,omitempty"`
	Recent     []RequestReport `json:"recent,omitempty"`
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.tenantMu.Lock()
	tenants := make(map[string]int, len(s.tenants))
	inFlight := 0
	for t, n := range s.tenants {
		tenants[t] = n
		inFlight += n
	}
	s.tenantMu.Unlock()
	s.recentMu.Lock()
	recent := append([]RequestReport(nil), s.recent...)
	s.recentMu.Unlock()
	// The backend interface is deliberately narrow (Submit only); the
	// richer coordinator accounting is surfaced when the backend has it.
	var clusterStats *cluster.Stats
	if cs, ok := s.cfg.Cluster.(interface{ Stats() cluster.Stats }); ok {
		st := cs.Stats()
		clusterStats = &st
	}
	return Stats{
		Healthy:      s.Healthy(),
		Draining:     s.draining.Load(),
		Requests:     s.requests.Load(),
		Completed:    s.completed.Load(),
		Degraded:     s.degraded.Load(),
		Failed:       s.failed.Load(),
		TimedOut:     s.timedOut.Load(),
		Cancelled:    s.cancelled.Load(),
		Shed:         s.shed.Load(),
		Rejected:     s.rejected.Load(),
		InFlight:     inFlight,
		Queued:       s.queued.Load(),
		Interned:     symtab.Interned(),
		ShippedBytes: s.shipped.Load(),
		Cluster:      clusterStats,
		Pool:         s.pool.Stats(),
		SceneCache:   s.cache.stats(),
		Sessions:     s.sessions.stats(),
		Tenants:      tenants,
		Recent:       recent,
	}
}
