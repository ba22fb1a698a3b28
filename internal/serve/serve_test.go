package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"spampsm/internal/symtab"
)

// testServer builds a server plus its httptest front end. Callers own
// Close on both (in that order: HTTP first).
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/interpret", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// tinyScene builds a small inline airport scene: a long thin runway
// strip, some buildings and grass — enough for every phase to do real
// work without the calibrated datasets' cost.
func tinyScene(name string, shift float64) *InlineScene {
	rect := func(id int, x, y, w, h, intensity, texture float64) InlineRegion {
		return InlineRegion{
			ID:        id,
			Poly:      [][2]float64{{x, y}, {x + w, y}, {x + w, y + h}, {x, y + h}},
			Intensity: intensity,
			Texture:   texture,
		}
	}
	return &InlineScene{
		Name:   name,
		Domain: "airport",
		W:      4000, H: 3000,
		Regions: []InlineRegion{
			rect(1, 200+shift, 1400, 3000, 60, 170, 0.05), // runway-shaped
			rect(2, 400+shift, 1250, 900, 40, 160, 0.08),  // taxiway-shaped
			rect(3, 500+shift, 600, 260, 180, 120, 0.25),  // building-shaped
			rect(4, 900+shift, 600, 300, 200, 150, 0.15),  // apron-ish
			rect(5, 1400+shift, 500, 700, 500, 90, 0.55),  // grass-ish
			rect(6, 2300+shift, 700, 240, 160, 125, 0.22), // building-shaped
		},
	}
}

func sceneBody(t *testing.T, is *InlineScene, extra string) string {
	t.Helper()
	b, err := json.Marshal(is)
	if err != nil {
		t.Fatal(err)
	}
	if extra != "" {
		extra = "," + extra
	}
	return fmt.Sprintf(`{"inline":%s%s}`, b, extra)
}

func TestInterpretInlineScene(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL, sceneBody(t, tinyScene("t1", 0), ""))
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	var out Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Completeness.Complete {
		t.Errorf("clean run not complete: %+v", out.Completeness)
	}
	if out.Fragments == 0 {
		t.Error("no fragments hypothesized")
	}
	if len(out.Phases) != 4 {
		t.Errorf("phases = %d, want 4", len(out.Phases))
	}
	if resp.Header.Get("X-Elapsed-Ms") == "" {
		t.Error("missing X-Elapsed-Ms header")
	}
}

// The same scene served twice hits the dataset cache the second time.
func TestInlineSceneCacheHit(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	body := sceneBody(t, tinyScene("hit", 0), "")
	b1Resp, b1 := postJSON(t, ts.URL, body)
	b2Resp, b2 := postJSON(t, ts.URL, body)
	if b1Resp.StatusCode != 200 || b2Resp.StatusCode != 200 {
		t.Fatalf("status = %d, %d", b1Resp.StatusCode, b2Resp.StatusCode)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("same request, different bodies")
	}
	cs := s.cache.stats()
	if cs.Hits == 0 {
		t.Errorf("no cache hit recorded: %+v", cs)
	}
	if cs.InlineScenes != 1 {
		t.Errorf("inline scenes cached = %d, want 1", cs.InlineScenes)
	}
}

// Satellite 2: the inline-scene cache evicts LRU entries past its
// region cap, and reports evictions.
func TestInlineSceneCacheEviction(t *testing.T) {
	// Each tiny scene has 6 regions; cap at 13 keeps two.
	s, ts := testServer(t, Config{Workers: 2, SceneCacheRegions: 13})
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, ts.URL, sceneBody(t, tinyScene(fmt.Sprintf("ev%d", i), float64(i)), ""))
		if resp.StatusCode != 200 {
			t.Fatalf("scene %d: status = %d, body = %s", i, resp.StatusCode, body)
		}
	}
	cs := s.cache.stats()
	if cs.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2", cs.Evictions)
	}
	if cs.Regions > 13 {
		t.Errorf("cached regions = %d, exceeds cap 13", cs.Regions)
	}
	if cs.InlineScenes > 2 {
		t.Errorf("inline scenes cached = %d, want <= 2", cs.InlineScenes)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1}) // AllowFaults off
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty", `{}`, 400},
		{"both", `{"scene":"SF","inline":{"regions":[]}}`, 400},
		{"unknown scene", `{"scene":"LAX"}`, 400},
		{"bad level", `{"scene":"MOFF","level":9}`, 400},
		{"unknown field", `{"scene":"MOFF","bogus":1}`, 400},
		{"trailing garbage", `{"scene":"MOFF"} trailing garbage`, 400},
		{"second value", `{"scene":"MOFF"}{"scene":"SF"}`, 400},
		{"faults disabled", `{"scene":"MOFF","faults":{"seed":1}}`, 403},
		{"no regions", `{"inline":{"name":"x","domain":"airport","regions":[]}}`, 400},
		{"bad domain", `{"inline":{"name":"x","domain":"lunar","regions":[{"id":1,"poly":[[0,0],[1,0],[1,1]]}]}}`, 400},
		{"thin poly", `{"inline":{"name":"x","domain":"airport","regions":[{"id":1,"poly":[[0,0],[1,0]]}]}}`, 400},
		{"dup region", `{"inline":{"name":"x","domain":"airport","regions":[
			{"id":1,"poly":[[0,0],[1,0],[1,1]]},{"id":1,"poly":[[2,0],[3,0],[3,1]]}]}}`, 400},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, body)
		}
	}
}

// Admission: with one slot and no wait queue to spare, concurrent
// arrivals past the bound are shed with 429 + Retry-After.
func TestAdmissionShedsPastQueue(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 1, MaxQueued: 1})
	defer s.Close()

	rel1, aerr := s.admit(context.Background(), "a")
	if aerr != nil {
		t.Fatal(aerr)
	}
	// Fills the single wait-queue slot.
	queuedGot := make(chan func(), 1)
	go func() {
		rel2, aerr2 := s.admit(context.Background(), "a")
		if aerr2 != nil {
			t.Error(aerr2)
		}
		queuedGot <- rel2
	}()
	// Wait until the queue slot is actually occupied.
	for i := 0; s.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if _, aerr3 := s.admit(context.Background(), "a"); aerr3 == nil {
		t.Fatal("third admit should shed")
	} else if aerr3.status != 429 || aerr3.retryAfter == 0 {
		t.Fatalf("shed error = %+v, want 429 with Retry-After", aerr3)
	}
	rel1()
	rel2 := <-queuedGot
	rel2()
	if got := s.Stats().Shed; got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}
}

// A queued request whose client disconnects leaves the queue.
func TestAdmissionQueuedClientGone(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 1, MaxQueued: 4})
	defer s.Close()
	rel1, aerr := s.admit(context.Background(), "a")
	if aerr != nil {
		t.Fatal(aerr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan *apiError, 1)
	go func() {
		_, aerr := s.admit(ctx, "a")
		errc <- aerr
	}()
	for i := 0; s.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if aerr := <-errc; aerr == nil || aerr.status != 503 {
		t.Fatalf("queued-then-cancelled admit = %+v, want 503", aerr)
	}
	rel1()
	if s.queued.Load() != 0 {
		t.Error("queue counter leaked")
	}
}

// Per-tenant fairness: one tenant cannot occupy every slot.
func TestPerTenantFairness(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 8, PerTenantMax: 2})
	defer s.Close()
	relA1, aerr := s.admit(context.Background(), "a")
	if aerr != nil {
		t.Fatal(aerr)
	}
	relA2, aerr := s.admit(context.Background(), "a")
	if aerr != nil {
		t.Fatal(aerr)
	}
	if _, aerr := s.admit(context.Background(), "a"); aerr == nil || aerr.status != 429 {
		t.Fatalf("third same-tenant admit = %+v, want 429", aerr)
	}
	// A different tenant still gets in.
	relB, aerr := s.admit(context.Background(), "b")
	if aerr != nil {
		t.Fatalf("other tenant blocked: %v", aerr)
	}
	relA1()
	relA2()
	relB()
}

// Drain: new requests are refused, queued ones are released, in-flight
// ones finish, Close returns.
func TestDrain(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 1, MaxQueued: 4})
	rel1, aerr := s.admit(context.Background(), "a")
	if aerr != nil {
		t.Fatal(aerr)
	}
	errc := make(chan *apiError, 1)
	go func() {
		_, aerr := s.admit(context.Background(), "a")
		errc <- aerr
	}()
	for i := 0; s.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	s.Drain()
	if aerr := <-errc; aerr == nil || aerr.status != 503 {
		t.Fatalf("queued admit under drain = %+v, want 503", aerr)
	}
	if _, aerr := s.admit(context.Background(), "x"); aerr == nil || aerr.status != 503 {
		t.Fatalf("post-drain admit = %+v, want 503", aerr)
	}
	if s.Healthy() {
		t.Error("draining server reports healthy")
	}
	rel1()
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after drain")
	}

	// A request that reaches admission while Close runs is either
	// refused or counted before Close waits: it answers 200 or 503, never
	// 500 from a pool Close has already shut. The request is parked
	// inside admit on the lock Drain takes, Close runs until it returns
	// or parks on that lock too, and then both go on.
	s = New(Config{Workers: 1})
	body := sceneBody(t, tinyScene("drain", 0), "")
	s.tenantMu.Lock()
	rec := httptest.NewRecorder()
	answered := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/interpret", strings.NewReader(body)))
		close(answered)
	}()
	waitFor := func(what string, done func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				s.tenantMu.Unlock()
				t.Fatalf("%s: timed out", what)
			}
		}
	}
	waitFor("request parked in admit", func() bool { return running("serve.(*Server).admit(") })
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitFor("Close returned or parked in Drain", func() bool {
		select {
		case <-closed:
			return true
		default:
			return running("serve.(*Server).Drain(")
		}
	})
	s.tenantMu.Unlock()
	<-answered
	<-closed
	if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request admitted while Close ran answered %d (%s), want 200 or 503", rec.Code, rec.Body)
	}
}

// running reports whether some goroutine's stack holds the function.
func running(fn string) bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Contains(string(buf[:n]), fn)
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestHealthzAndStats is the service smoke: one server takes a clean
// request, fault-injected requests (transient faults retried to
// completion, permanent ones answered degraded) and a whole session
// lifecycle, passes /healthz before, between and after them, and
// accounts for all of it on /stats. The quarantine budget of 1 is
// real: the injected quarantines come from the requests' own fault
// plans, which the shared pool keeps out of it.
func TestHealthzAndStats(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, AllowFaults: true, QuarantineBudget: 1})
	healthz := func(when string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("healthz %s = %d, want 200", when, resp.StatusCode)
		}
	}
	stats := func() Stats {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	interpret := func(name, extra string) Response {
		t.Helper()
		resp, body := postJSON(t, ts.URL, sceneBody(t, tinyScene(name, 0), extra))
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status = %d, body = %s", name, resp.StatusCode, body)
		}
		var out Response
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	healthz("before any request")
	interpret("st", "")
	st := stats()
	if st.Completed != 1 || !st.Healthy {
		t.Errorf("stats = %+v, want 1 completed, healthy", st)
	}
	if len(st.Recent) != 1 || st.Recent[0].Status != 200 {
		t.Errorf("recent reports = %+v, want one 200", st.Recent)
	}
	if st.Pool.TasksRun == 0 {
		t.Error("pool counters empty after a completed interpretation")
	}
	// One task process, whose match arena outlives the request.
	if a := st.Pool.Arenas; len(a) != 1 || a[0].ArenaSlabs == 0 || a[0].ArenaBytes == 0 {
		t.Errorf("pool arena stats = %+v, want the one worker's held arena", a)
	}
	healthz("after a clean request")

	out := interpret("transient", `"maxRetries":3,"faults":{"seed":41,"buildFailRate":0.3,"panicRate":0.1}`)
	retries := 0
	for _, ph := range out.Phases {
		retries += ph.Retries
	}
	if !out.Completeness.Complete || retries == 0 {
		t.Errorf("transient faults were not injected and retried to completion: %d retries, %+v", retries, out.Completeness)
	}
	out = interpret("permanent", `"degraded":true,"maxRetries":1,"faults":{"seed":9,"buildFailRate":0.4,"permanentFraction":1}`)
	if out.Completeness.Complete {
		t.Errorf("permanent faults left the run complete: %+v", out.Completeness)
	}
	healthz("after fault-injected requests")

	id, _ := openSession(t, ts.URL, sessionBody(t, tinyScene("life", 0), ""))
	for i := 0; i < 2; i++ {
		resp, sr, b := updateSession(t, ts.URL,
			fmt.Sprintf(`{"session":%q,"churn":{"seed":%d,"fraction":0.34}}`, id, 5+i))
		if resp.StatusCode != 200 || sr.Report.Tasks == 0 {
			t.Fatalf("update %d: %d %s", i+1, resp.StatusCode, b)
		}
	}
	if status := closeSession(t, ts.URL, id); status != 200 {
		t.Fatalf("DELETE /session: %d", status)
	}
	healthz("after a session lifecycle")

	st = stats()
	if !st.Healthy || st.Completed != st.Requests || st.Degraded != 1 {
		t.Errorf("stats = %+v, want healthy, every request completed, 1 of them degraded", st)
	}
	if st.Pool.InjectedQuarantines == 0 || st.Pool.Quarantined != 0 {
		t.Errorf("pool counters = %+v, want the permanent faults' quarantines, all charged to the request's own plan", st.Pool)
	}
	if st.Sessions.Opened != 1 || st.Sessions.Closed != 1 || st.Sessions.Open != 0 {
		t.Errorf("session stats = %+v, want one opened and closed", st.Sessions)
	}
}

// A hopeless deadline yields 504 and leaves the server healthy. The
// scene is the full DC dataset — tens of milliseconds of work — because
// a tiny inline scene can finish inside the 1 ms deadline.
func TestDeadlineExceeded(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL, `{"scene":"DC","deadlineMs":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if !s.Healthy() {
		t.Error("deadline-exceeded request left the server unhealthy")
	}
	// The pool must not have charged the abandonment as a quarantine.
	if st := s.pool.Stats(); st.Quarantined != 0 {
		t.Errorf("pool quarantined = %d after a deadline, want 0", st.Quarantined)
	}
}

// Degraded mode with a permanent fault plan returns a valid partial
// interpretation with an explicit completeness record.
func TestDegradedPartialResult(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, AllowFaults: true})
	extra := `"degraded":true,"maxRetries":1,"faults":{"seed":9,"buildFailRate":0.4,"permanentFraction":1}`
	resp, body := postJSON(t, ts.URL, sceneBody(t, tinyScene("deg", 0), extra))
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	var out Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Completeness.Complete {
		t.Fatalf("permanent faults at 40%% left the run complete: %+v", out.Completeness)
	}
	if out.Completeness.Failed == 0 || len(out.Completeness.FailedTasks) == 0 {
		t.Errorf("degraded run does not name its failed tasks: %+v", out.Completeness)
	}
	// Deterministic: the same degraded request repeats byte-identically.
	resp2, body2 := postJSON(t, ts.URL, sceneBody(t, tinyScene("deg", 0), extra))
	if resp2.StatusCode != 200 || !bytes.Equal(body, body2) {
		t.Error("degraded response not reproducible")
	}
}

// TestInternTableBoundedByPrograms: the symbol table is append-only, so
// nothing a client sends may become a symbol. Two hundred inline scenes
// with distinct names and distinct ground-truth kind strings, then a
// session opened, churned, handed an explicit region and closed, leave
// the table exactly as the first request left it — the programs and
// the knowledge base filled it, and /stats says how far.
func TestInternTableBoundedByPrograms(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	scene := func(i int) *InlineScene {
		is := tinyScene(fmt.Sprintf("intern-%d", i), float64(i))
		for j := range is.Regions {
			is.Regions[j].Kind = fmt.Sprintf("client-kind-%d-%d", i, j)
		}
		return is
	}
	var first int
	for i := 0; i < 200; i++ {
		resp, body := postJSON(t, ts.URL, sceneBody(t, scene(i), ""))
		if resp.StatusCode != 200 {
			t.Fatalf("scene %d: status %d, body %s", i, resp.StatusCode, body)
		}
		if i == 0 {
			first = symtab.Interned()
		}
	}

	id, _ := openSession(t, ts.URL, sessionBody(t, scene(200), ""))
	resp, _, b := updateSession(t, ts.URL, fmt.Sprintf(`{"session":%q,"churn":{"seed":7,"fraction":0.34}}`, id))
	if resp.StatusCode != 200 {
		t.Fatalf("churn update: %d %s", resp.StatusCode, b)
	}
	add, _ := json.Marshal(InlineRegion{ID: 100, Kind: "client-kind-added",
		Poly:      [][2]float64{{3000, 2000}, {3400, 2000}, {3400, 2400}, {3000, 2400}},
		Intensity: 88, Texture: 0.5})
	resp, _, b = updateSession(t, ts.URL, fmt.Sprintf(`{"session":%q,"added":[%s]}`, id, add))
	if resp.StatusCode != 200 {
		t.Fatalf("explicit update: %d %s", resp.StatusCode, b)
	}
	if code := closeSession(t, ts.URL, id); code != 200 && code != 204 {
		t.Fatalf("close session: %d", code)
	}

	if last := symtab.Interned(); last != first {
		t.Errorf("intern table grew with traffic: %d symbols after the first request, %d after the last", first, last)
	}
	if got := s.Stats().Interned; got != first || got == 0 {
		t.Errorf("/stats interned = %d, want %d", got, first)
	}
}
