package serve

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"spampsm/internal/symtab"
)

// The three interpretation endpoints share one request lifecycle
// (Server.handle). These tests pin the places where the endpoints used
// to disagree, and FuzzRequestBodies feeds all three arbitrary bytes.

// serveDirect runs one request through the handler on this goroutine —
// no network, so a panic surfaces in the test and the request context
// is the caller's to cancel.
func serveDirect(ctx context.Context, s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx)
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestClientGoneIsCancelledEverywhere: a client that hangs up while its
// request runs is counted cancelled and answered 503 on every endpoint
// (/update and /session used to count it timedOut, 504).
func TestClientGoneIsCancelledEverywhere(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	id, _ := openSession(t, ts.URL, sessionBody(t, tinyScene("gone", 0), ""))
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct{ path, body string }{
		{"/interpret", sceneBody(t, tinyScene("gone-i", 3), "")},
		{"/session", sessionBody(t, tinyScene("gone-s", 5), "")},
		{"/update", fmt.Sprintf(`{"session":%q,"churn":{"seed":5,"fraction":0.34}}`, id)},
	} {
		before := s.Stats()
		rec := serveDirect(gone, s, c.path, c.body)
		after := s.Stats()
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d, want 503 (body %s)", c.path, rec.Code, rec.Body)
		}
		if after.Cancelled != before.Cancelled+1 || after.TimedOut != before.TimedOut {
			t.Errorf("%s: cancelled %d → %d, timedOut %d → %d; want +1 and +0",
				c.path, before.Cancelled, after.Cancelled, before.TimedOut, after.TimedOut)
		}
	}
	// The session the cancelled update ran on is still usable.
	if resp, _, b := updateSession(t, ts.URL, fmt.Sprintf(`{"session":%q}`, id)); resp.StatusCode != 200 {
		t.Errorf("session after a cancelled update: %d %s", resp.StatusCode, b)
	}
}

// TestEveryEndpointReports: /stats recent holds one report per
// interpretation request, whichever endpoint took it, under one
// strictly increasing seq.
func TestEveryEndpointReports(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	id, _ := openSession(t, ts.URL, sessionBody(t, tinyScene("rep", 0), ""))
	if resp, _, b := updateSession(t, ts.URL, fmt.Sprintf(`{"session":%q,"churn":{"seed":5,"fraction":0.34}}`, id)); resp.StatusCode != 200 {
		t.Fatalf("update: %d %s", resp.StatusCode, b)
	}
	if resp, b := postJSON(t, ts.URL, sceneBody(t, tinyScene("rep", 0), "")); resp.StatusCode != 200 {
		t.Fatalf("interpret: %d %s", resp.StatusCode, b)
	}
	recent := s.Stats().Recent
	want := []struct{ endpoint, session string }{{"/session", id}, {"/update", id}, {"/interpret", ""}}
	if len(recent) != len(want) {
		t.Fatalf("recent has %d reports, want %d: %+v", len(recent), len(want), recent)
	}
	for i, w := range want {
		r := recent[i]
		if r.Endpoint != w.endpoint || r.Session != w.session || r.Seq != int64(i+1) ||
			r.Dataset != "inline:rep" || r.Status != 200 || r.Tasks == 0 {
			t.Errorf("report %d = %+v, want seq %d from %s on session %q", i, r, i+1, w.endpoint, w.session)
		}
	}
}

// TestFailedOpenRegistersNothing: a /session whose initial
// interpretation does not complete answers with an error body that
// carries no id, so it must not hold one: it used to take a slot of
// MaxSessions — evicting a live session to get it — until evicted
// itself.
func TestFailedOpenRegistersNothing(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2, MaxSessions: 1})
	id, _ := openSession(t, ts.URL, sessionBody(t, tinyScene("kept", 0), ""))
	before := s.Stats().Sessions

	// The full DC dataset cannot finish inside 1 ms (TestDeadlineExceeded).
	resp, b := postPath(t, ts.URL, "/session", `{"scene":"DC","deadlineMs":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("hopeless open: %d %s, want 504", resp.StatusCode, b)
	}
	after := s.Stats().Sessions
	if after.Open != before.Open || after.Opened != before.Opened || after.Evicted != before.Evicted {
		t.Errorf("a failed open moved the session table: %+v → %+v", before, after)
	}
	if resp, _, b := updateSession(t, ts.URL, fmt.Sprintf(`{"session":%q}`, id)); resp.StatusCode != 200 {
		t.Errorf("the session open before it: %d %s, want 200", resp.StatusCode, b)
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

// TestCloseLeavesNoPoolProcesses: after a completed request, a shed
// one and one whose client hung up, Close leaves none of the shared
// pool's task processes behind.
func TestCloseLeavesNoPoolProcesses(t *testing.T) {
	before := poolProcesses()
	s := New(Config{Workers: 2, PerTenantMax: 1})
	if rec := serveDirect(context.Background(), s, "/interpret", sceneBody(t, tinyScene("drain", 0), "")); rec.Code != http.StatusOK {
		t.Fatalf("clean request: %d %s", rec.Code, rec.Body)
	}
	release, aerr := s.admit(context.Background(), "default")
	if aerr != nil {
		t.Fatal(aerr)
	}
	if rec := serveDirect(context.Background(), s, "/interpret", sceneBody(t, tinyScene("drain-shed", 1), "")); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("request past the tenant cap: %d %s, want 429", rec.Code, rec.Body)
	}
	release()
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if rec := serveDirect(gone, s, "/interpret", sceneBody(t, tinyScene("drain-gone", 2), "")); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("client gone: %d %s, want 503", rec.Code, rec.Body)
	}
	if st := s.Stats(); st.Completed != 1 || st.Shed != 1 || st.Cancelled != 1 || st.Pool.Cancelled == 0 {
		t.Fatalf("completed %d, shed %d, cancelled %d (pool %d); want 1, 1, 1 and a cancelled task", st.Completed, st.Shed, st.Cancelled, st.Pool.Cancelled)
	}
	s.Close()
	n := poolProcesses()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = poolProcesses() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Errorf("%d shared-pool task processes alive after Close", n-before)
	}
}

// TestSessionRefusesOneShotFields: /session decodes the /interpret
// body and refuses the three fields a session does not take, as it did
// when it had a body type without them, in the words the strict
// decoder refuses a field neither body has — the retired fault plan.
func TestSessionRefusesOneShotFields(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	for _, field := range []string{`"degraded":true`, `"firingBudget":100`, `"maxRetries":2`, `"faults":{"seed":1}`} {
		resp, b := postPath(t, ts.URL, "/session", sessionBody(t, tinyScene("refuse", 0), field))
		name, _, _ := strings.Cut(strings.Trim(field, `"`), `"`)
		want := fmt.Sprintf(`{"error":"bad request body: json: unknown field \"%s\""}`+"\n", name)
		if resp.StatusCode != 400 || string(b) != want {
			t.Errorf("%s: %d %s, want 400 %s", field, resp.StatusCode, b, want)
		}
	}
	if st := s.Stats(); st.Rejected != 4 || st.Sessions.Opened != 0 {
		t.Errorf("rejected %d, opened %d; want 4 and 0", st.Rejected, st.Sessions.Opened)
	}
}

// TestClientNumbersSizeNothing: two numbers a client sends used to size
// an allocation unchecked — rtfBatch as a capacity hint (10^9 of it is
// 8 GB) and churn's emergent share as a count of regions to generate.
// And no run of updates grows a session's scene past the bound on an
// inline one.
func TestClientNumbersSizeNothing(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	resp, b := postJSON(t, ts.URL, sceneBody(t, tinyScene("big-batch", 0), `"rtfBatch":1000000000`))
	if resp.StatusCode != 200 {
		t.Fatalf("rtfBatch 10^9: %d %s", resp.StatusCode, b)
	}
	id, _ := openSession(t, ts.URL, sessionBody(t, tinyScene("bounded", 0), ""))
	for _, emergent := range []string{"1000000000", "1.5", "-1"} {
		resp, _, b := updateSession(t, ts.URL,
			fmt.Sprintf(`{"session":%q,"churn":{"seed":1,"fraction":1,"emergent":%s}}`, id, emergent))
		if resp.StatusCode != 400 {
			t.Errorf("emergent %s: %d %s, want 400", emergent, resp.StatusCode, b)
		}
	}
	var added []string
	for i := 0; i <= maxInlineRegions-6; i++ { // the tiny scene has 6
		x := float64(10 * i)
		r, _ := json.Marshal(InlineRegion{ID: 100 + i, Poly: [][2]float64{{x, 0}, {x + 5, 0}, {x + 5, 5}}})
		added = append(added, string(r))
	}
	body := fmt.Sprintf(`{"session":%q,"added":[%s]}`, id, strings.Join(added, ","))
	if resp, _, b := updateSession(t, ts.URL, body); resp.StatusCode != 400 {
		t.Errorf("%d regions added to 6: %d %s, want 400", len(added), resp.StatusCode, b)
	}
	if resp, _, b := updateSession(t, ts.URL, fmt.Sprintf(`{"session":%q}`, id)); resp.StatusCode != 200 {
		t.Errorf("session after refused updates: %d %s", resp.StatusCode, b)
	}
}

// FuzzRequestBodies posts arbitrary bytes to /interpret, /session and
// /update. Whatever arrives: the handler does not panic; a body its
// endpoint's strict decoder refuses, or one with anything but JSON
// whitespace after its first value, is answered 400 — the retired
// per-request fault plan among them; a 5xx is only ever what the
// request asked for (a deadline, a firing budget), never what malformed
// input does to the server; and no client string becomes a symbol
// (TestInternTableBoundedByPrograms' property). The two warm-up
// sessions the /update seeds name are kept the most recently used, so
// the sessions other bodies open never evict them, and a run of the
// seed corpus fails unless a churn seed and an explicit-delta seed each
// reach a live session. Its first finds are in the corpus and in
// TestClientNumbersSizeNothing.
func FuzzRequestBodies(f *testing.F) {
	s := New(Config{Workers: 2, MaxSessions: 4})
	f.Cleanup(s.Close)
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	airport := marshal(tinyScene("fuzz", 0))
	suburb := tinyScene("fuzz-sub", 0)
	suburb.Domain = "suburban"
	suburban := marshal(suburb)
	region := marshal(InlineRegion{ID: 100, Kind: "client-kind",
		Poly: [][2]float64{{3000, 2000}, {3400, 2000}, {3400, 2400}, {3000, 2400}}, Intensity: 88, Texture: 0.5})

	// Both knowledge bases' programs are compiled — and a session is
	// open for /update bodies to name — before the table is measured.
	for _, body := range []string{`{"inline":` + airport + `}`, `{"inline":` + suburban + `}`} {
		if rec := serveDirect(context.Background(), s, "/session", body); rec.Code != 200 {
			f.Fatalf("warm-up /session: %d %s", rec.Code, rec.Body)
		}
	}
	interned := symtab.Interned()

	paths := []string{"/interpret", "/session", "/update"}
	seeds := 0
	for _, body := range []string{
		`{"inline":` + airport + `}`,
		`{"inline":` + airport + `,"reentry":true,"level":2,"rtfBatch":2,"tenant":"t1","deadlineMs":60000}`,
		`{"inline":` + airport + `,"degraded":true,"maxRetries":1,"firingBudget":50,"faults":{"seed":9,"buildFailRate":0.4,"permanentFraction":1}}`,
		`{"inline":` + suburban + `}`,
		`{"inline":` + airport + `,"rtfBatch":1000000000}`,
		`{"scene":"LAX"}`, `{"scene":"MOFF","level":9}`, `{"scene":"MOFF","bogus":1}`, `{}`, ``, `null`, `[]`, `{"inline":null}`,
		`{"scene":"SF","inline":{"regions":[]}}`,
		`{"inline":{"name":"x","domain":"lunar","regions":[{"id":1,"poly":[[0,0],[1,0],[1,1]]}]}}`,
		`{"inline":{"name":"x","domain":"airport","regions":[{"id":1,"poly":[[0,0],[1,0]]}]}}`,
		`{"inline":{"name":"x","regions":[{"id":1,"poly":[[0,0],[1,0],[1,1]]},{"id":1,"poly":[[2,0],[3,0],[3,1]]}]}}`,
		`{"session":"s1"}`, `{"session":"s404"}`,
		`{"session":"s1","churn":{"seed":5,"fraction":0.34}}`,
		`{"session":"s2","churn":{"seed":7,"fraction":0.5,"occlusion":1}}`,
		`{"session":"s1","removed":[6],"added":[` + region + `]}`,
		`{"session":"s1","removed":[999]}`,
		`{"session":"s1","moved":[` + region + `]}`,
		`{"session":"s1","removed":[1],"churn":{"seed":1,"fraction":0.1}}`,
		`{"session":"s1","churn":{"seed":1,"fraction":1,"emergent":1000000000}}`,
		`{"inline":` + airport + "} \t\r\n", `{"scene":"MOFF"} trailing garbage`, `{"scene":"MOFF"}{"scene":"SF"}`,
		`{"session":"s1"}]`, `{"session":"s1"}` + "\v",
	} {
		for i := range paths {
			f.Add(uint8(i), []byte(body))
			seeds++
		}
	}

	// served counts the /update bodies answered 200, by kind of delta.
	calls, served := 0, map[string]int{}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		calls++
		path := paths[int(endpoint)%len(paths)]
		s.sessions.get("s1")
		s.sessions.get("s2")
		rec := serveDirect(context.Background(), s, path, string(body))
		var req Request
		var delta DeltaRequest
		into, asked := any(&req), func() bool {
			return req.DeadlineMs > 0 || req.FiringBudget > 0
		}
		if path == "/update" {
			into, asked = &delta, func() bool { return delta.DeadlineMs > 0 }
		}
		dec := json.NewDecoder(strings.NewReader(string(body)))
		dec.DisallowUnknownFields()
		err := dec.Decode(into)
		if tail := body[dec.InputOffset():]; err == nil && strings.Trim(string(tail), " \t\r\n") != "" {
			err = fmt.Errorf("%q after the JSON value", tail)
		}
		if err != nil {
			if rec.Code != 400 {
				t.Errorf("POST %s %q: status %d for a body that does not decode (%v), want 400", path, body, rec.Code, err)
			}
		} else if rec.Code >= 500 && !asked() {
			t.Errorf("POST %s %q: status %d %s", path, body, rec.Code, rec.Body)
		}
		if path == "/update" && rec.Code == 200 {
			switch {
			case delta.Churn != nil:
				served["churn"]++
			case len(delta.Removed)+len(delta.Moved)+len(delta.Added) > 0:
				served["explicit"]++
			}
		}
		if n := symtab.Interned(); n != interned {
			t.Errorf("POST %s %q: intern table grew %d → %d", path, body, interned, n)
		}
	})
	// Only a run of the whole seed corpus, in order, is held to reaching
	// a live session: not one seed picked by -run, and not -fuzz, whose
	// inputs come in no fixed order.
	if calls < seeds || flag.Lookup("test.fuzz").Value.String() != "" {
		return
	}
	for _, kind := range []string{"churn", "explicit"} {
		if served[kind] == 0 {
			f.Errorf("no %s /update seed reached a live session", kind)
		}
	}
}
