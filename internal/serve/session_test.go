package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func postPath(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
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

func openSession(t *testing.T, url, body string) (string, *SessionResponse) {
	t.Helper()
	resp, b := postPath(t, url, "/session", body)
	if resp.StatusCode != 200 {
		t.Fatalf("POST /session: %d %s", resp.StatusCode, b)
	}
	var sr SessionResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Session == "" {
		t.Fatal("no session id in response")
	}
	return sr.Session, &sr
}

func updateSession(t *testing.T, url, body string) (*http.Response, *SessionResponse, []byte) {
	t.Helper()
	resp, b := postPath(t, url, "/update", body)
	var sr SessionResponse
	if resp.StatusCode == 200 {
		if err := json.Unmarshal(b, &sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, &sr, b
}

// closeSession issues DELETE /session/{id} and returns the status.
func closeSession(t *testing.T, url, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/session/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeSessionDifferentialIncremental is the serving layer's
// incremental oracle: after each churn update, the session's response
// must match a fresh /session opened over... nothing — the session's
// own updated scene is server-side state, so instead the oracle
// re-runs the same open+update sequence on a second server and
// compares the two byte streams, then checks that a one-shot
// /interpret of the original scene matches the session's initial
// result. Determinism across servers plus the spam-layer differential
// oracle (which compares against true from-scratch runs) pins the
// serving path.
func TestServeSessionDifferentialIncremental(t *testing.T) {
	cfg := Config{Workers: 4}
	_, ts1 := testServer(t, cfg)
	_, ts2 := testServer(t, cfg)

	open := sessionBody(t, tinyScene("inc", 0), "")
	id1, first1 := openSession(t, ts1.URL, open)
	id2, first2 := openSession(t, ts2.URL, open)
	if !jsonEqual(t, first1.Result, first2.Result) {
		t.Fatal("initial session results differ across identical servers")
	}
	if first1.Report.Fresh != first1.Report.Tasks || first1.Report.Reused != 0 {
		t.Fatalf("initial run not fully fresh: %+v", first1.Report)
	}

	// The one-shot path over the same scene must agree with the
	// session's initial interpretation.
	resp, b := postJSON(t, ts1.URL, sceneBody(t, tinyScene("inc", 0), ""))
	if resp.StatusCode != 200 {
		t.Fatalf("/interpret: %d %s", resp.StatusCode, b)
	}
	var oneShot Response
	if err := json.Unmarshal(b, &oneShot); err != nil {
		t.Fatal(err)
	}
	if !jsonEqual(t, &oneShot, first1.Result) {
		t.Fatalf("one-shot and session-initial results differ:\n%s\nvs session:\n%+v", b, first1.Result)
	}

	for i, frac := range []float64{0.2, 0.4} {
		up1 := fmt.Sprintf(`{"session":%q,"churn":{"seed":%d,"fraction":%g}}`, id1, 90+i, frac)
		up2 := fmt.Sprintf(`{"session":%q,"churn":{"seed":%d,"fraction":%g}}`, id2, 90+i, frac)
		r1, sr1, b1 := updateSession(t, ts1.URL, up1)
		r2, sr2, b2 := updateSession(t, ts2.URL, up2)
		if r1.StatusCode != 200 || r2.StatusCode != 200 {
			t.Fatalf("update %d: %d %s / %d %s", i, r1.StatusCode, b1, r2.StatusCode, b2)
		}
		sr1.Session, sr2.Session = "", ""
		if !jsonEqual(t, sr1, sr2) {
			t.Fatalf("update %d diverged across identical servers:\n%s\nvs\n%s", i, b1, b2)
		}
		if sr1.Report.Update != i+1 {
			t.Fatalf("update %d numbered %d", i, sr1.Report.Update)
		}
	}
}

func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ab) == string(bb)
}

func sessionBody(t *testing.T, is *InlineScene, extra string) string {
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

// TestServeSessionUpdateReuse checks the incremental accounting over
// the wire: an empty explicit delta reuses everything; churn reuses
// some and reruns some.
func TestServeSessionUpdateReuse(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	id, _ := openSession(t, ts.URL, sessionBody(t, tinyScene("reuse", 0), ""))

	resp, sr, b := updateSession(t, ts.URL, fmt.Sprintf(`{"session":%q}`, id))
	if resp.StatusCode != 200 {
		t.Fatalf("empty update: %d %s", resp.StatusCode, b)
	}
	if sr.Report.Rerun != 0 || sr.Report.Fresh != 0 || sr.Report.Reused != sr.Report.Tasks {
		t.Fatalf("empty update did work: %+v", sr.Report)
	}
	if sr.Report.UpdateInstr != sr.Report.DiffInstr {
		t.Fatalf("empty update charged past the diff: %+v", sr.Report)
	}

	resp, sr, b = updateSession(t, ts.URL,
		fmt.Sprintf(`{"session":%q,"churn":{"seed":5,"fraction":0.34}}`, id))
	if resp.StatusCode != 200 {
		t.Fatalf("churn update: %d %s", resp.StatusCode, b)
	}
	if sr.Report.DeltaSize == 0 {
		t.Fatalf("churn produced no delta: %+v", sr.Report)
	}
	if sr.Report.Rerun+sr.Report.Fresh == 0 {
		t.Fatalf("churn update ran nothing: %+v", sr.Report)
	}
}

// TestServeSessionExplicitDelta drives /update with explicit region
// lists and checks validation errors surface as 400s.
func TestServeSessionExplicitDelta(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	id, _ := openSession(t, ts.URL, sessionBody(t, tinyScene("expl", 0), ""))

	// Remove region 6, add region 100 (a grass-ish blob).
	add := InlineRegion{
		ID:        100,
		Poly:      [][2]float64{{3000, 2000}, {3400, 2000}, {3400, 2400}, {3000, 2400}},
		Intensity: 88, Texture: 0.5,
	}
	ab, _ := json.Marshal(add)
	resp, sr, b := updateSession(t, ts.URL,
		fmt.Sprintf(`{"session":%q,"removed":[6],"added":[%s]}`, id, ab))
	if resp.StatusCode != 200 {
		t.Fatalf("explicit delta: %d %s", resp.StatusCode, b)
	}
	if sr.Report.DeltaSize != 2 {
		t.Fatalf("delta size %d, want 2", sr.Report.DeltaSize)
	}
	if sr.Report.Dropped == 0 {
		t.Fatalf("removal dropped no tasks: %+v", sr.Report)
	}

	// Removing an unknown region is a 400 and leaves the session usable.
	resp, _, _ = updateSession(t, ts.URL, fmt.Sprintf(`{"session":%q,"removed":[999]}`, id))
	if resp.StatusCode != 400 {
		t.Fatalf("unknown removal: %d, want 400", resp.StatusCode)
	}
	resp, _, b = updateSession(t, ts.URL, fmt.Sprintf(`{"session":%q}`, id))
	if resp.StatusCode != 200 {
		t.Fatalf("session unusable after bad delta: %d %s", resp.StatusCode, b)
	}

	// Churn plus an explicit delta is rejected.
	resp, _, _ = updateSession(t, ts.URL,
		fmt.Sprintf(`{"session":%q,"removed":[1],"churn":{"seed":1,"fraction":0.1}}`, id))
	if resp.StatusCode != 400 {
		t.Fatalf("churn+explicit: %d, want 400", resp.StatusCode)
	}
}

// TestServeSessionLRU proves the live-session cap: opening past
// MaxSessions evicts the least recently used, later updates to it 404,
// and /stats counts the eviction.
func TestServeSessionLRU(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 2, MaxSessions: 2})
	id1, _ := openSession(t, ts.URL, sessionBody(t, tinyScene("a", 0), ""))
	id2, _ := openSession(t, ts.URL, sessionBody(t, tinyScene("b", 40), ""))

	// Touch id1 so id2 is the LRU victim.
	if resp, _, b := updateSession(t, ts.URL, fmt.Sprintf(`{"session":%q}`, id1)); resp.StatusCode != 200 {
		t.Fatalf("touch: %d %s", resp.StatusCode, b)
	}
	id3, _ := openSession(t, ts.URL, sessionBody(t, tinyScene("c", 80), ""))

	if resp, _, _ := updateSession(t, ts.URL, fmt.Sprintf(`{"session":%q}`, id2)); resp.StatusCode != 404 {
		t.Fatalf("evicted session answered %d, want 404", resp.StatusCode)
	}
	for _, id := range []string{id1, id3} {
		if resp, _, b := updateSession(t, ts.URL, fmt.Sprintf(`{"session":%q}`, id)); resp.StatusCode != 200 {
			t.Fatalf("surviving session %s: %d %s", id, resp.StatusCode, b)
		}
	}

	st := srv.Stats()
	if st.Sessions.Open != 2 || st.Sessions.Evicted != 1 || st.Sessions.Opened != 3 {
		t.Fatalf("session stats: %+v", st.Sessions)
	}
	if len(st.Sessions.Live) != 2 {
		t.Fatalf("live sessions: %+v", st.Sessions.Live)
	}

	// Explicit close.
	if status := closeSession(t, ts.URL, id3); status != 200 {
		t.Fatalf("DELETE: %d", status)
	}
	if resp, _, _ := updateSession(t, ts.URL, fmt.Sprintf(`{"session":%q}`, id3)); resp.StatusCode != 404 {
		t.Fatalf("closed session answered %d, want 404", resp.StatusCode)
	}
	if st := srv.Stats(); st.Sessions.Closed != 1 || st.Sessions.Open != 1 {
		t.Fatalf("after close: %+v", st.Sessions)
	}
}

// TestServeSessionConcurrentUpdates hammers several sessions from
// concurrent clients (run under -race via the oracle target): distinct
// sessions update in parallel, same-session updates serialize on the
// session mutex, and every response is well-formed.
func TestServeSessionConcurrentUpdates(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4, MaxSessions: 4})
	var ids []string
	for i := 0; i < 3; i++ {
		id, _ := openSession(t, ts.URL, sessionBody(t, tinyScene(fmt.Sprintf("cc%d", i), float64(i*30)), ""))
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for c := 0; c < 2; c++ {
		for i, id := range ids {
			wg.Add(1)
			go func(c, i int, id string) {
				defer wg.Done()
				for k := 0; k < 3; k++ {
					body := fmt.Sprintf(`{"session":%q,"churn":{"seed":%d,"fraction":0.25}}`, id, 7*c+k)
					resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(body))
					if err != nil {
						errs <- err.Error()
						return
					}
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						errs <- fmt.Sprintf("session %s: %d %s", id, resp.StatusCode, b)
						return
					}
					var sr SessionResponse
					if err := json.Unmarshal(b, &sr); err != nil {
						errs <- err.Error()
						return
					}
					if sr.Report.Tasks == 0 {
						errs <- fmt.Sprintf("session %s: empty report %s", id, b)
						return
					}
				}
			}(c, i, id)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
