package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// chaosConfig sizes a server so that all chaos requests are admitted
// concurrently (no admission queueing — the test is about execution
// isolation, not shedding).
func chaosConfig() Config {
	return Config{Workers: 4, MaxConcurrent: 16, MaxQueued: 16}
}

// TestChaosConcurrentIsolation is the per-request isolation proof: a
// mixed batch of simultaneous requests — named and inline scenes, one
// whose tasks outrun its firing budget and are retried, one degraded
// with every task over its budget, one cancelled mid-flight — runs
// against one shared server, and every surviving request's response
// body is byte-identical to the same request served solo. One
// request's failures, retries, or disappearance must leave no
// fingerprint on any other request.
func TestChaosConcurrentIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is not short")
	}
	reqs := []struct {
		name, tenant, body string
	}{
		{"named-moff", "t1", `{"scene":"MOFF"}`},
		{"inline-a", "t1", sceneBody(t, tinyScene("ca", 0), "")},
		{"inline-b", "t2", sceneBody(t, tinyScene("cb", 7), "")},
		{"inline-reentry", "t2", sceneBody(t, tinyScene("cc", 13), `"reentry":true`)},
		{"inline-level2", "t3", sceneBody(t, tinyScene("cd", 19), `"level":2`)},
		{"inline-retried-budget", "t3", sceneBody(t, tinyScene("ce", 23),
			`"degraded":true,"maxRetries":2,"firingBudget":12`)},
		{"inline-degraded-budget", "t4", sceneBody(t, tinyScene("cf", 29),
			`"degraded":true,"firingBudget":1`)},
		{"inline-g", "t4", sceneBody(t, tinyScene("cg", 31), "")},
	}

	do := func(ts *httptest.Server, tenant, body string) (int, []byte, error) {
		req, err := http.NewRequest("POST", ts.URL+"/interpret", strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := ts.Client().Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}

	// Solo baselines: a fresh server, each request alone.
	base := make([][]byte, len(reqs))
	{
		s, ts := testServer(t, chaosConfig())
		for i, r := range reqs {
			status, body, err := do(ts, r.tenant, r.body)
			if err != nil {
				t.Fatalf("solo %s: %v", r.name, err)
			}
			if status != 200 {
				t.Fatalf("solo %s: status = %d, body = %s", r.name, status, body)
			}
			base[i] = body
		}
		_ = s
	}

	// The chaos run: everything at once on a second fresh server, plus
	// a heavyweight named request whose client hangs up mid-flight.
	s, ts := testServer(t, chaosConfig())
	type outcome struct {
		status int
		body   []byte
		err    error
	}
	outs := make([]outcome, len(reqs))
	done := make(chan int, len(reqs))
	for i, r := range reqs {
		go func(i int, tenant, body string) {
			st, b, err := do(ts, tenant, body)
			outs[i] = outcome{st, b, err}
			done <- i
		}(i, r.tenant, r.body)
	}
	// The doomed request: DC (a long interpretation), cancelled while
	// its tasks are in flight on the shared pool.
	cancelDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/interpret", strings.NewReader(`{"scene":"DC"}`))
		if err != nil {
			cancelDone <- err
			return
		}
		req.Header.Set("X-Tenant", "doomed")
		time.AfterFunc(30*time.Millisecond, cancel)
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		cancelDone <- nil
	}()

	for range reqs {
		<-done
	}
	if err := <-cancelDone; err != nil {
		t.Fatal(err)
	}

	for i, r := range reqs {
		o := outs[i]
		if o.err != nil {
			t.Errorf("chaos %s: %v", r.name, o.err)
			continue
		}
		if o.status != 200 {
			t.Errorf("chaos %s: status = %d, body = %s", r.name, o.status, o.body)
			continue
		}
		if !bytes.Equal(o.body, base[i]) {
			t.Errorf("chaos %s: response differs from solo run\nsolo:  %s\nchaos: %s",
				r.name, base[i], o.body)
		}
	}

	// The hangup was absorbed: the server stays healthy, the cancelled
	// request was counted, and nothing it abandoned was quarantined
	// against the pool's budget.
	st := s.Stats()
	if !st.Healthy {
		t.Error("server unhealthy after chaos batch")
	}
	if st.Cancelled != 1 {
		t.Errorf("cancelled requests = %d, want 1", st.Cancelled)
	}
	// Follow-up traffic still serves identically.
	status, body, err := do(ts, "late", reqs[1].body)
	if err != nil || status != 200 {
		t.Fatalf("post-chaos request: status = %d, err = %v", status, err)
	}
	if !bytes.Equal(body, base[1]) {
		t.Error("post-chaos response differs from solo baseline")
	}
}
