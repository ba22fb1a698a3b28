package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// spamserveBin is the binary TestMain builds from this package.
var spamserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "spamserve-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, "spamserve test:", err)
		os.Exit(1)
	}
	spamserveBin = filepath.Join(dir, "spamserve")
	if out, err := exec.Command("go", "build", "-o", spamserveBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "spamserve test: go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinySceneJSON is a six-region inline airport scene: a session on it
// interprets in milliseconds.
const tinySceneJSON = `{"name":"smoke","domain":"airport","w":4000,"h":3000,"regions":[
{"id":1,"poly":[[200,1400],[3200,1400],[3200,1460],[200,1460]],"intensity":170,"texture":0.05},
{"id":2,"poly":[[400,1250],[1300,1250],[1300,1290],[400,1290]],"intensity":160,"texture":0.08},
{"id":3,"poly":[[500,600],[760,600],[760,780],[500,780]],"intensity":120,"texture":0.25},
{"id":4,"poly":[[900,600],[1200,600],[1200,800],[900,800]],"intensity":150,"texture":0.15},
{"id":5,"poly":[[1400,500],[2100,500],[2100,1000],[1400,1000]],"intensity":90,"texture":0.55},
{"id":6,"poly":[[2300,700],[2540,700],[2540,860],[2300,860]],"intensity":125,"texture":0.22}]}`

// syncBuffer is a bytes.Buffer the child's stderr copier can write
// while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSmokeClusterServeAndDrain runs the built binary on a two-process
// cluster backend, sends one request to every endpoint, then SIGTERM:
// the server must drain and exit 0.
func TestSmokeClusterServeAndDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var stderr syncBuffer
	cmd := exec.Command(spamserveBin, "-addr", addr, "-workers", "1", "-cluster-workers", "2")
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	waited := false
	defer func() {
		if !waited {
			cmd.Process.Kill()
			<-exited
		}
	}()

	base := "http://" + addr
	do := func(method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, b)
		}
		return b
	}

	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy (last error %v); stderr:\n%s", err, stderr.String())
		}
	}

	do("POST", "/interpret", `{"scene":"DC"}`)
	var open struct{ Session string }
	if err := json.Unmarshal(do("POST", "/session", `{"inline":`+tinySceneJSON+`}`), &open); err != nil || open.Session == "" {
		t.Fatalf("/session returned no session id (%v)", err)
	}
	do("POST", "/update", fmt.Sprintf(`{"session":%q,"churn":{"seed":5,"fraction":0.34}}`, open.Session))
	do("DELETE", "/session/"+open.Session, "")
	var st struct {
		Cluster *struct{ TasksShipped int } `json:"cluster"`
	}
	if err := json.Unmarshal(do("GET", "/stats", ""), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Cluster.TasksShipped == 0 {
		t.Errorf("/stats shows no task shipped to the cluster for a named-scene request: %+v", st.Cluster)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		waited = true
		if err != nil {
			t.Errorf("exit after SIGTERM: %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("still running a minute after SIGTERM; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "spamserve: drained") {
		t.Errorf("no drain reported; stderr:\n%s", stderr.String())
	}
}
