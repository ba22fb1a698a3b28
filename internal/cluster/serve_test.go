package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spampsm/internal/cluster"
	"spampsm/internal/core"
	"spampsm/internal/serve"
)

// TestServeClusterBackend is the cluster-backed serving path end to
// end: a server whose named-scene requests execute across two worker
// processes answers POST /interpret with the body a pool-backed server
// gives, and accounts for the wire traffic on /stats. (External test
// package: serve imports cluster. The worker processes are this test
// binary re-executed through the package's TestMain.)
func TestServeClusterBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("interprets full-scale DC twice")
	}
	co, err := cluster.Start(cluster.Config{Workers: 2, LocalWorkers: 1})
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer co.Close()
	spec, err := core.ClusterSpec("DC")
	if err != nil {
		t.Fatal(err)
	}
	if err := co.RegisterDataset(spec); err != nil {
		t.Fatalf("register: %v", err)
	}

	interpretDC := func(cfg serve.Config) ([]byte, serve.Stats) {
		t.Helper()
		srv := serve.New(cfg)
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			srv.Close()
		}()
		resp, err := http.Post(ts.URL+"/interpret", "application/json", strings.NewReader(`{"scene":"DC"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("POST /interpret: %d %s", resp.StatusCode, body)
		}
		resp, err = http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st serve.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return body, st
	}

	pooled, _ := interpretDC(serve.Config{Workers: 2})
	clustered, st := interpretDC(serve.Config{Workers: 2, Cluster: co})
	if !bytes.Equal(pooled, clustered) {
		t.Errorf("cluster-backed response differs from the pool-backed one:\npool:    %s\ncluster: %s", pooled, clustered)
	}
	if st.ShippedBytes <= 0 {
		t.Errorf("/stats reports %d shipped bytes for a cluster-backed request", st.ShippedBytes)
	}
	if st.Cluster == nil || st.Cluster.TasksShipped == 0 {
		t.Fatalf("/stats carries no coordinator accounting: %+v", st.Cluster)
	}
	for _, ws := range st.Cluster.PerWorker {
		if ws.Tasks > 0 && ws.PeakInFlight < 1 {
			t.Errorf("/stats: worker slot %d merged %d tasks with a peak of %d in flight", ws.Slot, ws.Tasks, ws.PeakInFlight)
		}
	}
	if st.Pool.TasksRun != 0 {
		t.Errorf("shared pool ran %d tasks of a request the cluster should have taken", st.Pool.TasksRun)
	}
}
