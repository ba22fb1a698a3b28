package bench

import (
	"strings"
	"testing"

	"spampsm/internal/scene"
)

// validClusterReport hand-builds a report satisfying every Check
// invariant: full (dataset x procs) coverage, real-run wall times,
// whole queues shipped, exactly-once recovery through worker deaths.
func validClusterReport() *ClusterReport {
	rep := &ClusterReport{Schema: ClusterSchema, LocalWorkers: clusterLocalWorkers}
	for _, ds := range append(append([]string{}, Datasets...), "SF-x10") {
		for _, procs := range clusterProcs {
			pt := ClusterPoint{
				Dataset: ds, Procs: procs, LocalWorkers: clusterLocalWorkers,
				WallMS: 100, Tasks: 40, TasksShipped: 41, ShippedBytes: 50_000,
				ResultBytes: 20_000, ShipShare: 0.12, SVMSpeedup: 2, MsgpassSpeedup: 2,
				WireVersion: 2, ChunksShipped: 30, ChunkBytes: 10_000, ChunkHits: 200, ChunkSavedBytes: 90_000,
				ContinuationTasks: 10, Continuations: 10,
			}
			if ds == "SF-x10" {
				// The stress scene's share is recorded, not budgeted.
				pt.ShipShare = 0.3
			}
			if procs == clusterProcs[0] {
				pt.Speedup = 1
			} else {
				pt.Speedup = 0.9
			}
			rep.Points = append(rep.Points, pt)
		}
	}
	rep.Recovery = ClusterRecovery{
		Dataset: "DC", Procs: 2, CrashSeed: 7, CrashRate: 0.05,
		Tasks: 85, Completed: 85, WorkerDeaths: 4, Respawns: 4,
		Requeued: 4, ContinuationTasks: 6, Continuations: 5,
		SpawnedRequeued: 1, ExactlyOnce: true,
	}
	return rep
}

func TestClusterReportCheck(t *testing.T) {
	if err := validClusterReport().Check(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}

	breaks := []struct {
		name    string
		mutate  func(*ClusterReport)
		wantErr string
	}{
		{"wrong schema", func(r *ClusterReport) { r.Schema = "nope" }, "schema"},
		{"missing point", func(r *ClusterReport) { r.Points = r.Points[1:] }, "missing"},
		{"duplicate point", func(r *ClusterReport) { r.Points = append(r.Points, r.Points[0]) }, "unexpected point"},
		{"foreign dataset", func(r *ClusterReport) { r.Points[0].Dataset = "LAX" }, "unexpected point"},
		{"zero wall", func(r *ClusterReport) { r.Points[0].WallMS = 0 }, "not a real run"},
		{"under-shipped", func(r *ClusterReport) {
			pt := &r.Points[0]
			pt.TasksShipped = pt.Tasks - pt.Continuations - 1
		}, "shipped"},
		{"no wire bytes", func(r *ClusterReport) { r.Points[0].ShippedBytes = 0 }, "shipped"},
		{"base speedup", func(r *ClusterReport) { r.Points[0].Speedup = 1.2 }, "base speedup"},
		{"no chunks", func(r *ClusterReport) { r.Points[0].ChunksShipped = 0 }, "content-addressed"},
		{"no hits", func(r *ClusterReport) { r.Points[0].ChunkHits = 0 }, "content-addressed"},
		{"chunking saved nothing", func(r *ClusterReport) { r.Points[0].ChunkSavedBytes = 10_000 }, "saved nothing"},
		{"coordinator round-trips", func(r *ClusterReport) { r.Points[0].Continuations = 8 }, "worker-side"},
		{"over ship budget", func(r *ClusterReport) { r.Points[0].ShipShare = 0.4 }, "budget"},
		{"no deaths", func(r *ClusterReport) { r.Recovery.WorkerDeaths = 0 }, "no worker deaths"},
		{"no re-entry in recovery", func(r *ClusterReport) { r.Recovery.ContinuationTasks = 0 }, "re-entry"},
		{"duplicated result", func(r *ClusterReport) { r.Recovery.ExactlyOnce = false }, "exactly-once"},
		{"lost result", func(r *ClusterReport) { r.Recovery.Completed = r.Recovery.Tasks - 1 }, "requeued"},
		{"no requeue", func(r *ClusterReport) { r.Recovery.Requeued = 0 }, "requeued"},
	}
	for _, br := range breaks {
		rep := validClusterReport()
		br.mutate(rep)
		err := rep.Check()
		if err == nil {
			t.Errorf("%s: Check passed, want error", br.name)
			continue
		}
		if !strings.Contains(err.Error(), br.wantErr) {
			t.Errorf("%s: error %q does not mention %q", br.name, err, br.wantErr)
		}
	}
}

// TestClusterParamsMatchSuiteDatasets pins the identity the cluster
// experiment rests on: the generator parameters shipped to workers
// must describe exactly the dataset the coordinator-side suite built,
// or the differential guarantee is void.
func TestClusterParamsMatchSuiteDatasets(t *testing.T) {
	s := quickSuite()
	for _, ds := range Datasets {
		d, err := s.Dataset(ds)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.clusterParams(ds)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != ds {
			t.Errorf("%s: params name %q", ds, p.Name)
		}
		// Scene generation is deterministic in its parameters, so a
		// scene regenerated from the shipped params (exactly what a
		// worker does) must reproduce the suite dataset's scene.
		regen := scene.Generate(p)
		if regen.Name != d.Scene.Name || len(regen.Regions) != len(d.Scene.Regions) {
			t.Errorf("%s: regenerated scene %s/%d regions, suite dataset %s/%d",
				ds, regen.Name, len(regen.Regions), d.Scene.Name, len(d.Scene.Regions))
		}
	}
	if name := s.clusterStressParams().Name; name != "SF-x10" {
		t.Errorf("stress scene name %q", name)
	}
}
