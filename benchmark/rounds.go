package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spampsm/internal/cluster"
	"spampsm/internal/core"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// roundNames is one op of interpret_cli and cluster_2proc: the paper's
// three datasets back to back. A round keeps the latency distribution
// unimodal; a mix of scenes has a median that sits between two modes.
var roundNames = []string{"SF", "DC", "MOFF"}

// rounds is both round workloads. interpret_cli is the spamrun path:
// core.LoadDataset, then Dataset.Interpret on a private one-worker
// pool. cluster_2proc is `spamrun -cluster-workers 2`: the same work
// shipped to two worker processes of one task process each, so
// everything that differs between the two is the cluster layer.
type rounds struct {
	base
	p         *probe
	clustered bool

	ds    []*spam.Dataset
	refs  []*spam.Interpretation
	last  []*spam.Interpretation
	inner spam.Runner // what a traced op's timing Runner delegates to

	co      *cluster.Coordinator
	sockDir string
	pids    []int
	refDS   []*spam.Dataset // cluster only: the in-process references' own datasets
	since   cluster.Stats   // coordinator accounting when the op loop began
	shipped int             // rounds shipped since
}

func (w *rounds) parts() int      { return len(roundNames) }
func (w *rounds) children() []int { return w.pids }

func (w *rounds) options() spam.InterpretOptions {
	opts := interpretOptions()
	if w.clustered {
		opts.Runner = w.inner
	}
	return opts
}

func (w *rounds) setup() error {
	if w.clustered {
		// A relative socket path keeps the run inside its checkout and
		// under the 108-byte sun_path limit wherever the checkout is.
		w.sockDir = filepath.Join(".bench_build", fmt.Sprintf("sock-%d", os.Getpid()))
		if err := os.MkdirAll(w.sockDir, 0o755); err != nil {
			return err
		}
		co, err := cluster.Start(cluster.Config{Workers: 2, LocalWorkers: 1,
			Network: "unix", Addr: filepath.Join(w.sockDir, "c.sock")})
		if err != nil {
			return err
		}
		w.co = co
		w.pids = childPIDs()
		for _, name := range roundNames {
			spec, err := core.ClusterSpec(name)
			if err != nil {
				return err
			}
			if err := co.RegisterDataset(spec); err != nil {
				return err
			}
		}
		w.inner = cluster.NewRunner(co, interpretOptions())
	} else {
		w.inner = poolRunner{&tlp.Pool{Workers: 1}}
	}
	ds, err := loadRound()
	if err != nil {
		return err
	}
	w.ds = ds
	w.last = make([]*spam.Interpretation, len(ds))
	for part := range ds {
		if err := w.run(-1, part); err != nil {
			return err
		}
	}
	return nil
}

func loadRound() ([]*spam.Dataset, error) {
	var ds []*spam.Dataset
	for _, name := range roundNames {
		d, err := core.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// prepare fixes the Workers: 1 references every later interpretation
// must reproduce. In-process they are the set-up's own first round; for
// the cluster they are computed here, on datasets of their own so the
// coordinator's stores stay as cold as set-up left them.
func (w *rounds) prepare() error {
	if !w.clustered {
		w.refs = append([]*spam.Interpretation(nil), w.last...)
		return nil
	}
	ds, err := loadRound()
	if err != nil {
		return err
	}
	w.refDS = ds
	for _, d := range ds {
		in, err := d.Interpret(interpretOptions())
		if err != nil {
			return err
		}
		w.refs = append(w.refs, in)
	}
	w.since, w.shipped = w.co.Stats(), 0
	return nil
}

func (w *rounds) run(op, part int) error {
	var err error
	if w.p.tracer() != nil {
		w.last[part], err = interpretTraced(w.p, op, w.ds[part], w.inner)
	} else {
		w.last[part], err = w.ds[part].Interpret(w.options())
	}
	if part == len(w.ds)-1 {
		w.shipped++
		if w.p.tracer() != nil {
			w.p.tracedOps++
		}
	}
	return err
}

func (w *rounds) after(int) int { return w.mismatch(w.last) }

func (w *rounds) mismatch(got []*spam.Interpretation) int {
	for part, ref := range w.refs {
		if !spam.SameOutputs(ref, got[part]) {
			fmt.Fprintf(os.Stderr, "benchmark: %s differs from its Workers: 1 reference\n", roundNames[part])
			return 1
		}
	}
	return 0
}

func (w *rounds) close() {
	if w.co != nil {
		w.co.Close()
		os.RemoveAll(w.sockDir)
	}
}

func (w *rounds) tracePairs(seconds int) int { return max(2, seconds/6) }

// extras runs, after each (traced, untraced) pair, one serial replay
// round and one comparison round: Workers: 2 in-process for
// interpret_cli (it saturates both cores of a 2-core host, so it is a
// diagnostic, never a gated number), Workers: 1 in-process for the
// cluster (the work cluster_2proc ships, not shipped).
func (w *rounds) extras(int) error {
	if w.clustered {
		w.p.codec = newCodecProbe() // one round's frames over fresh tables
		defer func() { w.p.codec = nil }()
	}
	got := make([]*spam.Interpretation, len(w.ds))
	for part, d := range w.ds {
		var err error
		if got[part], err = interpretReplay(w.p, d); err != nil {
			return err
		}
	}
	w.p.replayOps++
	if w.mismatch(got) > 0 {
		return fmt.Errorf("serial replay changed the interpretation")
	}

	ds, opts := w.ds, interpretOptions()
	if w.clustered {
		ds = w.refDS
	} else {
		opts.Workers = 2
	}
	start := time.Now()
	for part, d := range ds {
		var err error
		if got[part], err = d.Interpret(opts); err != nil {
			return err
		}
	}
	w.p.compareMs = append(w.p.compareMs, msSince(start))
	if w.mismatch(got) > 0 {
		return fmt.Errorf("comparison round changed the interpretation")
	}
	return nil
}

func (w *rounds) layerMetrics(vals map[string]float64, ops int, m *meter) {
	if !w.clustered {
		vals["tlp.speedup_w2"] = vals["e2e.op_ms_p50"] / median(w.p.compareMs)
		return
	}
	vals["cluster.speedup_vs_inproc"] = median(w.p.compareMs) / vals["e2e.op_ms_p50"]
	vals["cluster.codec_ms"] = w.p.codecMs / float64(w.p.replayOps)
	for _, ph := range phases {
		vals["cluster.run_tasks_ms"] += vals["tlp.run_tasks_ms."+ph]
	}
	vals["cluster.coord_cpu_s_per_op"] = m.selfCPU / float64(ops)
	vals["cluster.worker_cpu_s_per_op"] = m.childCPU / float64(ops)

	st, n := w.co.Stats(), float64(w.shipped)
	vals["cluster.ship_kb_per_op"] = float64(st.ShippedBytes-w.since.ShippedBytes) / 1024 / n
	vals["cluster.chunk_kb_per_op"] = float64(st.ChunkBytes-w.since.ChunkBytes) / 1024 / n
	vals["cluster.result_kb_per_op"] = float64(st.ResultBytes-w.since.ResultBytes) / 1024 / n
	vals["cluster.steals_per_op"] = float64(st.Steals-w.since.Steals) / n
	hits := float64(st.ChunkHits - w.since.ChunkHits)
	if refs := hits + float64(st.ChunksShipped-w.since.ChunksShipped); refs > 0 {
		vals["cluster.chunk_hit_ratio"] = hits / refs
	}
	if ct := st.ContinuationTasks - w.since.ContinuationTasks; ct > 0 {
		vals["cluster.continuation_share"] = float64(st.Continuations-w.since.Continuations) / float64(ct)
	}
	// Imbalance: the busiest worker's task count over the mean.
	var most, total int
	for i, ws := range st.PerWorker {
		done := ws.Tasks - w.since.PerWorker[i].Tasks
		most, total = max(most, done), total+done
	}
	if total > 0 {
		vals["cluster.worker_task_imbalance"] = float64(most) * float64(len(st.PerWorker)) / float64(total)
	}
}
