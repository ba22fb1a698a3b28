// Command spamrun performs a full four-phase SPAM interpretation of a
// dataset and prints per-phase statistics in the style of the paper's
// Tables 1-3.
//
// Usage:
//
//	spamrun [-dataset SF|DC|MOFF|suburban] [-workers N] [-level 1..4]
//	        [-reentry] [-scale F] [-lisp] [-svg FILE]
//	        [-update N] [-churn F] [-churn-seed N]
//	        [-task-timeout D] [-max-retries K]
//	        [-cluster-workers N] [-cluster-addr HOST:PORT] [-cluster-check]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// -cluster-workers N executes each phase's task queue across N worker
// processes instead of an in-process pool: the coordinator ships task
// specs (seed working memories and run knobs) over unix
// sockets — or TCP with -cluster-addr — and -workers becomes each
// process's local pool size (see docs/CLUSTER.md). -cluster-check
// additionally runs the single-process interpretation and verifies the
// cluster produced byte-identical outputs.
//
// -task-timeout and -max-retries set the recovery discipline (see
// docs/ROBUSTNESS.md): a failed task is rebuilt and re-run up to
// -max-retries times. If any task still fails after its retries,
// spamrun prints a per-task error summary and exits non-zero.
//
// -update N interprets through a long-lived session instead of a
// one-shot run: after the initial interpretation it applies N
// generated churn deltas (-churn fraction of the regions each,
// deterministic from -churn-seed) and re-interprets incrementally —
// cached tasks reused, changed tasks run again as fresh tasks —
// printing one update-report row per delta, with why each re-run task
// ran again (see
// docs/PERFORMANCE.md "Incremental re-interpretation"). The phase
// table then describes the final updated interpretation.
//
// -svg writes the scene's segmentation, each region labelled with its
// most confident fragment hypothesis. The profile flags write standard
// pprof files.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"spampsm/internal/cluster"
	"spampsm/internal/machine"
	"spampsm/internal/prof"
	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/stats"
	"spampsm/internal/symtab"
)

func main() {
	cluster.MaybeWorker()
	os.Exit(realMain())
}

func realMain() int {
	dataset := flag.String("dataset", "DC", "dataset: SF, DC, MOFF or suburban")
	workers := flag.Int("workers", 1, "task processes (real goroutine pool)")
	level := flag.Int("level", 3, "LCC decomposition level (1-4)")
	reentry := flag.Bool("reentry", false, "enable FA->LCC re-entry")
	scale := flag.Float64("scale", 1, "scene scale factor")
	lisp := flag.Bool("lisp", false, "report times at the original Lisp system's speed")
	updates := flag.Int("update", 0, "apply N incremental churn updates through an interpretation session after the initial run")
	churn := flag.Float64("churn", 0.05, "churn fraction per -update delta (regions touched / scene regions)")
	churnSeed := flag.Uint64("churn-seed", 1990, "deterministic seed for the -update churn deltas")
	svgOut := flag.String("svg", "", "write the scene segmentation (with best hypotheses) to this SVG file")
	taskTimeout := flag.Duration("task-timeout", 0, "per-attempt wall-clock deadline (0 = none)")
	maxRetries := flag.Int("max-retries", 2, "failed-task re-executions before quarantine")
	clusterWorkers := flag.Int("cluster-workers", 0, "run phases across N worker processes instead of an in-process pool (0 disables)")
	clusterAddr := flag.String("cluster-addr", "", "TCP listen address for the cluster coordinator (default: a private unix socket)")
	clusterCheck := flag.Bool("cluster-check", false, "with -cluster-workers, also interpret single-process and verify identical outputs")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()

	if *level < 1 || *level > 4 {
		fmt.Fprintf(os.Stderr, "spamrun: -level %d: the LCC decomposition levels are 1 to 4\n", *level)
		flag.Usage()
		return 2
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "spamrun: -scale %v: a scale factor is a finite number above 0\n", *scale)
		flag.Usage()
		return 2
	}
	if math.IsNaN(*churn) || math.IsInf(*churn, 0) {
		fmt.Fprintf(os.Stderr, "spamrun: -churn %v: a churn fraction is a finite number\n", *churn)
		flag.Usage()
		return 2
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spamrun:", err)
		return 1
	}
	// An -update session stays reachable until the heap profile is
	// written, so -memprofile's inuse_space shows what it retains.
	var sess *spam.Session
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "spamrun:", err)
		}
		runtime.KeepAlive(sess)
	}()

	var d *spam.Dataset
	var dspec cluster.DatasetSpec
	if *dataset == "suburban" {
		sp := scene.SuburbanParams{
			Name: "suburban", Seed: 1990, Blocks: int(8 * *scale), HousesPerBlock: 6, Verts: 12,
		}
		dspec = cluster.SuburbanSpec(sp)
		d, err = spam.NewSuburbanDataset(sp)
	} else {
		p, ok := scene.ParamsByName(*dataset)
		if !ok {
			fmt.Fprintf(os.Stderr, "spamrun: unknown dataset %q\n", *dataset)
			return 2
		}
		if *scale != 1 {
			p = p.Scale(*scale)
		}
		dspec = cluster.AirportSpec(p)
		d, err = spam.NewDataset(p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spamrun:", err)
		return 1
	}

	fmt.Println(d.Scene.Stats())
	fmt.Printf("production memory: %d productions\n\n", d.Progs.NumProductions())

	iopt := spam.InterpretOptions{
		Workers:      *workers,
		Level:        spam.Level(*level),
		ReEntry:      *reentry,
		MaxRetries:   *maxRetries,
		TaskTimeout:  *taskTimeout,
		RetryBackoff: time.Millisecond,
	}
	if *clusterWorkers > 0 {
		if *updates > 0 {
			fmt.Fprintln(os.Stderr, "spamrun: -update sessions run on a private scene clone no cluster worker has; combine with -workers, not -cluster-workers")
			return 2
		}
		ccfg := cluster.Config{
			Workers:      *clusterWorkers,
			LocalWorkers: *workers,
		}
		if *clusterAddr != "" {
			ccfg.Network, ccfg.Addr = "tcp", *clusterAddr
		}
		co, err := cluster.Start(ccfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spamrun:", err)
			return 1
		}
		defer co.Close()
		if err := co.RegisterDataset(dspec); err != nil {
			fmt.Fprintln(os.Stderr, "spamrun:", err)
			return 1
		}
		iopt.Runner = cluster.NewRunner(co, iopt)
		defer func() {
			st := co.Stats()
			fmt.Printf("cluster: %d procs × %d local workers (wire v%d), %d tasks shipped (%s on the wire, %s of it results), %d steals, %d requeued (%d uncharged), %d worker deaths\n",
				st.Workers, *workers, st.WireVersion, st.TasksShipped, stats.FormatBytes(float64(st.ShippedBytes)),
				stats.FormatBytes(float64(st.ResultBytes)), st.Steals, st.Requeued, st.Uncharged, st.WorkerDeaths)
			fmt.Printf("cluster wire locality: %d chunks shipped (%s), %d resident hits (%s saved), %d evictions\n",
				st.ChunksShipped, stats.FormatBytes(float64(st.ChunkBytes)),
				st.ChunkHits, stats.FormatBytes(float64(st.ChunkSavedBytes)), st.Evictions)
			for _, ws := range st.PerWorker {
				fmt.Printf("cluster worker %d: %d tasks, %s shipped, peak %d in flight, %d steals, %d resident chunks (%s), match arenas %d slabs (%s)\n",
					ws.Slot, ws.Tasks, stats.FormatBytes(float64(ws.ShippedBytes)), ws.PeakInFlight,
					ws.Steals, ws.ResidentChunks, stats.FormatBytes(float64(ws.ResidentBytes)),
					ws.ArenaSlabs, stats.FormatBytes(float64(ws.ArenaBytes)))
			}
		}()
	}
	var in *spam.Interpretation
	if *updates > 0 {
		// Session path: the initial interpretation plus -update churn
		// deltas folded in incrementally. The phase table below then
		// describes the final updated interpretation.
		sess = spam.NewSession(d, iopt)
		utb := stats.Table{
			Title: fmt.Sprintf("Incremental updates of %s — %d deltas at %.0f%% churn (seed %d)",
				d.Name, *updates, 100**churn, *churnSeed),
			Headers: []string{"Update", "Δregions", "Tasks", "Reused", "Rerun", "Fresh",
				"Dropped", "Charged (sec)", "Wall (ms)", "Re-run because"},
		}
		row := func(rep *spam.UpdateReport) {
			utb.AddRow(rep.Update, rep.DeltaSize, rep.Tasks, rep.Reused, rep.Rerun, rep.Fresh,
				rep.Dropped, machine.InstrToSec(rep.UpdateInstr),
				float64(rep.Wall)/float64(time.Millisecond), strings.Join(rep.RerunReasons(), "; "))
		}
		var rep *spam.UpdateReport
		in, rep, err = sess.Interpret(context.Background())
		for i := 1; err == nil && i <= *updates; i++ {
			row(rep)
			delta := sess.Scene().Churn(scene.DefaultChurn(*churnSeed+uint64(i-1), *churn))
			in, rep, err = sess.Update(context.Background(), delta)
		}
		if err == nil {
			row(rep)
			fmt.Println(utb.String())
		}
	} else {
		in, err = d.Interpret(iopt)
	}
	if err != nil {
		// The error aggregates every failed task; the reports break the
		// failures down attempt by attempt.
		fmt.Fprintln(os.Stderr, "spamrun:", err)
		if in != nil {
			printReports(in)
		}
		return 1
	}
	printReports(in)

	if *clusterWorkers > 0 && *clusterCheck {
		localOpt := iopt
		localOpt.Runner = nil
		lin, lerr := d.Interpret(localOpt)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "spamrun: cluster check reference run:", lerr)
			return 1
		}
		if !spam.SameOutputs(lin, in) {
			fmt.Fprintln(os.Stderr, "spamrun: cluster check FAILED: cluster outputs differ from the single-process run")
			return 1
		}
		fmt.Println("cluster check: cluster outputs identical to single-process run")
	}

	factor := 1.0
	unit := "sec (simulated, C/ParaOPS5 baseline)"
	if *lisp {
		factor = spam.LispFactor
		unit = "sec (simulated, original Lisp system)"
	}
	tb := stats.Table{
		Title: fmt.Sprintf("Interpretation of %s — times in %s", d.Name, unit),
		Headers: []string{"Phase", "Tasks", "Firings", "RHS actions",
			"CPU time", "Prods/sec", "Match %", "Hypotheses"},
	}
	for _, ph := range in.Phases {
		sec := machine.InstrToSec(ph.Instr) * factor
		pps := 0.0
		if sec > 0 {
			pps = float64(ph.Firings) / sec
		}
		tb.AddRow(ph.Phase, ph.Tasks, ph.Firings, ph.RHSActions,
			sec, pps, 100*ph.MatchFraction(), ph.Hypotheses)
	}
	fmt.Println(tb.String())
	fmt.Printf("fragments=%d consistent-pairs=%d functional-areas=%d predictions=%d\n",
		len(in.Fragments), len(in.Pairs), len(in.FAs), len(in.Predictions))
	if in.ModelFound {
		fmt.Printf("scene model: score=%d functional-areas=%d\n", in.Model.Score, in.Model.NFAs)
	} else {
		fmt.Println("no scene model produced")
	}

	var peakTask, seedBytes float64
	for _, ph := range in.Phases {
		if ph.PeakTaskBytes > peakTask {
			peakTask = ph.PeakTaskBytes
		}
		seedBytes += ph.SeedBytes
	}
	fmt.Printf("memory (modeled): largest task peak %s, total seed WM %s\n",
		stats.FormatBytes(peakTask), stats.FormatBytes(seedBytes))
	fmt.Printf("symbols interned: %d\n", symtab.Interned())

	if rec := in.Recovery(); rec.Retries > 0 {
		fmt.Printf("recovery: %d retries, %d recovered, %d quarantined, %.3f sec wasted\n",
			rec.Retries, rec.Recovered, rec.Quarantined, machine.InstrToSec(rec.WastedInstr))
	}

	if *svgOut != "" {
		labels := map[int]string{}
		best := map[int]int{}
		for _, f := range in.Fragments {
			if f.Conf > best[f.RegionID] {
				best[f.RegionID] = f.Conf
				labels[f.RegionID] = string(f.Type)
			}
		}
		out, err := os.Create(*svgOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spamrun:", err)
			return 1
		}
		defer out.Close()
		if err := d.Scene.WriteSVG(out, labels); err != nil {
			fmt.Fprintln(os.Stderr, "spamrun:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}
	return 0
}

// printReports prints each phase's fault-handling report to stderr —
// only the phases that actually needed recovery.
func printReports(in *spam.Interpretation) {
	for _, ph := range in.Phases {
		if ph.Report != nil && !ph.Report.Clean() {
			fmt.Fprintf(os.Stderr, "%s %s", ph.Phase, ph.Report)
		}
	}
}
