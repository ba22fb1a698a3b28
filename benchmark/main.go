// Command benchmark is the repository's one repeatable benchmark: four
// closed-loop workloads, one per path a user can take (spamrun
// interpret, POST /interpret, a session update, a cluster run), the
// same end-to-end metrics on each, and a separate traced run that
// attributes each workload's time and exact work counts to the layers.
// See README.md in this directory and BENCHMARK.json at the repository
// root.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh                                   every workload, end to end
//	bash benchmark/run.sh -workload session_update          one workload
//	bash benchmark/run.sh -workload session_update -trace 1 its per-layer run
//	bash benchmark/run.sh -aa                               A/A check of the bounds
//
// A single-workload run prints, as the last line of its standard
// output, one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"spampsm/internal/cluster"
)

// setup_s is the median over this process's own cold set-up and further
// ones, each in a fresh process: as many as fit in setupBudget, at
// least minSetups and at most maxSetups in all. A cheap set-up is
// therefore sampled often, which its noise needs, and a dear one not.
const (
	setupBudget = 4 * time.Second
	minSetups   = 3
	maxSetups   = 9
)

func main() {
	// The cluster workload's worker processes are this binary re-exec'd.
	cluster.MaybeWorker()
	os.Exit(realMain())
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	setupOnly bool
}

func realMain() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all, one process each)")
	seed := flag.Int64("seed", 1990, "seed of every generated input (inline scene content, churn picks)")
	seconds := flag.Int("seconds", 20, "seconds of timed sections an end-to-end run measures; a traced run derives its fixed op count from it")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics instead of end-to-end ones")
	aa := flag.Bool("aa", false, "run every workload twice in alternating order and check each end-to-end pair against its bound")
	setupOnly := flag.Bool("setup-only", false, "internal: time one cold set-up of -workload, print the seconds, exit")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	opt := options{workload: *workload, seed: uint64(*seed), seconds: *seconds, trace: *trace == 1, setupOnly: *setupOnly}

	var err error
	switch {
	case *aa:
		err = runAA(opt)
	case opt.workload == "":
		err = runAll(opt)
	case opt.setupOnly:
		err = runSetupOnly(opt)
	default:
		var res *result
		if res, err = runOne(opt); err == nil {
			out, _ := json.Marshal(res)
			fmt.Println(string(out))
			if !res.Correct {
				err = fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOne measures one workload in this process and prints its report.
func runOne(opt options) (*result, error) {
	printHost()
	if opt.trace {
		return runTraced(opt)
	}
	return runEndToEnd(opt)
}

func printHost() {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	fmt.Printf("host: cores=%d GOMAXPROCS=%d GOGC=%s %s %s/%s calib-kernel=%#x\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(), runtime.GOOS, runtime.GOARCH, uint64(calibChecksum))
}

// runSetupOnly is the child half of setup_s: a fresh process, so the
// compiled programs and every other process-wide cache are cold.
func runSetupOnly(opt options) error {
	w, err := newWorkload(opt.workload, opt.seed, nil)
	if err != nil {
		return err
	}
	start := time.Now()
	err = w.setup()
	elapsed := time.Since(start)
	w.close()
	if err != nil {
		return err
	}
	fmt.Println(strconv.FormatFloat(elapsed.Seconds(), 'f', -1, 64))
	return nil
}

// self re-executes this binary and returns its standard output;
// standard error passes through.
func self(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s %s: %w", exe, strings.Join(args, " "), err)
	}
	return out, nil
}

func lastLine(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return lines[len(lines)-1]
}

// runEndToEnd is the untraced run: cold set-ups first, then a closed
// loop of one client until the timed sections add up to opt.seconds,
// then the checks that had to wait for the timed sections to end.
func runEndToEnd(opt options) (*result, error) {
	var setups []float64
	for began := time.Now(); len(setups) < minSetups-1 || (len(setups) < maxSetups-1 && time.Since(began) < setupBudget); {
		out, err := self("-setup-only", "-workload", opt.workload, "-seed", strconv.FormatUint(opt.seed, 10))
		if err != nil {
			return nil, err
		}
		s, err := strconv.ParseFloat(lastLine(out), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", lastLine(out), err)
		}
		setups = append(setups, s)
	}

	w, own, err := start(opt, nil)
	if err != nil {
		return nil, err
	}
	defer w.close()
	setups = append(setups, own.Seconds())

	var (
		m      = meter{children: w.children()}
		cal    calibrator
		opMs   []float64
		failed int
	)
	for op := 0; m.wall < time.Duration(opt.seconds)*time.Second; op++ {
		wall, err := runOp(w, op, &cal, &m)
		failed += settle(w, op, err)
		opMs = append(opMs, ms(wall))
	}
	failed += w.finish()
	heap := w.heapMB()
	if len(heap) == 0 {
		heap = []float64{liveHeapMB()}
	}
	runtime.KeepAlive(w)

	ops := float64(len(opMs))
	calP50 := median(cal.ms)
	vals := map[string]float64{
		"setup_s":         median(setups),
		"op_rel_p50":      median(opMs) / calP50,
		"cpu_rel_per_op":  (m.selfCPU + m.childCPU) / ops / (calP50 / 1000),
		"alloc_mb_per_op": float64(m.allocByte) / ops / (1 << 20),
		"heap_live_mb":    median(heap),
	}
	fmt.Printf("workload %s seed=%d: %d ops in %.1fs of timed sections\n", opt.workload, opt.seed, len(opMs), m.wall.Seconds())
	fmt.Printf("  e2e.op_ms %v %v mean=%.3f  e2e.ops_per_s=%.3f\n",
		percentile(opMs, 50), percentile(opMs, 90), mean(opMs), ops/m.wall.Seconds())
	fmt.Printf("  host.calib_ms %v %v\n", percentile(cal.ms, 50), percentile(cal.ms, 90))
	fmt.Printf("  cpu: self=%.3fs children=%.3fs  setup_s samples=%v\n", m.selfCPU, m.childCPU, setups)
	printMetrics(endToEnd, vals)
	fmt.Printf("  fail_share=%d/%d\n", failed, len(opMs))
	return &result{Correct: failed == 0, Attempted: len(opMs), Failed: failed, Metrics: withUnits(endToEnd, vals)}, nil
}

// start builds the workload and takes it through its cold set-up,
// which it times, and its references, which it does not.
func start(opt options, p *probe) (workload, time.Duration, error) {
	w, err := newWorkload(opt.workload, opt.seed, p)
	if err != nil {
		return nil, 0, err
	}
	began := time.Now()
	err = w.setup()
	setup := time.Since(began)
	if err == nil {
		err = w.prepare()
	}
	if err != nil {
		w.close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", opt.workload, err)
	}
	return w, setup, nil
}

// runOp runs one op's timed parts, each metered, with calibration
// samples between them — before every part of a multi-part op (those
// are the ≥100 ms ones), otherwise before every calibEvery-th op.
func runOp(w workload, op int, cal *calibrator, m *meter) (time.Duration, error) {
	var wall time.Duration
	for part := 0; part < w.parts(); part++ {
		if w.parts() > 1 || op%w.calibEvery() == 0 {
			cal.sample()
		}
		m.begin()
		err := w.run(op, part)
		wall += m.end()
		if err != nil {
			return wall, err
		}
	}
	return wall, nil
}

// settle does what follows an op's timed parts and returns 1 if the op
// failed or its output was wrong, else 0.
func settle(w workload, op int, err error) int {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: op %d: %v\n", op, err)
		return 1
	}
	return w.after(op)
}

func printMetrics(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Printf("  %-32s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

// runChild runs one workload in a child process, echoing its report,
// and returns the parsed result line. A child with failed ops exits
// non-zero, which is an error here too.
func runChild(opt options, name string) (*result, error) {
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	out, err := self("-workload", name, "-seed", strconv.FormatUint(opt.seed, 10),
		"-seconds", strconv.Itoa(opt.seconds), "-trace", trace)
	os.Stdout.Write(out)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal([]byte(lastLine(out)), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &res, nil
}

// runAll runs every workload, each in its own child so process-wide
// caches and heap do not leak from one into the next.
func runAll(opt options) error {
	for _, name := range workloadNames {
		if _, err := runChild(opt, name); err != nil {
			return err
		}
	}
	return nil
}

// runAA measures identical code twice, in the order A B C D D C B A,
// and holds each end-to-end pair to its bound: the bounds are measured,
// not guessed.
func runAA(opt options) error {
	opt.trace = false
	order := append([]string(nil), workloadNames...)
	for i := len(workloadNames) - 1; i >= 0; i-- {
		order = append(order, workloadNames[i])
	}
	runs := map[string][]*result{}
	for _, name := range order {
		res, err := runChild(opt, name)
		if err != nil {
			return err
		}
		runs[name] = append(runs[name], res)
	}
	over := 0
	fmt.Printf("A/A check, seed %d, %d s per run\n", opt.seed, opt.seconds)
	fmt.Printf("%-20s %-16s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range workloadNames {
		a, b := runs[name][0], runs[name][1]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			diff := (y - x) / x
			mark := ""
			if diff > d.bound || -diff > d.bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-20s %-16s %12.5g %12.5g %+7.1f%% %5.0f%%%s\n", name, d.name, x, y, 100*diff, 100*d.bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d pairs differ by more than their bound", over)
	}
	return nil
}
