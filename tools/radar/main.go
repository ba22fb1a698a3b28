// Command radar compares a change with a base revision on the
// repository's benchmark, the way a reviewer would: it checks the base
// out into a git worktree under .bench_build/, then runs
// `bash benchmark/run.sh -workload W -seconds S` on base and change in
// turn — the order alternating from pair to pair, so drift in the host
// falls on both — for N pairs per workload. Pair i builds both sides
// with the linker's code layout seed i+1 (GOFLAGS=-ldflags=-randlayout=
// i+1 in run.sh's environment; a cluster worker is the same binary), so
// a bias that one function layout gives one side becomes a spread both
// sides sample alike. For every end-to-end metric
// of BENCHMARK.json it prints both medians, the change between them,
// the metric's bound and how many pairs the change won. A metric gates
// where the base's runs resolve its bound — their inter-quartile
// distance is below it — and is reported as unresolved elsewhere. radar
// exits 1 when a gated metric's median is worse than the base's by more
// than its bound, or when any run of the change fails an op; it prints
// how many runs of each side failed an op, so a broken base does not
// compare silently. The workloads, metrics and bounds are the base's
// BENCHMARK.json, so a change is judged by the contract it is compared
// against; -workload narrows the run to some of its workloads (a name
// the base does not declare is a usage error, exit 2), so a claimed
// workload can get more pairs than the rest.
//
// Usage (from the repository root; `make radar` wraps it):
//
//	go run ./tools/radar -base main
//	go run ./tools/radar -base HEAD~1 -pairs 3 -seconds 5
//	go run ./tools/radar -base HEAD~1 -pairs 10 -workload cluster_2proc
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// contract is what radar reads of BENCHMARK.json.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []metric `json:"end_to_end"`
}

type metric struct {
	Name   string
	Better string // "lower" or "higher"
	Bound  float64
}

// result is the last line a single-workload benchmark run prints.
type result struct {
	Correct bool
	Failed  int
	Metrics map[string]struct{ Value float64 }
}

// row is one metric of one workload over all pairs.
type row struct {
	workload, metric string
	base, change     float64 // medians
	baseIQR          float64 // the base's inter-quartile distance ÷ its median
	delta            float64 // (change − base) ÷ base
	bound            float64
	won, pairs       int
	gated, breach    bool
}

func main() {
	base := flag.String("base", "", "git revision to compare the working tree against (required)")
	pairs := flag.Int("pairs", 5, "base/change run pairs per workload")
	seconds := flag.Int("seconds", 20, "seconds each benchmark run measures")
	workloads := flag.String("workload", "", "comma-separated workloads to run (default: every workload of the base's BENCHMARK.json)")
	flag.Parse()
	if *base == "" || *pairs < 1 || *seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *pairs, *seconds, *workloads); err != nil {
		fmt.Fprintln(os.Stderr, "radar:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a mistake in the command line, found once the base's
// BENCHMARK.json is read.
type usageError string

func (e usageError) Error() string { return string(e) }

// selectWorkloads returns the workloads named in list, a comma list,
// in its order, or every declared one when list is empty. A name not
// declared is a usageError.
func selectWorkloads(declared []string, list string) ([]string, error) {
	if list == "" {
		return declared, nil
	}
	var names []string
	for _, n := range strings.Split(list, ",") {
		if !slices.Contains(declared, n) {
			return nil, usageError(fmt.Sprintf("workload %q is not in the base's BENCHMARK.json (%s)", n, strings.Join(declared, ", ")))
		}
		names = append(names, n)
	}
	return names, nil
}

// failures reports how many runs of each side failed an op, and fails
// when a run of the change did: a base that fails is printed, not
// judged, since the change cannot mend its parent.
func failures(bases, changes []result) (string, error) {
	failed := func(rs []result) int {
		n := 0
		for _, r := range rs {
			if !r.Correct || r.Failed > 0 {
				n++
			}
		}
		return n
	}
	nb, nc := failed(bases), failed(changes)
	line := fmt.Sprintf("runs that failed an op: base %d of %d, change %d of %d", nb, len(bases), nc, len(changes))
	if nc > 0 {
		return line, fmt.Errorf("%d runs of the change failed an op", nc)
	}
	return line, nil
}

func run(base string, pairs, seconds int, workloads string) error {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "radar-base"))
	if err != nil {
		return err
	}
	exec.Command("git", "worktree", "remove", "--force", dir).Run()
	if out, err := exec.Command("git", "worktree", "add", "--detach", dir, base).CombinedOutput(); err != nil {
		return fmt.Errorf("git worktree add %s: %v\n%s", base, err, out)
	}
	defer exec.Command("git", "worktree", "remove", "--force", dir).Run()
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("%s's BENCHMARK.json: %w", base, err)
	}

	var declared []string
	for _, w := range c.Workloads {
		declared = append(declared, w.Name)
	}
	names, err := selectWorkloads(declared, workloads)
	if err != nil {
		return err
	}

	fmt.Printf("radar: base %s vs the working tree, %d pairs × %d s per workload, pair i on layout seed i\n", base, pairs, seconds)
	var rows []row
	var allBases, allChanges []result
	for _, w := range names {
		var bases, changes []result
		for i := 0; i < pairs; i++ {
			order := []string{dir, "."}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, checkout := range order {
				r, err := bench(checkout, w, seconds, layoutEnv(os.Environ(), i+1))
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "radar: %s pair %d/%d, %s: %v\n", w, i+1, pairs, checkout, r.Metrics)
				if checkout == dir {
					bases = append(bases, r)
				} else {
					changes = append(changes, r)
				}
			}
		}
		rows = append(rows, compare(w, c.EndToEnd, bases, changes)...)
		allBases, allChanges = append(allBases, bases...), append(allChanges, changes...)
	}
	breaches := report(rows)
	line, err := failures(allBases, allChanges)
	fmt.Printf("\n%s\n", line)
	if err != nil {
		return err
	}
	if breaches > 0 {
		return fmt.Errorf("%d gated metrics worse than the base by more than their bound", breaches)
	}
	return nil
}

// layoutEnv returns env with the linker's code layout seed added to
// GOFLAGS, after whatever GOFLAGS env already holds.
func layoutEnv(env []string, seed int) []string {
	flags := fmt.Sprintf("-ldflags=-randlayout=%d", seed)
	out := make([]string, 0, len(env)+1)
	for _, kv := range env {
		if v, ok := strings.CutPrefix(kv, "GOFLAGS="); ok {
			if v = strings.TrimSpace(v); v != "" {
				flags = v + " " + flags
			}
			continue
		}
		out = append(out, kv)
	}
	return append(out, "GOFLAGS="+flags)
}

// bench runs one workload in a checkout, built and run in env, and
// returns its result line.
func bench(checkout, workload string, seconds int, env []string) (result, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "-workload", workload, "-seconds", fmt.Sprint(seconds))
	cmd.Dir = checkout
	cmd.Env = env
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
		return r, fmt.Errorf("%s in %s: no result line (%v, %v)", workload, checkout, err, jerr)
	}
	return r, nil // a failed op exits 1 and says so in the result
}

// compare reduces one workload's pairs to a row per end-to-end metric.
// A metric is gated when the base's own spread is below its bound: a
// breach then means more than the host's noise.
func compare(workload string, metrics []metric, bases, changes []result) []row {
	var rows []row
	for _, m := range metrics {
		r := row{workload: workload, metric: m.Name, bound: m.Bound, pairs: len(bases)}
		var b, c []float64
		for i := range bases {
			bv, cv := bases[i].Metrics[m.Name].Value, changes[i].Metrics[m.Name].Value
			b, c = append(b, bv), append(c, cv)
			if (m.Better == "higher") == (cv > bv) && cv != bv {
				r.won++
			}
		}
		r.base, r.change = quantile(b, 0.5), quantile(c, 0.5)
		if r.base != 0 {
			r.delta = (r.change - r.base) / r.base
			r.baseIQR = (quantile(b, 0.75) - quantile(b, 0.25)) / r.base
		}
		r.gated = r.baseIQR < m.Bound
		worse := r.delta
		if m.Better == "higher" {
			worse = -worse
		}
		r.breach = r.gated && worse > m.Bound
		rows = append(rows, r)
	}
	return rows
}

// quantile interpolates the p-quantile of xs linearly between ranks.
func quantile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// report prints the comparison table and returns the number of breaches.
func report(rows []row) int {
	fmt.Print("| workload | metric | base median | change median | change | base IQR | bound | pairs won | verdict |\n|---|---|---|---|---|---|---|---|---|\n")
	breaches := 0
	for _, r := range rows {
		verdict := "ok"
		switch {
		case r.breach:
			verdict, breaches = "BREACH", breaches+1
		case !r.gated:
			verdict = "unresolved"
		}
		fmt.Printf("| `%s` | `%s` | %.4g | %.4g | %+.1f%% | %.1f%% | %.0f%% | %d/%d | %s |\n",
			r.workload, r.metric, r.base, r.change, 100*r.delta, 100*r.baseIQR, 100*r.bound, r.won, r.pairs, verdict)
	}
	return breaches
}
