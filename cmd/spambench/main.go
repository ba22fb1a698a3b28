// Command spambench regenerates the paper's tables and figures.
//
// Usage:
//
//	spambench [-experiment NAME] [-full-scale F] [-subset-scale F]
//	          [-task-procs N] [-match-procs N]
//	          [-csv DIR]
//	          [-fault-seed N] [-crash-rate P]
//
// NAME is one of: tables123, table4, tables567, table8, fig3, fig6,
// fig7, table9, fig8, fig9, an extension experiment (ext-levels,
// ext-sched, ext-sync, ext-queues, ext-msgpass, ext-suburban,
// ext-scale, ext-faults, ext-memsched), or "all" (the default).
//
// -csv also writes the figure experiments' data series as
// CSV files into DIR.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"spampsm/internal/bench"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	experiment := flag.String("experiment", "all",
		"experiment to run: all, "+strings.Join(append(bench.Names(), bench.ExtNames()...), ", "))
	fullScale := flag.Float64("full-scale", 3,
		"scene scale factor for the full-dataset runs of Tables 1-3")
	subsetScale := flag.Float64("subset-scale", 1,
		"scale factor for the representative subsets (1 = calibrated paper scale)")
	taskProcs := flag.Int("task-procs", 14, "maximum task processes (paper: 14)")
	matchProcs := flag.Int("match-procs", 13, "maximum dedicated match processes (paper: 13)")
	csvDir := flag.String("csv", "", "also write the figure experiments' data series as CSV files into this directory")
	faultSeed := flag.Int64("fault-seed", 1990, "seed for the ext-faults chaos experiment")
	crashRate := flag.Float64("crash-rate", 0.1, "per-processor death rate for ext-faults' plan-driven row")
	flag.Parse()

	for _, sc := range []struct {
		flag string
		f    float64
	}{{"-full-scale", *fullScale}, {"-subset-scale", *subsetScale}} {
		if !(sc.f > 0) || math.IsInf(sc.f, 1) {
			fmt.Fprintf(os.Stderr, "spambench: %s %v: a scale factor is a finite number above 0\n", sc.flag, sc.f)
			flag.Usage()
			return 2
		}
	}

	opt := bench.Options{
		FullScale:     *fullScale,
		SubsetScale:   *subsetScale,
		MaxTaskProcs:  *taskProcs,
		MaxMatchProcs: *matchProcs,
		FaultSeed:     *faultSeed,
		CrashRate:     *crashRate,
	}
	suite := bench.NewSuite(opt)
	var out string
	var err error
	if *experiment == "all" {
		out, err = suite.RunAll()
	} else {
		out, err = suite.Run(*experiment)
	}
	fmt.Print(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spambench:", err)
		return 1
	}
	if *csvDir != "" {
		names := []string{*experiment}
		if *experiment == "all" {
			names = bench.Names()
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "spambench:", err)
			return 1
		}
		for _, n := range names {
			files, err := suite.CSVFor(n)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spambench:", err)
				return 1
			}
			for fname, content := range files {
				path := filepath.Join(*csvDir, fname)
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "spambench:", err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
	}
	return 0
}
