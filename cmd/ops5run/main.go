// Command ops5run is a standalone OPS5 interpreter: it loads a
// production-system source file, optionally an initial working memory,
// runs the recognize-act loop, and reports statistics.
//
// Usage:
//
//	ops5run [-wm FILE] [-max N] [-dump CLASS] [-i] [-trace] program.ops5
//
// The working-memory file contains "(class ^attr value ...)" forms. The
// conflict-resolution strategy is the program's own (strategy lex|mea)
// declaration; -i starts an interactive shell instead of running to
// quiescence, and -trace logs firings and working-memory changes on
// stderr.
package main

import (
	"flag"
	"fmt"
	"os"

	"spampsm/internal/machine"
	"spampsm/internal/ops5"
)

func main() {
	wmFile := flag.String("wm", "", "initial working-memory file")
	maxFirings := flag.Int("max", 0, "maximum production firings (0 = unlimited)")
	dump := flag.String("dump", "", "print the final WMEs of this class")
	interactive := flag.Bool("i", false, "start an interactive shell instead of running to quiescence")
	trace := flag.Bool("trace", false, "trace firings and working-memory changes")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ops5run [flags] program.ops5")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ops5run:", err)
		os.Exit(1)
	}
	prog, err := ops5.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ops5run:", err)
		os.Exit(1)
	}
	opts := []ops5.Option{ops5.WithOutput(os.Stdout)}
	if *trace {
		opts = append(opts, ops5.WithTrace(os.Stderr))
	}
	e, err := ops5.NewEngine(prog, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ops5run:", err)
		os.Exit(1)
	}
	if *wmFile != "" {
		wmSrc, err := os.ReadFile(*wmFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ops5run:", err)
			os.Exit(1)
		}
		specs, err := ops5.ParseWMEList(string(wmSrc))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ops5run:", err)
			os.Exit(1)
		}
		if err := e.AssertAll(specs); err != nil {
			fmt.Fprintln(os.Stderr, "ops5run:", err)
			os.Exit(1)
		}
	}
	if *interactive {
		sh := &ops5.Shell{Engine: e}
		if err := sh.Run(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ops5run:", err)
			os.Exit(1)
		}
		return
	}
	fired, err := e.Run(*maxFirings)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ops5run:", err)
		os.Exit(1)
	}
	st := e.Stats()
	fmt.Printf("\n%d productions, %d firings, %d cycles, halted=%v\n",
		len(prog.Productions), fired, st.Cycles, st.Halted)
	fmt.Printf("simulated time %.3f s (match %.0f%%)\n",
		machine.InstrToSec(st.TotalInstr()), 100*st.MatchFraction())
	if *dump != "" {
		for _, w := range e.WMEs(*dump) {
			fmt.Println(w)
		}
	}
}
