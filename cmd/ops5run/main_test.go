package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The golden tests run the built ops5run binary and compare its stdout
// with testdata/*.golden: the two example programs, whose firings and
// simulated time hold the matcher to its cost model outside SPAM, and
// the atom probe, whose nan, inf and |12| must stay symbols. Regenerate
// them, on purpose, with
//
//	go test ./cmd/ops5run -update

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the built binary's output")

// ops5runBin is the binary TestMain builds from this package.
var ops5runBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "ops5run-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ops5run test:", err)
		os.Exit(1)
	}
	ops5runBin = filepath.Join(dir, "ops5run")
	if out, err := exec.Command("go", "build", "-o", ops5runBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "ops5run test: go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

const examples = "../../examples/ops5/"

var goldens = []struct {
	name string
	args []string
}{
	{"counter", []string{"-wm", examples + "counter.wm", "-dump", "count", examples + "counter.ops5"}},
	{"mab", []string{"-wm", examples + "mab.wm", "-dump", "monkey", examples + "mab.ops5"}},
	{"atoms", []string{"-wm", "testdata/atoms.wm", "-dump", "c", "testdata/atoms.ops5"}},
}

func TestGoldenOutputs(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(ops5runBin, g.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("ops5run %s: %v\n%s", strings.Join(g.args, " "), err, stderr.String())
			}
			path := filepath.Join("testdata", g.name+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("ops5run %s: output differs from %s (regenerate with -update only if the change is intended)\n--- got\n%s\n--- want\n%s",
					strings.Join(g.args, " "), path, got, want)
			}
		})
	}
}
