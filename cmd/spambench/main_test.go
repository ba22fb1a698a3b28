package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// The golden test runs the built spambench binary over every
// experiment at a reduced scale and compares its stdout with
// testdata/all.golden. Every experiment is on the simulated clock, so
// the output depends only on the flags; the file not changing is what
// "every table and figure byte-identical to the parent commit" means.
// internal/bench's TestReferenceSections holds four scheduler-free
// sections at paper scale; this holds all nineteen, the scheduled
// ones (fig6-fig9, table9, every ext-*) included. Regenerate, on
// purpose, with
//
//	go test ./cmd/spambench -update

var update = flag.Bool("update", false, "rewrite testdata/all.golden from the built binary's output")

// spambenchBin is the binary TestMain builds from this package.
var spambenchBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "spambench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, "spambench test:", err)
		os.Exit(1)
	}
	spambenchBin = filepath.Join(dir, "spambench")
	if out, err := exec.Command("go", "build", "-o", spambenchBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "spambench test: go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestGoldenAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(spambenchBin, "-experiment", "all", "-subset-scale", "0.25", "-full-scale", "0.6")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("spambench: %v\n%s", err, stderr.String())
	}
	got := stdout.Bytes()
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("output differs from %s at line %d (regenerate with -update only if the change is intended)\n got: %s\nwant: %s",
				path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output differs from %s: %d lines, want %d", path, len(gotLines), len(wantLines))
}

// TestNonPositiveScaleIsUsageError: a -subset-scale or -full-scale that
// is not a finite number above 0 is refused before any experiment runs.
func TestNonPositiveScaleIsUsageError(t *testing.T) {
	for _, flag := range []string{"-subset-scale", "-full-scale"} {
		for _, scale := range []string{"-1", "0", "NaN", "+Inf"} {
			var stdout bytes.Buffer
			cmd := exec.Command(spambenchBin, "-experiment", "table4", flag, scale)
			cmd.Stdout = &stdout
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); code != 2 || stdout.Len() != 0 {
				t.Errorf("%s %s: exit %d (%v), want 2 and no output, got:\n%s", flag, scale, code, err, stdout.String())
			}
		}
	}
}
