package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The golden tests run the built spamrun binary and compare its stdout
// with testdata/*.golden. spamrun's output depends only on its flags —
// never on the matcher, the geometry path, the worker count or the
// process layout — so "byte-identical to the parent commit" is these
// files not changing. Regenerate them, on purpose, with
//
//	go test ./cmd/spamrun -update

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the built binary's output")

// spamrunBin is the binary TestMain builds from this package.
var spamrunBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "spamrun-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, "spamrun test:", err)
		os.Exit(1)
	}
	spamrunBin = filepath.Join(dir, "spamrun")
	if out, err := exec.Command("go", "build", "-o", spamrunBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "spamrun test: go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// spamrun runs the built binary and returns its stdout and exit code.
func spamrun(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(spamrunBin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("spamrun %s: %v", strings.Join(args, " "), err)
	}
	if err != nil {
		t.Logf("spamrun %s: stderr:\n%s", strings.Join(args, " "), stderr.String())
	}
	return stdout.String(), cmd.ProcessState.ExitCode()
}

// maskWall blanks the one host-clock column of spamrun's output, the
// update table's "Wall (ms)", and drops the cluster accounting lines,
// which describe the process layout and not the interpretation.
// Columns are counted in runes: the header row has a Δ in it.
func maskWall(out string) string {
	lines := strings.Split(out, "\n")
	kept := lines[:0]
	from, to := -1, -1
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "cluster"):
			continue
		case strings.Contains(line, "Wall (ms)"):
			head, _, _ := strings.Cut(line, "Wall (ms)")
			from = len([]rune(head))
			to = from + len("Wall (ms)  ")
		case line == "":
			from = -1
		case from >= 0 && !strings.HasPrefix(line, "---"):
			if r := []rune(line); len(r) >= to {
				line = string(r[:from]) + "~" + strings.Repeat(" ", to-from-1) + string(r[to:])
			}
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

var goldens = []struct {
	name string
	args []string
}{
	{"SF-reentry", []string{"-dataset", "SF", "-reentry"}},
	{"DC-reentry", []string{"-dataset", "DC", "-reentry"}},
	{"MOFF-reentry", []string{"-dataset", "MOFF", "-reentry"}},
	{"DC-level2", []string{"-dataset", "DC", "-level", "2"}},
	{"MOFF-update", []string{"-dataset", "MOFF", "-reentry", "-update", "10", "-churn", "0.02"}},
}

func TestGoldenOutputs(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			out, code := spamrun(t, g.args...)
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			got := maskWall(out)
			path := filepath.Join("testdata", g.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("spamrun %s: output differs from %s (regenerate with -update only if the change is intended)\n--- got\n%s\n--- want\n%s",
					strings.Join(g.args, " "), path, got, want)
			}
		})
	}
}

// TestGoldenUnderCluster: a two-process cluster prints what the
// in-process run prints.
func TestGoldenUnderCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("two more interpretations")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "DC-reentry.golden"))
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-dataset", "DC", "-reentry", "-workers", "2", "-cluster-workers", "2", "-cluster-check"}
	out, code := spamrun(t, args...)
	if code != 0 {
		t.Fatalf("spamrun %s: exit %d", strings.Join(args, " "), code)
	}
	if got := maskWall(out); got != string(want) {
		t.Errorf("spamrun %s: output differs from the in-process run's golden\n--- got\n%s", strings.Join(args, " "), got)
	}
}

// TestUndefinedLevelIsUsageError: -level outside 1-4 used to run zero
// LCC and FA tasks, print an empty interpretation and exit 0.
func TestUndefinedLevelIsUsageError(t *testing.T) {
	for _, level := range []string{"7", "0", "-1"} {
		out, code := spamrun(t, "-dataset", "DC", "-level", level)
		if code != 2 {
			t.Errorf("-level %s: exit %d, want 2", level, code)
		}
		if strings.Contains(out, "Interpretation of") {
			t.Errorf("-level %s printed an interpretation:\n%s", level, out)
		}
	}
}

// TestNonPositiveScaleIsUsageError: a -scale that is not a finite
// number above 0 used to run an interpretation of a scene whose region
// areas are NaN, or of a 0×0 scene, and exit 0.
func TestNonPositiveScaleIsUsageError(t *testing.T) {
	for _, scale := range []string{"-1", "0", "NaN", "+Inf"} {
		out, code := spamrun(t, "-dataset", "DC", "-scale", scale)
		if code != 2 {
			t.Errorf("-scale %s: exit %d, want 2", scale, code)
		}
		if strings.Contains(out, "Interpretation of") {
			t.Errorf("-scale %s printed an interpretation:\n%s", scale, out)
		}
	}
}

// TestNonFiniteChurnIsUsageError: a -churn of +Inf or NaN used to
// update one region of the scene, and -Inf none, instead of refusing.
func TestNonFiniteChurnIsUsageError(t *testing.T) {
	for _, churn := range []string{"NaN", "+Inf", "-Inf"} {
		out, code := spamrun(t, "-dataset", "DC", "-scale", "0.4", "-update", "1", "-churn", churn)
		if code != 2 {
			t.Errorf("-churn %s: exit %d, want 2", churn, code)
		}
		if strings.Contains(out, "Incremental updates") {
			t.Errorf("-churn %s ran an update:\n%s", churn, out)
		}
	}
}
