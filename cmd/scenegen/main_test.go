package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The golden tests run the built scenegen binary and compare its stdout
// with testdata/*.golden. A scene is a pure function of its dataset,
// scale and seed, so the files not changing is what "the same scenes as
// the parent commit" means. The -svg case also pins the rendering: its
// golden ends with the SVG file's sha256, and the printed path, which is
// a temporary directory, is masked. Regenerate, on purpose, with
//
//	go test ./cmd/scenegen -update

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the built binary's output")

// scenegenBin is the binary TestMain builds from this package.
var scenegenBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "scenegen-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenegen test:", err)
		os.Exit(1)
	}
	scenegenBin = filepath.Join(dir, "scenegen")
	if out, err := exec.Command("go", "build", "-o", scenegenBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "scenegen test: go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// scenegen runs the built binary and returns its stdout and exit code.
func scenegen(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(scenegenBin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("scenegen %s: %v", strings.Join(args, " "), err)
	}
	if err != nil {
		t.Logf("scenegen %s: stderr:\n%s", strings.Join(args, " "), stderr.String())
	}
	return stdout.String(), cmd.ProcessState.ExitCode()
}

var goldens = []struct {
	name string
	args []string
	svg  bool
}{
	{"SF", []string{"-dataset", "SF", "-scale", "0.4"}, false},
	{"DC", []string{"-dataset", "DC", "-scale", "0.4"}, false},
	{"MOFF", []string{"-dataset", "MOFF", "-scale", "0.4"}, false},
	{"suburban", []string{"-dataset", "suburban"}, false},
	{"DC-svg", []string{"-dataset", "DC", "-scale", "0.4"}, true},
}

func TestGoldenOutputs(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			args := g.args
			svg := filepath.Join(t.TempDir(), "scene.svg")
			if g.svg {
				args = append(args, "-svg", svg)
			}
			out, code := scenegen(t, args...)
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			got := out
			if g.svg {
				b, err := os.ReadFile(svg)
				if err != nil {
					t.Fatal(err)
				}
				got = strings.ReplaceAll(got, svg, "SVG") + fmt.Sprintf("sha256(SVG) %x\n", sha256.Sum256(b))
			}
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
				t.Errorf("scenegen %s: output differs from %s (regenerate with -update only if the change is intended)\n--- got\n%s\n--- want\n%s",
					strings.Join(args, " "), path, got, want)
			}
		})
	}
}

// TestNonPositiveScaleIsUsageError: a -scale that is not a finite
// number above 0 used to print a scene with NaN mean areas, or a 0×0
// scene whose SVG divides by its zero width, and exit 0.
func TestNonPositiveScaleIsUsageError(t *testing.T) {
	for _, scale := range []string{"-1", "0", "NaN", "+Inf"} {
		for _, dataset := range []string{"DC", "suburban"} {
			out, code := scenegen(t, "-dataset", dataset, "-scale", scale)
			if code != 2 || out != "" {
				t.Errorf("-dataset %s -scale %s: exit %d, want 2 and no scene, got:\n%s", dataset, scale, code, out)
			}
		}
	}
}
