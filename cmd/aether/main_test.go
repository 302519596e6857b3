package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runAether runs the command with args and returns its stdout and stderr.
func runAether(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("aether %v: %v", args, err)
	}
	return stdout.String(), stderr.String()
}

// diffGolden fails the test at the first line where got differs from the
// golden file testdata/name.
func diffGolden(t *testing.T, name, got string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got: %.200q\nwant: %.200q", name, i+1, g, w)
		}
	}
}

// TestGolden pins the configuration file (stdout) and the -mct table plus
// summary line (stderr) for two workloads on two accelerators. Aether is
// deterministic, so any change here is a change in a plan. After an
// intentional one, regenerate with
//
//	go run ./cmd/aether -workload W -config C -mct \
//	    > cmd/aether/testdata/W-C.json 2> cmd/aether/testdata/W-C.mct
//
// and review the diff.
func TestGolden(t *testing.T) {
	for _, w := range []string{"bootstrap", "resnet20"} {
		for _, c := range []string{"fast", "sharp-lm"} {
			t.Run(w+"/"+c, func(t *testing.T) {
				stdout, stderr := runAether(t, "-workload", w, "-config", c, "-mct")
				diffGolden(t, w+"-"+c+".json", stdout)
				diffGolden(t, w+"-"+c+".mct", stderr)
			})
		}
	}
}

// -o writes the same configuration file that stdout gets, and without -mct
// only the summary line reaches stderr.
func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	stdout, stderr := runAether(t, "-workload", "bootstrap", "-o", path)
	if stdout != "" {
		t.Errorf("stdout not empty with -o: %q", stdout)
	}
	mct, err := os.ReadFile(filepath.Join("testdata", "bootstrap-fast.mct"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(mct), "\n"), "\n")
	if want := lines[len(lines)-1] + "\n"; stderr != want {
		t.Errorf("stderr = %q, want the summary line %q", stderr, want)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, "bootstrap-fast.json", string(got))
}

// -config takes every name fastsim takes; unknown names and the removed
// -http flag are errors.
func TestFlags(t *testing.T) {
	for _, c := range []string{"fast", "sharp", "sharp-lm", "sharp-8c", "sharp-lm8c", "fast-notbm", "fast-36"} {
		runAether(t, "-workload", "helr256", "-config", c)
	}
	for _, args := range [][]string{
		{"-workload", "bogus"},
		{"-config", "bogus"},
		{"-http", "127.0.0.1:0"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("aether %v: no error", args)
		}
	}
}
