package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture returns what fn prints to stdout.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	fn()
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

func readGolden(t *testing.T) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// TestTablesGolden pins every table and figure benchtables prints to
// testdata/tables.golden. The simulator, cost model and planner behind them
// are deterministic, so any change in the output is a change in a modelled
// number. After an intentional one, regenerate the file with
//
//	go run ./cmd/benchtables > cmd/benchtables/testdata/tables.golden
//
// and review its diff.
func TestTablesGolden(t *testing.T) {
	want := readGolden(t)
	got := capture(t, func() {
		for _, e := range all { // as main runs them without -only
			e.fn()
			fmt.Println()
		}
	})

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
			t.Errorf("line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	t.Errorf("output (%d lines) differs from testdata/tables.golden (%d lines)", len(gl), len(wl))
}

// TestOnlyMatchesGolden runs each entry alone, as -only does, in reverse
// output order: no table may depend on state an earlier one leaves behind,
// so every entry must print exactly its section of the full output.
func TestOnlyMatchesGolden(t *testing.T) {
	want := readGolden(t)
	sections := make([]string, len(all))
	for i := len(all) - 1; i >= 0; i-- {
		e := all[i]
		t.Run(e.name, func(t *testing.T) {
			sections[i] = capture(t, func() {
				e.fn()
				fmt.Println()
			})
			if strings.TrimSpace(sections[i]) == "" {
				t.Fatal("printed nothing")
			}
			if !strings.Contains(want, sections[i]) {
				t.Errorf("-only %s output is not a section of testdata/tables.golden:\n%s", e.name, sections[i])
			}
		})
	}
	if got := strings.Join(sections, ""); got != want {
		t.Errorf("the -only outputs, concatenated in order, differ from testdata/tables.golden (%d vs %d bytes)", len(got), len(want))
	}
}
