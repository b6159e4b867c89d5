package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the golden output from the current code:
// go test -run TestExperimentsGolden -update ./cmd/experiments
var update = flag.Bool("update", false, "rewrite testdata/experiments.txt")

// TestExperimentsGolden runs every experiment and compares the output,
// byte for byte, with testdata/experiments.txt, the record EXPERIMENTS.md
// is written from. The output is deterministic: the crowd is seeded and
// no experiment prints a time.
func TestExperimentsGolden(t *testing.T) {
	var out bytes.Buffer
	run(&out, nil)
	golden := filepath.Join("testdata", "experiments.txt")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden output (regenerate with -update): %v", err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		if i == len(got) || i == len(exp) || got[i] != exp[i] {
			line := func(ls []string) string {
				if i < len(ls) {
					return ls[i]
				}
				return "(end of output)"
			}
			t.Fatalf("output differs from %s at line %d (regenerate with -update if intended):\ngot:  %s\nwant: %s",
				golden, i+1, line(got), line(exp))
		}
	}
}
