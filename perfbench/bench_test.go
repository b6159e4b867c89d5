package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// runOps sets a workload up from the seed and runs a fixed number of
// ops, recording the plan-cache outcome of every translation.
func runOps(t *testing.T, workload string, seed int64, n int) (*bench, phase) {
	t.Helper()
	b, err := setup(workload, seed, "..")
	if err != nil {
		t.Fatal(err)
	}
	b.record = []string{}
	p := b.runPhase(time.Hour, n, make([]time.Duration, 0, n+chunk))
	if b.stats.failed != 0 {
		t.Fatalf("%d of %d ops failed; first: %v", b.stats.failed, p.ops, b.stats.firstErr)
	}
	return b, p
}

// TestSeededGenerator pins what the benchmark's comparisons rest on: one
// seed yields one op list, one cache-outcome sequence, one count of
// crowd answers and (within 0.5%) one allocation count per op; another
// seed yields another op list.
func TestSeededGenerator(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			n := 500
			if w == wExecuteCrowd {
				n = 69 // one pass; the heaviest question alone takes ~0.2 s
			}
			a, pa := runOps(t, w, 1, n)
			b, pb := runOps(t, w, 1, n)
			if !reflect.DeepEqual(a.ops, b.ops) {
				t.Fatal("same seed, different op lists")
			}
			if !reflect.DeepEqual(a.record, b.record) {
				t.Fatalf("same seed, different cache-outcome sequences")
			}
			if pa.answers != pb.answers {
				t.Fatalf("same seed, crowd answers %d and %d", pa.answers, pb.answers)
			}
			allocA := float64(pa.mallocs) / float64(pa.ops)
			allocB := float64(pb.mallocs) / float64(pb.ops)
			if d := math.Abs(allocA-allocB) / allocA; d > 0.005 {
				t.Fatalf("same seed, allocs per op %.1f and %.1f differ by %.2f%%", allocA, allocB, d*100)
			}
			c, err := setup(w, 2, "..")
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.ops, c.ops) {
				t.Fatal("seeds 1 and 2 gave the same op list")
			}
		})
	}
}
