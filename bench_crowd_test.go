package nl2cm

// Crowd-mining scale benchmarks (P11): significance decisions over
// synthetic populations of 10k / 100k / 1M members, fixed full sampling
// (through the same executor) versus sequential-sampling early
// termination. EXPERIMENTS.md E14 records the numbers; the answers/op
// metric shows the sequential path's sublinear member-answer cost.

import (
	"context"
	"fmt"
	"testing"
)

// benchKeys is a mix of clearly-decidable and boundary-ish tasks: the
// shape one SATISFYING subclause produces after open-variable expansion.
func benchKeys(n int) ([]string, map[string]float64) {
	keys := make([]string, n)
	truth := make(map[string]float64, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("[] visit Synth_Place_%02d", i)
		// Supports sweep 0.05..0.72, straddling the 0.35 threshold.
		truth[keys[i]] = 0.05 + 0.67*float64(i)/float64(n-1)
	}
	return keys, truth
}

func BenchmarkP11_CrowdScale(b *testing.B) {
	const tasks = 24
	const thr = 0.35
	keys, truth := benchKeys(tasks)
	for _, members := range []int{10_000, 100_000, 1_000_000} {
		pop := &Population{N: members, Seed: 7, Truth: truth, Skew: 1, SpamFraction: 0.02}
		for _, mode := range []string{"fixed", "sequential"} {
			b.Run(fmt.Sprintf("members=%d/%s", members, mode), func(b *testing.B) {
				x := NewScaleExecutorFrom(pop, ScaleConfig{})
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x.Reset() // resample from scratch each iteration
					var err error
					if mode == "fixed" {
						_, err = x.Supports(ctx, keys, 0)
					} else {
						_, err = x.DecideThreshold(ctx, keys, thr, 0)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := x.Stats()
				b.ReportMetric(float64(st.MemberAnswers)/float64(b.N), "answers/op")
			})
		}
	}
}
