package crowdscale

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
)

// exhaustiveSupport is the brute-force oracle: mean answer of the first
// effN members, computed with a straight pass over the source.
func exhaustiveSupport(src Source, key string, effN int) float64 {
	if effN <= 0 {
		return 0
	}
	return src.Sum(key, 0, effN) / float64(effN)
}

// topKOracle replicates the exhaustive significance order: stable sort
// by support (desc or asc), ties broken by first-appearance order, top k
// significant.
func topKOracle(supports []float64, k int, desc bool) []bool {
	idx := make([]int, len(supports))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if desc {
			return supports[idx[a]] > supports[idx[b]]
		}
		return supports[idx[a]] < supports[idx[b]]
	})
	sig := make([]bool, len(supports))
	for r, i := range idx {
		sig[i] = r < k
	}
	return sig
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fact-%03d", i)
	}
	return keys
}

func TestDecideThresholdMatchesOracle(t *testing.T) {
	for _, rule := range []Rule{RuleExact, RuleConfidence} {
		for _, seed := range []int64{1, 2, 3, 4} {
			p := &Population{N: 3000, Seed: seed, Skew: 1, SpamFraction: 0.05}
			x := New(p, Config{Rule: rule})
			keys := testKeys(40)
			for _, thr := range []float64{0.1, 0.35, 0.5, 0.9} {
				decs, err := x.DecideThreshold(context.Background(), keys, thr, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i, d := range decs {
					want := exhaustiveSupport(p, keys[i], p.N) >= thr
					if d.Significant != want {
						t.Errorf("rule=%v seed=%d thr=%v key=%s: got %v (support est %v, sampled %d/%d), oracle %v",
							rule, seed, thr, keys[i], d.Significant, d.Support, d.Sampled, p.N, want)
					}
				}
			}
		}
	}
}

func TestDecideThresholdEffN(t *testing.T) {
	p := &Population{N: 5000, Seed: 9}
	x := New(p, Config{Rule: RuleExact})
	keys := testKeys(10)
	effN := 321
	decs, err := x.DecideThreshold(context.Background(), keys, 0.4, effN)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decs {
		want := exhaustiveSupport(p, keys[i], effN) >= 0.4
		if d.Significant != want {
			t.Errorf("key %s: got %v, oracle over first %d members %v", keys[i], d.Significant, effN, want)
		}
		if d.Sampled > effN {
			t.Errorf("key %s sampled %d > effN %d", keys[i], d.Sampled, effN)
		}
	}
}

func TestDecideThresholdEmptyPopulation(t *testing.T) {
	p := &Population{N: 0, Seed: 1}
	x := New(p, Config{})
	decs, err := x.DecideThreshold(context.Background(), []string{"a", "b"}, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decs {
		if d.Significant || !d.Exact || d.Support != 0 {
			t.Fatalf("empty population decision %+v", d)
		}
	}
	// Threshold 0 is trivially met even with nobody to ask.
	decs, err = x.DecideThreshold(context.Background(), []string{"a"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !decs[0].Significant {
		t.Fatal("threshold 0 not met by empty population")
	}
}

func TestDecideTopKMatchesOracle(t *testing.T) {
	for _, rule := range []Rule{RuleExact, RuleConfidence} {
		for _, desc := range []bool{true, false} {
			p := &Population{N: 2000, Seed: 12, Skew: 0.5}
			x := New(p, Config{Rule: rule})
			keys := testKeys(12)
			supports := make([]float64, len(keys))
			for i, k := range keys {
				supports[i] = exhaustiveSupport(p, keys[i], p.N)
				_ = k
			}
			for _, k := range []int{0, 1, 3, 11, 12, 20} {
				decs, err := x.DecideTopK(context.Background(), keys, k, desc, 0)
				if err != nil {
					t.Fatal(err)
				}
				want := topKOracle(supports, k, desc)
				for i, d := range decs {
					if d.Significant != want[i] {
						t.Errorf("rule=%v desc=%v k=%d key=%s: got %v, oracle %v (support %v)",
							rule, desc, k, keys[i], d.Significant, want[i], supports[i])
					}
				}
			}
		}
	}
}

func TestDecideTopKZeroSampleSupportFinite(t *testing.T) {
	// k >= number of tasks settles membership structurally before any
	// sampling; the support estimate must be a finite 0, not 0/0.
	p := &Population{N: 1000, Seed: 17}
	x := New(p, Config{})
	decs, err := x.DecideTopK(context.Background(), []string{"a", "b"}, 5, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decs {
		if !d.Significant {
			t.Fatalf("key %s not in top-5 of 2", d.Key)
		}
		if d.Sampled != 0 {
			t.Fatalf("key %s sampled %d for a structural decision", d.Key, d.Sampled)
		}
		if math.IsNaN(d.Support) || d.Support != 0 {
			t.Fatalf("key %s zero-sample support %v, want 0", d.Key, d.Support)
		}
	}
	st := x.Stats()
	if st.EarlyDecided != 0 || st.AnswersSaved != 0 {
		t.Fatalf("structural decisions counted as early-termination savings: %+v", st)
	}
}

// constSource answers a fixed value per key: exact ties force the top-k
// race down to full sampling and the stable first-appearance tie-break.
type constSource struct {
	n    int
	vals map[string]float64
}

func (c *constSource) Size() int { return c.n }
func (c *constSource) Sum(key string, from, to int) float64 {
	sum := 0.0
	for m := from; m < to; m++ {
		sum += c.vals[key]
	}
	return sum
}

func TestDecideTopKStableTieBreak(t *testing.T) {
	src := &constSource{n: 500, vals: map[string]float64{
		"first": 0.5, "second": 0.5, "top": 0.9, "bottom": 0.1,
	}}
	for _, rule := range []Rule{RuleExact, RuleConfidence} {
		x := New(src, Config{Rule: rule})
		keys := []string{"first", "second", "top", "bottom"}
		decs, err := x.DecideTopK(context.Background(), keys, 2, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, d := range decs {
			got[d.Key] = d.Significant
		}
		// Stable desc order: top, first, second, bottom — k=2 keeps
		// top and first ("first" wins the tie by appearing earlier).
		want := map[string]bool{"top": true, "first": true, "second": false, "bottom": false}
		for k, w := range want {
			if got[k] != w {
				t.Errorf("rule=%v key %s significant=%v, want %v", rule, k, got[k], w)
			}
		}
		// Ascending k=2 keeps bottom and first.
		decs, err = x.DecideTopK(context.Background(), keys, 2, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range decs {
			want := d.Key == "bottom" || d.Key == "first"
			if d.Significant != want {
				t.Errorf("rule=%v asc key %s significant=%v, want %v", rule, d.Key, d.Significant, want)
			}
		}
	}
}

func TestConfidenceRuleSublinear(t *testing.T) {
	p := &Population{N: 1_000_000, Seed: 21, Truth: map[string]float64{
		"popular": 0.9, "niche": 0.1,
	}}
	x := New(p, Config{Rule: RuleConfidence})
	decs, err := x.DecideThreshold(context.Background(), []string{"popular", "niche"}, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decs {
		if d.Exact {
			t.Errorf("key %s fully sampled a million members", d.Key)
		}
		if d.Sampled > 20000 {
			t.Errorf("key %s sampled %d answers for a 0.4-wide margin", d.Key, d.Sampled)
		}
	}
	if decs[0].Significant != true || decs[1].Significant != false {
		t.Fatalf("decisions %v/%v", decs[0].Significant, decs[1].Significant)
	}
	st := x.Stats()
	if st.EarlyDecided != 2 || st.AnswersSaved == 0 {
		t.Fatalf("savings not recorded: %+v", st)
	}
	if st.MemberAnswers+st.AnswersSaved != 2*uint64(p.N) {
		t.Fatalf("answers %d + saved %d != 2*N", st.MemberAnswers, st.AnswersSaved)
	}
}

func TestExactRuleStopsEarlyOnWideMargin(t *testing.T) {
	// With truth 0.95 vs threshold 0.1, worst-case bounds decide before
	// full sampling even without a confidence interval.
	p := &Population{N: 100000, Seed: 30, Truth: map[string]float64{"k": 0.95}}
	x := New(p, Config{Rule: RuleExact})
	decs, err := x.DecideThreshold(context.Background(), []string{"k"}, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !decs[0].Significant {
		t.Fatal("wide-margin key not significant")
	}
	if decs[0].Sampled >= p.N {
		t.Fatalf("exact rule sampled all %d members despite a decidable margin", p.N)
	}
}

// Supports is one member-order pass per key: it equals a straight loop
// over the members' answers bit for bit, whatever the population size
// and however the keys are spread over goroutines.
func TestSupportsMatchesStraightSum(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := &Population{N: 30000, Seed: 14, SpamFraction: 0.1}
	x := New(p, Config{})
	keys := testKeys(5)
	got, err := x.Supports(context.Background(), keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		sum := 0.0
		for m := 0; m < p.N; m++ {
			sum += p.Answer(m, k)
		}
		if want := sum / float64(p.N); got[i] != want {
			t.Errorf("key %s: Supports %v, straight loop %v", k, got[i], want)
		}
	}
}
