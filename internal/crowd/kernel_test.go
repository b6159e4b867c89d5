package crowd

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"
)

// refHash01 is the answer hash in its original fmt and hash/fnv form,
// kept as the oracle the allocation-free kernel must match bit for bit.
func refHash01(seed int64, parts ...string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|", seed)
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return float64(h.Sum64()%1_000_000) / 1_000_000
}

func refMean(c *Crowd, key string) float64 {
	if v, ok := c.Truth[key]; ok {
		return clamp01(v)
	}
	return 0.05 + 0.6*refHash01(c.Seed, "mean", key)
}

func refIsSpammer(c *Crowd, i int) bool {
	if c.SpamFraction <= 0 {
		return false
	}
	return refHash01(c.Seed, "spam", fmt.Sprint(i)) < c.SpamFraction
}

func refMemberAnswer(c *Crowd, i int, key string) float64 {
	if i < 0 || i >= c.Size {
		return 0
	}
	if refIsSpammer(c, i) {
		return refHash01(c.Seed, "spam-answer", key, fmt.Sprint(i))
	}
	mean := refMean(c, key)
	n := refHash01(c.Seed, "noise", key, fmt.Sprint(i)) - refHash01(c.Seed, "noise2", key, fmt.Sprint(i))
	return clamp01(mean + n*c.noise()*2)
}

func refSupport(c *Crowd, key string, sample int) float64 {
	if sample <= 0 || sample > c.Size {
		sample = c.Size
	}
	if sample == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < sample; i++ {
		sum += refMemberAnswer(c, i, key)
	}
	return sum / float64(sample)
}

// The kernel reproduces the reference formulation exactly (==, no
// epsilon) for every answer method and the scale adapter: seeds of
// either sign up to math.MinInt64's width, with and without spam
// workers and curated truth, and out-of-range members, which answer 0.
func TestAnswerKernelMatchesReference(t *testing.T) {
	keys := []string{"", "Café «Zürich» 東京", "some pattern", `[] eat Pho & [] in "Hà Nội"`}
	for k := range DemoTruth() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const size = 37
	for _, seed := range []int64{0, 7, -3, 1 << 40, math.MinInt64} {
		for _, spam := range []float64{0, 0.3} {
			for _, truth := range []map[string]float64{nil, DemoTruth()} {
				c := NewCrowd(size, seed)
				c.SpamFraction = spam
				c.Truth = truth
				name := fmt.Sprintf("seed=%d/spam=%v/truth=%v", seed, spam, truth != nil)
				for i := -1; i <= size; i++ {
					if got, want := c.IsSpammer(i), refIsSpammer(c, i); got != want {
						t.Fatalf("%s: IsSpammer(%d) = %v, want %v", name, i, got, want)
					}
				}
				for _, key := range keys {
					if got, want := c.Mean(key), refMean(c, key); got != want {
						t.Fatalf("%s: Mean(%q) = %v, want %v", name, key, got, want)
					}
					for i := -1; i <= size; i++ {
						if got, want := c.MemberAnswer(i, key), refMemberAnswer(c, i, key); got != want {
							t.Fatalf("%s: MemberAnswer(%d, %q) = %v, want %v", name, i, key, got, want)
						}
					}
					for _, r := range [][2]int{{-1, size + 1}, {0, 1}, {5, 20}, {size - 1, size + 3}} {
						want := 0.0
						for i := r[0]; i < r[1]; i++ {
							want += refMemberAnswer(c, i, key)
						}
						if got := (crowdSource{c}).Sum(key, r[0], r[1]); got != want {
							t.Fatalf("%s: Sum(%q, %d, %d) = %v, want %v", name, key, r[0], r[1], got, want)
						}
					}
					for _, sample := range []int{0, 1, 2, 10, size, size + 5} {
						if got, want := c.Support(key, sample), refSupport(c, key, sample); got != want {
							t.Fatalf("%s: Support(%q, %d) = %v, want %v", name, key, sample, got, want)
						}
					}
				}
			}
		}
	}
}

// The answer path allocates nothing: not per support, per member
// answer, or per sampled batch.
func TestAnswerKernelAllocs(t *testing.T) {
	c := NewCrowd(100, 7)
	c.Truth = DemoTruth()
	for _, key := range []string{`[] in Fall & [] visit Delaware_Park`, "Café «Zürich» 東京"} {
		checks := map[string]func(){
			"Support":      func() { c.Support(key, 100) },
			"MemberAnswer": func() { c.MemberAnswer(42, key) },
			"Sum":          func() { crowdSource{c}.Sum(key, 10, 74) },
		}
		for name, f := range checks {
			if n := testing.AllocsPerRun(50, f); n != 0 {
				t.Errorf("%s(%q) allocates %v times per call, want 0", name, key, n)
			}
		}
	}
}
