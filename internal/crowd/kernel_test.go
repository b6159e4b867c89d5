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
	answers := make([]float64, sample)
	for i := 0; i < sample; i++ {
		answers[i] = refMemberAnswer(c, i, key)
	}
	if c.TrimFraction > 0 && sample > 2 {
		sort.Float64s(answers)
		k := int(float64(sample) * c.TrimFraction)
		if 2*k >= sample {
			k = (sample - 1) / 2
		}
		answers = answers[k : sample-k]
	}
	sum := 0.0
	for _, a := range answers {
		sum += a
	}
	return sum / float64(len(answers))
}

// The kernel reproduces the reference formulation exactly (==, no
// epsilon) for every answer method and the scale adapter: seeds of
// either sign up to math.MinInt64's width, with and without spam
// workers, curated truth and trimming, and out-of-range members, which
// answer 0.
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
				out := make([]float64, size+2)
				for _, key := range keys {
					if got, want := c.Mean(key), refMean(c, key); got != want {
						t.Fatalf("%s: Mean(%q) = %v, want %v", name, key, got, want)
					}
					for i := -1; i <= size; i++ {
						if got, want := c.MemberAnswer(i, key), refMemberAnswer(c, i, key); got != want {
							t.Fatalf("%s: MemberAnswer(%d, %q) = %v, want %v", name, i, key, got, want)
						}
					}
					crowdSource{c}.Batch(key, -1, out)
					for j, got := range out {
						if want := refMemberAnswer(c, j-1, key); got != want {
							t.Fatalf("%s: Batch(%q) member %d = %v, want %v", name, key, j-1, got, want)
						}
					}
					for _, trim := range []float64{0, 0.2} {
						c.TrimFraction = trim
						for _, sample := range []int{0, 1, 2, 10, size, size + 5} {
							if got, want := c.Support(key, sample), refSupport(c, key, sample); got != want {
								t.Fatalf("%s/trim=%v: Support(%q, %d) = %v, want %v", name, trim, key, sample, got, want)
							}
						}
					}
					c.TrimFraction = 0
				}
			}
		}
	}
}

// The answer path allocates nothing: not per support, per member
// answer, or per streamed batch.
func TestAnswerKernelAllocs(t *testing.T) {
	c := NewCrowd(100, 7)
	c.Truth = DemoTruth()
	out := make([]float64, 64)
	for _, key := range []string{`[] in Fall & [] visit Delaware_Park`, "Café «Zürich» 東京"} {
		checks := map[string]func(){
			"Support":      func() { c.Support(key, 100) },
			"MemberAnswer": func() { c.MemberAnswer(42, key) },
			"Batch":        func() { crowdSource{c}.Batch(key, 10, out) },
		}
		for name, f := range checks {
			if n := testing.AllocsPerRun(50, f); n != 0 {
				t.Errorf("%s(%q) allocates %v times per call, want 0", name, key, n)
			}
		}
	}
}
