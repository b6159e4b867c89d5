package crowdscale

import (
	"math"
	"testing"
)

func TestPopulationDeterministic(t *testing.T) {
	p := &Population{N: 1000, Seed: 42, Skew: 1.5, SpamFraction: 0.1}
	q := &Population{N: 1000, Seed: 42, Skew: 1.5, SpamFraction: 0.1}
	for _, key := range []string{"likes(child,gymboree)", "visit(park)", "x"} {
		for i := 0; i < p.N; i++ {
			a, b := p.Answer(i, key), q.Answer(i, key)
			if a != b {
				t.Fatalf("key %q member %d: %v != %v", key, i, a, b)
			}
			if a < 0 || a > 1 {
				t.Fatalf("key %q member %d: answer %v out of [0,1]", key, i, a)
			}
		}
	}
	r := &Population{N: 1000, Seed: 43}
	p2 := &Population{N: 1000, Seed: 42}
	same := 0
	for i := 0; i < p2.N; i++ {
		if p2.Answer(i, "x") == r.Answer(i, "x") {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("different seeds produced %d/1000 identical answers", same)
	}
}

// A batch's Sum is the straight member-order loop over the same
// members' answers, wherever the batch starts; members outside [0, N)
// answer 0.
func TestPopulationBatchOffsets(t *testing.T) {
	p := &Population{N: 500, Seed: 7, SpamFraction: 0.2}
	loop := func(from, to int) float64 {
		sum := 0.0
		for m := from; m < to; m++ {
			sum += p.Answer(m, "k")
		}
		return sum
	}
	for _, r := range [][2]int{{0, 500}, {250, 350}, {499, 500}, {7, 7}} {
		if got, want := p.Sum("k", r[0], r[1]), loop(r[0], r[1]); got != want {
			t.Fatalf("Sum over [%d, %d) = %v, member loop %v", r[0], r[1], got, want)
		}
	}
	for _, m := range []int{-1, 500, 505} {
		if a := p.Answer(m, "k"); a != 0 {
			t.Fatalf("member %d outside the population answered %v", m, a)
		}
	}
	if got, want := p.Sum("k", -3, 505), p.Sum("k", 0, 500); got != want {
		t.Fatalf("Sum over a range past both ends = %v, want the whole population's %v", got, want)
	}
}

func TestPopulationTruthMean(t *testing.T) {
	p := &Population{N: 50000, Seed: 11, Truth: map[string]float64{"t": 0.5}}
	if mean := p.Sum("t", 0, p.N) / float64(p.N); math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("empirical mean %v far from truth 0.5", mean)
	}
	if got := p.Mean("t"); got != 0.5 {
		t.Fatalf("Mean = %v, want 0.5", got)
	}
}

func TestPopulationSpamFraction(t *testing.T) {
	p := &Population{N: 100000, Seed: 3, SpamFraction: 0.25}
	spam := 0
	for i := 0; i < p.N; i++ {
		if p.IsSpammer(i) {
			spam++
		}
	}
	if frac := float64(spam) / float64(p.N); math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("spammer fraction %v far from 0.25", frac)
	}
	if (&Population{N: 10, Seed: 3}).IsSpammer(0) {
		t.Fatal("IsSpammer with zero SpamFraction")
	}
}

func TestPopulationSkewLowersMeans(t *testing.T) {
	flat := &Population{N: 10, Seed: 5}
	skew := &Population{N: 10, Seed: 5, Skew: 2}
	sumFlat, sumSkew := 0.0, 0.0
	keys := 500
	for i := 0; i < keys; i++ {
		key := "pattern-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)) + "-" + string(rune('A'+(i/260)%26))
		sumFlat += flat.Mean(key)
		sumSkew += skew.Mean(key)
	}
	mf, ms := sumFlat/float64(keys), sumSkew/float64(keys)
	if ms >= mf {
		t.Fatalf("skewed mean-of-means %v not below flat %v", ms, mf)
	}
	if mf < 0.30 || mf > 0.40 {
		t.Fatalf("flat mean-of-means %v outside expected [0.30, 0.40] around 0.35", mf)
	}
}
