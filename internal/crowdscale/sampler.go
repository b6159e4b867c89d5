package crowdscale

import (
	"context"
	"fmt"
	"math"
)

// bounds returns the interval [lo, hi] certainly (RuleExact) or with
// high probability (RuleConfidence) containing the task's exhaustive
// support over effN members, given the sampling state. At full sampling
// the interval collapses to the exact value.
func (x *Executor) bounds(st taskState, effN int) (lo, hi float64) {
	n := st.sampled
	if n >= effN {
		v := st.sum / float64(effN)
		return v, v
	}
	if n == 0 {
		return 0, 1
	}
	// Worst-case envelope: every unseen answer could be 0 or 1.
	lo = st.sum / float64(effN)
	hi = (st.sum + float64(effN-n)) / float64(effN)
	if x.rule == RuleConfidence {
		// Hoeffding around the running mean with Serfling's correction
		// for sampling without replacement: rho = 1 - (n-1)/N. The
		// confidence interval can only tighten the worst-case envelope.
		// Sound only under the Source contract's index-exchangeability
		// requirement — the sampled prefix must look like a random
		// without-replacement draw.
		mean := st.sum / float64(n)
		rho := 1 - float64(n-1)/float64(effN)
		eps := math.Sqrt(rho * math.Log(2/delta) / (2 * float64(n)))
		if l := mean - eps; l > lo {
			lo = l
		}
		if h := mean + eps; h < hi {
			hi = h
		}
	}
	return lo, hi
}

// finish records task i's decision into dec and the counters. entry is
// the task's sampled count when the call began: early/saved are only
// accumulated when the call sampled beyond it, so cache-hit decisions
// that sampled nothing never inflate the savings.
func (c *call) finish(dec *Decision, i, entry int, sig bool) {
	x, st, effN := c.x, c.sts[i], c.effN
	dec.Significant = sig
	dec.Sampled = st.sampled
	if effN == 0 || st.sampled >= effN {
		dec.Exact = true
		if effN > 0 {
			dec.Support = st.sum / float64(effN)
		}
		x.full.Add(1)
	} else {
		if st.sampled > 0 {
			dec.Support = st.sum / float64(st.sampled)
		}
		if st.sampled > entry {
			x.early.Add(1)
			x.saved.Add(uint64(effN - st.sampled))
		}
	}
	x.tasks.Add(1)
}

// entries returns each task's sampled count at the start of the call.
func (c *call) entries() []int {
	entry := make([]int, len(c.sts))
	for i, st := range c.sts {
		entry[i] = st.sampled
	}
	return entry
}

// DecideThreshold decides, for each fact key, whether its support over
// the first effN members is >= thr — the exhaustive criterion — by
// sequential sampling: each round samples one batch of every undecided
// key, and a key stops as soon as its interval excludes thr (or it is
// fully sampled). Keys are decided independently; the returned
// decisions are index-aligned with keys.
func (x *Executor) DecideThreshold(ctx context.Context, keys []string, thr float64, effN int) ([]Decision, error) {
	c := x.begin(keys, effN)
	defer c.end()
	effN = c.effN
	entry := c.entries()
	decs := make([]Decision, len(keys))
	active := make([]int, 0, len(keys))
	for i, k := range keys {
		decs[i].Key = k
		active = append(active, i)
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Decide what the current states already settle (a cached state
		// may decide a key with no sampling at all).
		undecided := active[:0]
		for _, i := range active {
			lo, hi := x.bounds(c.sts[i], effN)
			switch {
			case effN == 0:
				c.finish(&decs[i], i, entry[i], 0 >= thr)
			case lo >= thr:
				c.finish(&decs[i], i, entry[i], true)
			case hi < thr:
				c.finish(&decs[i], i, entry[i], false)
			default:
				undecided = append(undecided, i)
			}
		}
		active = undecided
		if len(active) == 0 {
			return decs, nil
		}
		if err := c.sample(ctx, active, false); err != nil {
			return nil, err
		}
	}
}

// beforeSurely reports that task j certainly precedes task i in the
// final significance order: descending support (ascending when !desc),
// ties resolved by the incoming order (lower index first) — exactly the
// stable sort the exhaustive path applies. With RuleConfidence bounds
// "certainly" is "with high probability".
func beforeSurely(lo, hi []float64, j, i int, desc bool) bool {
	if desc {
		if lo[j] > hi[i] {
			return true
		}
		return lo[j] >= hi[i] && j < i
	}
	if hi[j] < lo[i] {
		return true
	}
	return hi[j] <= lo[i] && j < i
}

// DecideTopK decides which keys rank in the top k by support over the
// first effN members (bottom k when !desc), under the exhaustive
// tie-breaking rule (first-appearance order). It races the tasks: each
// round samples one batch of every task whose uncertainty still blocks a
// decision, and a task is settled once at most k-1 others can possibly
// precede it (in) or at least k surely do (out). Keys must be in
// first-appearance order and are assumed distinct.
func (x *Executor) DecideTopK(ctx context.Context, keys []string, k int, desc bool, effN int) ([]Decision, error) {
	c := x.begin(keys, effN)
	defer c.end()
	effN = c.effN
	entry := c.entries()
	m := len(keys)
	decs := make([]Decision, m)
	for i, key := range keys {
		decs[i].Key = key
	}
	decided := make([]bool, m)
	lo := make([]float64, m)
	hi := make([]float64, m)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range keys {
			lo[i], hi[i] = x.bounds(c.sts[i], effN)
		}
		// Settle every task the current bounds decide.
		remaining := 0
		for i := range keys {
			if decided[i] {
				continue
			}
			sure, possible := 0, 0
			for j := range keys {
				if j == i {
					continue
				}
				if beforeSurely(lo, hi, j, i, desc) {
					sure++
					possible++
				} else if !beforeSurely(lo, hi, i, j, desc) {
					possible++
				}
			}
			switch {
			case k <= 0 || sure >= k:
				c.finish(&decs[i], i, entry[i], false)
				decided[i] = true
			case possible <= k-1:
				c.finish(&decs[i], i, entry[i], true)
				decided[i] = true
			default:
				remaining++
			}
		}
		if remaining == 0 {
			return decs, nil
		}
		// Sample every unfinished task that is undecided or whose
		// interval overlaps an undecided one (its uncertainty blocks the
		// decision). Any uncertain pair has at least one unfinished,
		// overlapping member, so this set is never empty while tasks
		// remain undecided.
		var sample []int
		for i := range keys {
			if c.sts[i].sampled >= effN || effN == 0 {
				continue
			}
			relevant := !decided[i]
			if !relevant {
				for u := range keys {
					if !decided[u] && !(hi[i] < lo[u] || hi[u] < lo[i]) {
						relevant = true
						break
					}
				}
			}
			if relevant {
				sample = append(sample, i)
			}
		}
		if len(sample) == 0 {
			// Cannot happen: undecided tasks with fully-sampled bounds
			// are settled exactly above. Guard against looping forever.
			return nil, fmt.Errorf("crowdscale: top-%d race stalled with %d undecided tasks", k, remaining)
		}
		if err := c.sample(ctx, sample, false); err != nil {
			return nil, err
		}
	}
}
