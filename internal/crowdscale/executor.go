package crowdscale

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor decides crowd tasks by sampling a Source, and memoizes each
// task's sampling state across calls so that a repeated task resumes
// where earlier calls left it. It owns no goroutines between calls: a
// Decide or Supports call copies the states it needs, samples their
// batches on up to GOMAXPROCS goroutines with the caller as one of
// them, joins them, and writes the states back before it returns.
// Calls are safe for concurrent use; two concurrent calls on one key
// may both sample it, and the write-back keeps the copy with more
// samples.
type Executor struct {
	src  Source
	rule Rule
	// maxStates caps the memoized states; beyond it new states live
	// for one call only and nothing is evicted.
	maxStates int

	// mu guards states and gen.
	mu     sync.Mutex
	states map[stateKey]taskState
	// gen counts Resets, so a call that began before one writes
	// nothing back.
	gen uint64

	// Monotonic counters (see Stats).
	tasks, batches, answers, saved    atomic.Uint64
	early, full, stateHits, stateMiss atomic.Uint64
}

// stateKey identifies one sampling state: the fact key under one
// effective population size (engines with different SampleSize limits
// must not share partial sums).
type stateKey struct {
	key  string
	effN int
}

// taskState is the incremental support aggregation for one task: the
// sum of the answers of members [0, sampled).
type taskState struct {
	sum     float64
	sampled int
}

// New builds an executor over the source.
func New(src Source, cfg Config) *Executor {
	return &Executor{
		src:       src,
		rule:      cfg.Rule,
		maxStates: defaultMaxStates,
		states:    make(map[stateKey]taskState),
	}
}

// Reset drops all cached sampling states, so the next decision
// resamples from scratch — call it after the source's answer behaviour
// changes. Calls in flight write nothing back. Counters are monotonic
// and not rewound.
func (x *Executor) Reset() {
	x.mu.Lock()
	x.states = make(map[stateKey]taskState)
	x.gen++
	x.mu.Unlock()
}

// Stats snapshots the executor's counters.
func (x *Executor) Stats() Stats {
	x.mu.Lock()
	states := len(x.states)
	x.mu.Unlock()
	return Stats{
		TasksDecided:      x.tasks.Load(),
		BatchesDispatched: x.batches.Load(),
		MemberAnswers:     x.answers.Load(),
		AnswersSaved:      x.saved.Load(),
		EarlyDecided:      x.early.Load(),
		FullySampled:      x.full.Load(),
		StateHits:         x.stateHits.Load(),
		StateMisses:       x.stateMiss.Load(),
		States:            states,
		Population:        x.src.Size(),
	}
}

// call is one Decide or Supports call: its keys under one effective
// population, its private copies of their sampling states, and the
// bookkeeping of its current sampling round.
type call struct {
	x    *Executor
	keys []string
	effN int
	sts  []taskState
	gen  uint64

	next atomic.Int64
	wg   sync.WaitGroup
}

// begin copies the keys' sampling states, counting one state hit or
// miss per key. effN <= 0 or beyond the source means the whole
// population.
func (x *Executor) begin(keys []string, effN int) *call {
	if n := x.src.Size(); effN <= 0 || effN > n {
		effN = n
	}
	c := &call{x: x, keys: keys, effN: effN, sts: make([]taskState, len(keys))}
	x.mu.Lock()
	c.gen = x.gen
	for i, k := range keys {
		if st, ok := x.states[stateKey{k, effN}]; ok {
			c.sts[i] = st
			x.stateHits.Add(1)
		} else {
			x.stateMiss.Add(1)
		}
	}
	x.mu.Unlock()
	return c
}

// end writes the call's states back: a copy replaces the stored state
// when it has more samples, or when there is none and the cap leaves
// room. Nothing is written once Reset has run since begin.
func (c *call) end() {
	x := c.x
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.gen != c.gen {
		return
	}
	for i, k := range c.keys {
		sk := stateKey{k, c.effN}
		old, ok := x.states[sk]
		if ok && old.sampled >= c.sts[i].sampled || !ok && len(x.states) >= x.maxStates {
			continue
		}
		x.states[sk] = c.sts[i]
	}
}

// sample runs one batch for each listed task: the next batch of the
// schedule, or, when full is set, every member the task has not yet
// answered, in one Sum. Listed tasks must have members left to sample.
// Batches run on up to GOMAXPROCS goroutines, the caller among them; no
// batch starts once ctx is done, and sample returns only after every
// started batch has finished.
func (c *call) sample(ctx context.Context, idxs []int, full bool) error {
	c.next.Store(0)
	for w := min(runtime.GOMAXPROCS(0), len(idxs)); w > 1; w-- {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.work(ctx, idxs, full)
		}()
	}
	c.work(ctx, idxs, full)
	c.wg.Wait()
	return ctx.Err()
}

// work takes the round's tasks one at a time until none is left or ctx
// is done. Each task goes to exactly one goroutine, so its state needs
// no lock.
func (c *call) work(ctx context.Context, idxs []int, full bool) {
	for ctx.Err() == nil {
		j := int(c.next.Add(1)) - 1
		if j >= len(idxs) {
			return
		}
		i := idxs[j]
		st := &c.sts[i]
		to := c.effN
		if !full {
			to = min(st.sampled+nextBatch(st.sampled), c.effN)
		}
		st.sum += c.x.src.Sum(c.keys[i], st.sampled, to)
		c.x.answers.Add(uint64(to - st.sampled))
		c.x.batches.Add(1)
		st.sampled = to
	}
}

// nextBatch is the size of a task's next batch after sampled members:
// the schedule doubles from initialBatch, so the members sampled so far
// always number one initialBatch fewer than the next batch, until the
// batch reaches maxBatch.
func nextBatch(sampled int) int {
	return min(sampled+initialBatch, maxBatch)
}

// Supports fully samples every key (resuming cached states) and returns
// the exact supports over the first effN members (the whole population
// when effN <= 0): the fixed-sample path. A key sampled from scratch is
// one Sum over its members in order, so its support equals a straight
// loop over the source bit for bit, however the keys are scheduled.
func (x *Executor) Supports(ctx context.Context, keys []string, effN int) ([]float64, error) {
	c := x.begin(keys, effN)
	defer c.end()
	idxs := make([]int, 0, len(keys))
	for i, st := range c.sts {
		if st.sampled < c.effN {
			idxs = append(idxs, i)
		}
	}
	if err := c.sample(ctx, idxs, true); err != nil {
		return nil, err
	}
	out := make([]float64, len(keys))
	if c.effN > 0 {
		for i, st := range c.sts {
			out[i] = st.sum / float64(c.effN)
		}
	}
	x.tasks.Add(uint64(len(keys)))
	x.full.Add(uint64(len(keys)))
	return out, nil
}
