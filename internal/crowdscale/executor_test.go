package crowdscale

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// slowSource answers 0.5 after a delay — constant answers keep the
// interval straddling a 0.5 threshold until full sampling, so decisions
// stay in flight long enough to cancel.
type slowSource struct {
	n     int
	delay time.Duration
}

func (s *slowSource) Size() int { return s.n }
func (s *slowSource) Sum(key string, from, to int) float64 {
	time.Sleep(s.delay)
	sum := 0.0
	for m := from; m < to; m++ {
		sum += 0.5
	}
	return sum
}

// slowPopulation answers as its Population does after a delay per
// batch, and closes started at its first batch, so a test can cancel a
// call that is known to be sampling.
type slowPopulation struct {
	*Population
	delay   time.Duration
	started chan struct{}
	once    sync.Once
}

func (s *slowPopulation) Sum(key string, from, to int) float64 {
	s.once.Do(func() { close(s.started) })
	time.Sleep(s.delay)
	return s.Population.Sum(key, from, to)
}

// waitGoroutines fails the test unless the goroutine count is back at
// want. A goroutine that has signalled its join may still be exiting,
// so the count gets a moment to settle, and no longer.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after the call returned, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// Every call is call-scoped: once Supports, DecideThreshold or
// DecideTopK returns, normally or cancelled while sampling, the
// goroutines it fanned out to have exited. Decisions made afterwards on
// the same executor, from the states the call left, still match the
// exhaustive oracle.
func TestCallScopedNoGoroutineLeft(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pop := &Population{N: 20000, Seed: 3, Skew: 1}
	keys := testKeys(16)
	const thr, k = 0.3, 4
	supports := make([]float64, len(keys))
	for i, key := range keys {
		supports[i] = exhaustiveSupport(pop, key, pop.N)
	}
	wantTopK := topKOracle(supports, k, true)
	calls := []struct {
		name string
		run  func(context.Context, *Executor) error
	}{
		{"Supports", func(ctx context.Context, x *Executor) error {
			_, err := x.Supports(ctx, keys, 0)
			return err
		}},
		{"DecideThreshold", func(ctx context.Context, x *Executor) error {
			_, err := x.DecideThreshold(ctx, keys, thr, 0)
			return err
		}},
		{"DecideTopK", func(ctx context.Context, x *Executor) error {
			_, err := x.DecideTopK(ctx, keys, k, true, 0)
			return err
		}},
	}
	for _, c := range calls {
		for _, cancelled := range []bool{false, true} {
			src := &slowPopulation{Population: pop, delay: time.Millisecond, started: make(chan struct{})}
			x := New(src, Config{Rule: RuleExact})
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() { errc <- c.run(ctx, x) }()
			if cancelled {
				<-src.started
				cancel()
			}
			err := <-errc
			cancel()
			switch {
			case cancelled && !errors.Is(err, context.Canceled):
				t.Fatalf("%s cancelled while sampling returned %v, want context.Canceled", c.name, err)
			case !cancelled && err != nil:
				t.Fatalf("%s: %v", c.name, err)
			}
			waitGoroutines(t, before)

			decs, err := x.DecideThreshold(context.Background(), keys, thr, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range decs {
				if want := supports[i] >= thr; d.Significant != want {
					t.Errorf("after %s (cancelled %v): threshold key %s significant %v, oracle %v", c.name, cancelled, keys[i], d.Significant, want)
				}
			}
			decs, err = x.DecideTopK(context.Background(), keys, k, true, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range decs {
				if d.Significant != wantTopK[i] {
					t.Errorf("after %s (cancelled %v): top-%d key %s significant %v, oracle %v", c.name, cancelled, k, keys[i], d.Significant, wantTopK[i])
				}
			}
			waitGoroutines(t, before)
		}
	}
}

// Cancelled decisions leave the shared sampling states completable and
// sound: a cancelled round writes back only whole batches, so the
// follow-up decision still covers every member exactly once.
func TestCancelledEnqueueDoesNotPoisonState(t *testing.T) {
	// Constant 0.5 answers against threshold 0.5 decide only at full
	// sampling, so the follow-up decide must cover every member.
	src := &slowSource{n: 3000, delay: time.Millisecond}
	x := New(src, Config{Rule: RuleExact})
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := x.DecideThreshold(ctx, keys, 0.5, 0)
			errc <- err
		}()
		time.Sleep(5 * time.Millisecond)
		cancel()
		select {
		case err := <-errc:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled decide returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cancelled decide did not return")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	decs, err := x.DecideThreshold(ctx, keys, 0.5, 0)
	if err != nil {
		t.Fatalf("post-cancel decide on the same keys failed: %v", err)
	}
	for _, d := range decs {
		if !d.Significant || !d.Exact {
			t.Fatalf("key %s decided %+v, want exact significant at support 0.5", d.Key, d)
		}
	}
	// Exhaustive supports double as an overlap check: a batch applied
	// twice would push the mean above 0.5.
	sup, err := x.Supports(ctx, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sup {
		if s != 0.5 {
			t.Fatalf("key %s support %v after cancellations, want exactly 0.5", keys[i], s)
		}
	}
}

// The write-back keeps the copy with more samples, and a call that
// began before a Reset writes nothing.
func TestWriteBackKeepsMoreSamples(t *testing.T) {
	p := &Population{N: 5000, Seed: 10}
	x := New(p, Config{})
	keys := []string{"k"}
	ctx := context.Background()
	stored := func() taskState {
		x.mu.Lock()
		defer x.mu.Unlock()
		return x.states[stateKey{"k", p.N}]
	}

	long, short := x.begin(keys, 0), x.begin(keys, 0)
	if err := long.sample(ctx, []int{0}, true); err != nil {
		t.Fatal(err)
	}
	if err := short.sample(ctx, []int{0}, false); err != nil {
		t.Fatal(err)
	}
	long.end()
	short.end()
	if st := stored(); st.sampled != p.N || st.sum != p.Sum("k", 0, p.N) {
		t.Fatalf("stored state %+v, want the fully sampled copy", st)
	}

	x.Reset()
	stale := x.begin(keys, 0)
	x.Reset()
	if err := stale.sample(ctx, []int{0}, true); err != nil {
		t.Fatal(err)
	}
	stale.end()
	if st := x.Stats(); st.States != 0 {
		t.Fatalf("a call that began before Reset wrote back %d states", st.States)
	}
}

func TestQueueConcurrentDecidesAndReset(t *testing.T) {
	p := &Population{N: 20000, Seed: 2}
	x := New(p, Config{})
	keys := []string{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for r := 0; r < 5; r++ {
				switch (g + r) % 4 {
				case 0:
					if _, err := x.DecideThreshold(ctx, keys, 0.4, 0); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := x.DecideTopK(ctx, keys, 2, true, 0); err != nil {
						t.Error(err)
					}
				case 2:
					if _, err := x.Supports(ctx, keys[:2], 1000); err != nil {
						t.Error(err)
					}
				case 3:
					x.Reset()
					x.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := x.Stats()
	if st.TasksDecided == 0 || st.MemberAnswers == 0 {
		t.Fatalf("no work recorded: %+v", st)
	}
}

func TestStatsMonotonicAcrossReset(t *testing.T) {
	p := &Population{N: 2000, Seed: 4, Truth: map[string]float64{"k": 0.8}}
	x := New(p, Config{})
	if _, err := x.DecideThreshold(context.Background(), []string{"k"}, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	before := x.Stats()
	if before.States != 1 || before.StateMisses != 1 {
		t.Fatalf("unexpected pre-reset stats %+v", before)
	}
	x.Reset()
	mid := x.Stats()
	if mid.States != 0 {
		t.Fatalf("reset kept %d states", mid.States)
	}
	if mid.TasksDecided != before.TasksDecided || mid.MemberAnswers != before.MemberAnswers {
		t.Fatalf("reset rewound counters: %+v -> %+v", before, mid)
	}
	if _, err := x.DecideThreshold(context.Background(), []string{"k"}, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	after := x.Stats()
	if after.StateMisses != before.StateMisses+1 {
		t.Fatalf("post-reset decide should re-create the state: %+v", after)
	}
	if after.MemberAnswers <= mid.MemberAnswers {
		t.Fatal("post-reset decide resampled nothing")
	}
}

func TestStateCacheResume(t *testing.T) {
	p := &Population{N: 100000, Seed: 6, Truth: map[string]float64{"k": 0.9}}
	x := New(p, Config{})
	ctx := context.Background()
	if _, err := x.DecideThreshold(ctx, []string{"k"}, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	mid := x.Stats()
	// Same key, same criterion: the cached state already decides it.
	decs, err := x.DecideThreshold(ctx, []string{"k"}, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	after := x.Stats()
	if after.MemberAnswers != mid.MemberAnswers {
		t.Fatalf("repeat decision sampled %d extra answers", after.MemberAnswers-mid.MemberAnswers)
	}
	if after.StateHits != mid.StateHits+1 {
		t.Fatalf("state hits %d -> %d, want +1", mid.StateHits, after.StateHits)
	}
	if !decs[0].Significant {
		t.Fatal("cached state flipped the decision")
	}
	// A cache-hit decision that sampled nothing must not inflate the
	// early-termination savings: those counters measure sampling work
	// actually avoided in the deciding call.
	if after.TasksDecided != mid.TasksDecided+1 {
		t.Fatalf("tasks decided %d -> %d, want +1", mid.TasksDecided, after.TasksDecided)
	}
	if after.AnswersSaved != mid.AnswersSaved || after.EarlyDecided != mid.EarlyDecided {
		t.Fatalf("cache-hit decision moved savings: saved %d -> %d, early %d -> %d",
			mid.AnswersSaved, after.AnswersSaved, mid.EarlyDecided, after.EarlyDecided)
	}
	// The first decide did sample: it must have recorded its savings.
	if mid.EarlyDecided != 1 || mid.AnswersSaved == 0 {
		t.Fatalf("sampling decide recorded no savings: %+v", mid)
	}
}

// Beyond the state cap, new states live for one call: the cache stops
// growing and nothing already cached is evicted.
func TestMaxStatesEphemeral(t *testing.T) {
	p := &Population{N: 100, Seed: 8}
	x := New(p, Config{})
	x.maxStates = 2
	ctx := context.Background()
	if _, err := x.DecideThreshold(ctx, []string{"a", "b", "c", "d"}, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	if st := x.Stats(); st.States != 2 {
		t.Fatalf("state cache holds %d states, want MaxStates 2", st.States)
	}
	before := x.Stats()
	if _, err := x.DecideThreshold(ctx, []string{"a", "b", "c", "d"}, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	if d := x.Stats().Delta(before); d.StateHits != 2 || d.StateMisses != 2 {
		t.Fatalf("repeat decision: %d state hits, %d misses, want the 2 cached keys to hit", d.StateHits, d.StateMisses)
	}
}
