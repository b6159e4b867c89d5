package crowd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"nl2cm/internal/crowdscale"
	"nl2cm/internal/ontology"
	"nl2cm/internal/sparql"
)

func scaleEngine(t *testing.T, cfg crowdscale.Config) *Engine {
	t.Helper()
	eng := demoEngine()
	x, err := NewScaleExecutor(eng.Crowd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Scale = x
	return eng
}

// The scale path (both stopping rules) must reproduce the exhaustive
// path's significant tasks and final bindings on the running example —
// which exercises both criteria: top-5 desc, then a 0.1 threshold.
func TestScaleMatchesExhaustive(t *testing.T) {
	q := runningExampleQuery(t)
	base := demoEngine()
	want, err := base.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []crowdscale.Rule{crowdscale.RuleExact, crowdscale.RuleConfidence} {
		eng := scaleEngine(t, crowdscale.Config{Rule: rule})
		got, err := eng.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Subclauses) != len(want.Subclauses) {
			t.Fatalf("rule=%v subclause counts differ", rule)
		}
		for i := range want.Subclauses {
			ws := map[string]bool{}
			for _, task := range want.Subclauses[i].Significant() {
				ws[task.Key] = true
			}
			gs := map[string]bool{}
			for _, task := range got.Subclauses[i].Significant() {
				gs[task.Key] = true
			}
			if len(ws) != len(gs) {
				t.Fatalf("rule=%v subclause %d: %d significant vs %d exhaustive", rule, i, len(gs), len(ws))
			}
			for k := range ws {
				if !gs[k] {
					t.Errorf("rule=%v subclause %d: exhaustive keeps %q, scale does not", rule, i, k)
				}
			}
		}
		wb := map[string]bool{}
		for _, b := range want.Bindings {
			wb[sparql.BindingKey(b)] = true
		}
		for _, b := range got.Bindings {
			if !wb[sparql.BindingKey(b)] {
				t.Errorf("rule=%v extra binding %v", rule, b)
			}
		}
		if len(got.Bindings) != len(want.Bindings) {
			t.Errorf("rule=%v bindings %d, want %d", rule, len(got.Bindings), len(want.Bindings))
		}
	}
}

// The scale executor's exhaustive supports are the crowd's: for every
// task key of the running example and every DemoTruth key, over the
// whole crowd and a sample, NewScaleExecutor(c).Supports equals
// c.Support key for key, bit for bit. A 20,000-member crowd takes each
// support past one 8,192-member batch, and two fresh executors on four
// goroutines must both agree: a support is one member-order pass, so
// it cannot depend on how the keys were scheduled.
func TestScaleExhaustiveOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	eng := demoEngine()
	res, err := eng.Execute(context.Background(), runningExampleQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, sc := range res.Subclauses {
		for _, task := range sc.Tasks {
			keys = append(keys, task.Key)
		}
	}
	for k := range DemoTruth() {
		keys = append(keys, k)
	}
	big := NewCrowd(20_000, 7)
	big.Truth = DemoTruth()
	bigKeys := append([]string(nil), keys...)
	for i := 0; i < 40; i++ {
		bigKeys = append(bigKeys, fmt.Sprintf("[] visit Synth_Place_%02d", i))
	}
	for _, tc := range []struct {
		c       *Crowd
		keys    []string
		samples []int
	}{
		{eng.Crowd, keys, []int{eng.Crowd.Size, 40}},
		{big, bigKeys, []int{big.Size, 12_345}},
	} {
		for run := 0; run < 2; run++ {
			x, err := NewScaleExecutor(tc.c, crowdscale.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, sample := range tc.samples {
				got, err := x.Supports(context.Background(), tc.keys, sample)
				if err != nil {
					t.Fatal(err)
				}
				for i, k := range tc.keys {
					if want := tc.c.Support(k, sample); got[i] != want {
						t.Fatalf("crowd %d, executor %d, sample %d, key %q: Supports = %v, Crowd.Support = %v",
							tc.c.Size, run, sample, k, got[i], want)
					}
				}
			}
		}
	}
}

// Result.Scale carries per-execution executor deltas; Engine.Stats
// carries the lifetime view and survives ResetCache.
func TestScaleMetrics(t *testing.T) {
	q := runningExampleQuery(t)
	eng := scaleEngine(t, crowdscale.Config{})
	res, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scale == nil {
		t.Fatal("Result.Scale not populated")
	}
	if res.Scale.TasksDecided != uint64(res.TasksIssued) {
		t.Errorf("scale tasks %d, issued %d", res.Scale.TasksDecided, res.TasksIssued)
	}
	if res.Scale.MemberAnswers == 0 {
		t.Error("no member answers recorded")
	}
	// The executor's sampling states are the support memo: one lookup
	// per task, all misses on a fresh executor.
	if res.CacheHits != 0 || res.CacheMisses != res.TasksIssued {
		t.Errorf("first run: support memo hits=%d misses=%d, want 0 and %d", res.CacheHits, res.CacheMisses, res.TasksIssued)
	}
	st := eng.Stats()
	if st.Scale == nil || st.Scale.TasksDecided != res.Scale.TasksDecided {
		t.Errorf("engine stats scale section = %+v", st.Scale)
	}
	if st.Executions != 1 || st.TasksIssued != uint64(res.TasksIssued) {
		t.Errorf("engine stats = %+v", st)
	}

	// A repeat run reuses the executor's sampling states: no new answers.
	res2, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Scale.MemberAnswers != 0 {
		t.Errorf("repeat run sampled %d answers despite cached states", res2.Scale.MemberAnswers)
	}
	if res2.Scale.StateHits == 0 || res2.CacheHits != res2.TasksIssued {
		t.Errorf("repeat run recorded %d state hits, %d memo hits for %d tasks", res2.Scale.StateHits, res2.CacheHits, res2.TasksIssued)
	}

	// ResetCache drops the states (next run resamples) but keeps the
	// lifetime counters monotonic.
	before := eng.Stats()
	eng.ResetCache()
	mid := eng.Stats()
	if mid.Scale.States != 0 {
		t.Errorf("ResetCache left %d sampling states", mid.Scale.States)
	}
	if mid.Scale.MemberAnswers != before.Scale.MemberAnswers || mid.Executions != before.Executions {
		t.Error("ResetCache rewound counters")
	}
	res3, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Scale.MemberAnswers == 0 {
		t.Error("post-reset run resampled nothing")
	}
}

// The engine-level significance semantics must hold on a Population
// source too (a million-member crowd is addressed lazily; SampleSize
// limits the effective population).
func TestScalePopulationSource(t *testing.T) {
	pop := &crowdscale.Population{N: 1_000_000, Seed: 7, Truth: DemoTruth(), Skew: 1}
	x := crowdscale.New(pop, crowdscale.Config{})
	eng := NewEngine(ontology.NewDemoOntology(), NewCrowd(1_000_000, 7))
	eng.Crowd.Truth = DemoTruth()
	eng.Scale = x
	res, err := eng.Execute(context.Background(), runningExampleQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) == 0 {
		t.Fatal("no significant bindings at 1M members")
	}
	if res.Scale.MemberAnswers >= res.Scale.AnswersSaved {
		t.Errorf("at 1M members early termination should dominate: asked %d, saved %d",
			res.Scale.MemberAnswers, res.Scale.AnswersSaved)
	}
}

func TestNewScaleExecutorRejectsNilCrowd(t *testing.T) {
	if _, err := NewScaleExecutor(nil, crowdscale.Config{}); err == nil {
		t.Fatal("nil crowd accepted")
	}
}

// afterStart cancels a context a moment after the named stage starts,
// so the cancellation lands while the stage's crowd call is running.
type afterStart struct {
	stage  string
	cancel context.CancelFunc
}

func (o afterStart) StageStart(stage string) {
	if stage == o.stage {
		time.AfterFunc(time.Millisecond, o.cancel)
	}
}

func (o afterStart) StageEnd(string, time.Duration, error) {}

// waitGoroutines fails the test unless the goroutine count is back at
// want. A goroutine that has signalled its join may still be exiting,
// so the count gets a moment to settle, and no longer.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after Execute returned, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// Execute is call-scoped like the executor under it: once it returns,
// normally or cancelled mid-decision, every goroutine its crowd calls
// fanned out to has exited, on the default fixed-sample engine and with
// Scale alike. A run after a cancelled one, from the sampling states the
// cancelled run left, still matches the exhaustive engine.
func TestExecuteLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	q := runningExampleQuery(t)
	onto := ontology.NewDemoOntology()
	big := NewCrowd(200_000, 7)
	big.Truth = DemoTruth()
	want, err := NewEngine(onto, big).Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []bool{false, true} {
		build := func(c *Crowd) *Engine {
			eng := NewEngine(onto, c)
			if scale {
				x, err := NewScaleExecutor(c, crowdscale.Config{Rule: crowdscale.RuleExact})
				if err != nil {
					t.Fatal(err)
				}
				eng.Scale = x
			}
			return eng
		}

		eng := build(demoEngine().Crowd)
		before := runtime.NumGoroutine()
		if _, err := eng.Execute(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, before)

		eng = build(big)
		ctx, cancel := context.WithCancel(context.Background())
		eng.Observer = afterStart{stage: "SATISFYING 1", cancel: cancel}
		before = runtime.NumGoroutine()
		_, err := eng.Execute(ctx, q)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("scale=%v: cancelled execution returned %v, want context.Canceled", scale, err)
		}
		if st := eng.Stats(); st.SupportCacheMisses == 0 {
			t.Fatalf("scale=%v: the cancellation landed before any crowd call", scale)
		}
		waitGoroutines(t, before)

		eng.Observer = nil
		got, err := eng.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Subclauses {
			ws, gs := map[string]bool{}, map[string]bool{}
			for _, task := range want.Subclauses[i].Significant() {
				ws[task.Key] = true
			}
			for _, task := range got.Subclauses[i].Significant() {
				gs[task.Key] = true
			}
			if len(ws) != len(gs) {
				t.Fatalf("scale=%v subclause %d after a cancelled run: %d significant, exhaustive %d", scale, i, len(gs), len(ws))
			}
			for k := range ws {
				if !gs[k] {
					t.Errorf("scale=%v subclause %d after a cancelled run: exhaustive keeps %q, engine does not", scale, i, k)
				}
			}
		}
		if len(got.Bindings) != len(want.Bindings) {
			t.Errorf("scale=%v after a cancelled run: %d bindings, exhaustive %d", scale, len(got.Bindings), len(want.Bindings))
		}
	}
}
