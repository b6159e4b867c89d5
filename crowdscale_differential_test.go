package nl2cm

// Corpus-wide differential test for the crowd-scale subsystem: over
// every supported question in the 81-question corpus, the streaming
// sequential-sampling path (both stopping rules) must produce the same
// per-subclause significant fact-sets and the same final bindings as
// the exhaustive engine — the ISSUE 9 acceptance criterion.

import (
	"context"
	"testing"

	"nl2cm/internal/sparql"
)

const diffCrowdSize = 1200

// diffEngines builds the exhaustive oracle engine and two scale engines
// (RuleExact, RuleConfidence) over identical crowds: same size, seed
// and truth, so member answers agree member-for-member.
func diffEngines(t *testing.T) (oracle, exact, conf *Engine) {
	t.Helper()
	onto := DemoOntology()
	mk := func() *Engine {
		c := NewCrowd(diffCrowdSize, 7)
		c.Truth = DemoTruth()
		return NewEngine(onto, c)
	}
	oracle = mk()
	exact = mk()
	conf = mk()
	for eng, rule := range map[*Engine]ScaleRule{exact: RuleExact, conf: RuleConfidence} {
		x, err := NewScaleExecutor(eng.Crowd, ScaleConfig{Rule: rule})
		if err != nil {
			t.Fatal(err)
		}
		eng.Scale = x
	}
	return oracle, exact, conf
}

func sigKeys(r *ExecResult) []map[string]bool {
	out := make([]map[string]bool, len(r.Subclauses))
	for i, sc := range r.Subclauses {
		out[i] = map[string]bool{}
		for _, task := range sc.Significant() {
			out[i][task.Key] = true
		}
	}
	return out
}

func bindingSet(r *ExecResult) map[string]int {
	out := map[string]int{}
	for _, b := range r.Bindings {
		out[sparql.BindingKey(b)]++
	}
	return out
}

func TestCrowdScaleDifferentialCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-wide differential test skipped in -short mode")
	}
	oracle, exact, conf := diffEngines(t)
	tr := NewTranslator(DemoOntology())
	ctx := context.Background()
	executed := 0
	for _, q := range Corpus() {
		res, err := tr.Translate(ctx, q.Text, Options{})
		if err != nil || !res.Verdict.Supported || res.Query == nil {
			continue
		}
		want, err := oracle.Execute(ctx, res.Query)
		if err != nil {
			t.Fatalf("%s: exhaustive execution: %v", q.ID, err)
		}
		executed++
		for name, eng := range map[string]*Engine{"exact": exact, "confidence": conf} {
			got, err := eng.Execute(ctx, res.Query)
			if err != nil {
				t.Fatalf("%s [%s]: scale execution: %v", q.ID, name, err)
			}
			ws, gs := sigKeys(want), sigKeys(got)
			if len(ws) != len(gs) {
				t.Fatalf("%s [%s]: subclause counts differ: %d vs %d", q.ID, name, len(ws), len(gs))
			}
			for i := range ws {
				for k := range ws[i] {
					if !gs[i][k] {
						t.Errorf("%s [%s] subclause %d: exhaustive keeps %q, scale drops it", q.ID, name, i, k)
					}
				}
				for k := range gs[i] {
					if !ws[i][k] {
						t.Errorf("%s [%s] subclause %d: scale keeps %q, exhaustive drops it", q.ID, name, i, k)
					}
				}
			}
			wb, gb := bindingSet(want), bindingSet(got)
			if len(wb) != len(gb) {
				t.Errorf("%s [%s]: %d bindings vs %d exhaustive", q.ID, name, len(gb), len(wb))
			}
			for k := range wb {
				if gb[k] != wb[k] {
					t.Errorf("%s [%s]: binding %q count %d vs %d", q.ID, name, k, gb[k], wb[k])
				}
			}
		}
	}
	if executed < 40 {
		t.Fatalf("differential test executed only %d corpus queries", executed)
	}

	// Sequential sampling must have done strictly less work than fixed
	// full sampling would (the sublinear-work criterion): every task a
	// fixed-sample engine runs costs the full effective population.
	for name, eng := range map[string]*Engine{"exact": exact, "confidence": conf} {
		st := eng.Stats()
		if st.Scale == nil {
			t.Fatalf("[%s] no scale stats", name)
		}
		fixed := st.Scale.TasksDecided * diffCrowdSize
		if st.Scale.MemberAnswers >= fixed {
			t.Errorf("[%s] sequential sampling saved nothing: %d answers for %d tasks (fixed cost %d)",
				name, st.Scale.MemberAnswers, st.Scale.TasksDecided, fixed)
		}
		t.Logf("[%s] corpus: %d tasks, %d/%d answers asked (%.1f%% of fixed), %d early, %d full",
			name, st.Scale.TasksDecided, st.Scale.MemberAnswers, fixed,
			100*float64(st.Scale.MemberAnswers)/float64(fixed),
			st.Scale.EarlyDecided, st.Scale.FullySampled)
	}
}
