package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nl2cm/internal/rdf"
)

// The differential property test pins the evaluator's semantics to the
// naive reference evaluator: for randomized stores and randomized
// queries mixing BGPs, FILTER, grouping, counts, ORDER BY and LIMIT,
// Eval and EvalReference must produce the same solution multiset, and
// so must AggregateBindings applied to the reference evaluator's
// unmodified rows.

var diffVarPool = []string{"a", "b", "c", "d", "e"}

func diffEntity(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("e%d", i)) }
func diffPred(i int) rdf.Term   { return rdf.NewIRI(fmt.Sprintf("p%d", i)) }

const (
	diffEntities = 8
	diffPreds    = 4
)

// diffNumPred is a dedicated predicate whose objects are numeric
// literals of mixed widths (and the occasional float), exercising the
// typed comparator in ORDER BY. It sits outside the 0..diffPreds-1 pool
// used for random positions.
func diffNumPred() rdf.Term { return diffPred(diffPreds) }

func diffNumLiteral(r *rand.Rand) rdf.Term {
	if r.Intn(4) == 0 {
		return rdf.NewFloatLiteral(float64(r.Intn(600)) / 4)
	}
	return rdf.NewIntLiteral(int64(r.Intn(150))) // 1-3 digit widths
}

func randomStore(r *rand.Rand) *rdf.Snapshot {
	st := rdf.NewShardedStore(0)
	n := 20 + r.Intn(30)
	for i := 0; i < n; i++ {
		st.MustAdd(rdf.T(
			diffEntity(r.Intn(diffEntities)),
			diffPred(r.Intn(diffPreds)),
			diffEntity(r.Intn(diffEntities)),
		))
	}
	for i := 5 + r.Intn(10); i > 0; i-- {
		st.MustAdd(rdf.T(
			diffEntity(r.Intn(diffEntities)),
			diffNumPred(),
			diffNumLiteral(r),
		))
	}
	return st.Snapshot()
}

// randomPosition yields a variable (biased) or a concrete term for one
// triple-pattern position.
func randomPosition(r *rand.Rand, pred bool) rdf.Term {
	if r.Intn(3) > 0 {
		return rdf.NewVar(diffVarPool[r.Intn(len(diffVarPool))])
	}
	if pred {
		return diffPred(r.Intn(diffPreds))
	}
	return diffEntity(r.Intn(diffEntities))
}

func randomPatterns(r *rand.Rand, n int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.T(
			randomPosition(r, false),
			randomPosition(r, true),
			randomPosition(r, false),
		)
	}
	return out
}

func randomFilter(r *rand.Rand) Expr {
	x := &VarExpr{Name: diffVarPool[r.Intn(len(diffVarPool))]}
	switch r.Intn(3) {
	case 0:
		return &BinExpr{Op: "!=", L: x, R: &VarExpr{Name: diffVarPool[r.Intn(len(diffVarPool))]}}
	case 1:
		return &BinExpr{Op: "=", L: x, R: &LitExpr{Val: TermVal(diffEntity(r.Intn(diffEntities)))}}
	default:
		return &NotExpr{X: &BinExpr{Op: "=", L: x, R: &LitExpr{Val: TermVal(diffEntity(r.Intn(diffEntities)))}}}
	}
}

func randomQuery(r *rand.Rand) *Query {
	q := &Query{Limit: -1}
	q.Where = randomPatterns(r, 1+r.Intn(3))
	if r.Intn(3) == 0 {
		// Bind one variable to the numeric literals so ORDER BY keys see
		// numbers of mixed widths.
		q.Where = append(q.Where, rdf.T(
			randomPosition(r, false),
			diffNumPred(),
			rdf.NewVar(diffVarPool[r.Intn(len(diffVarPool))]),
		))
	}
	for i := r.Intn(3); i > 0; i-- {
		q.Filters = append(q.Filters, randomFilter(r))
	}
	if r.Intn(10) < 3 {
		return finishAggregateQuery(r, q)
	}
	if r.Intn(10) < 3 {
		// LIMIT cuts rows by position, which is only comparable across
		// evaluators under a total order: sort by every variable, so tied
		// rows are identical and any cut yields the same multiset.
		for _, v := range diffVarPool {
			q.OrderBy = append(q.OrderBy, OrderKey{Var: v, Desc: r.Intn(2) == 0})
		}
		if r.Intn(2) == 0 {
			q.Limit = r.Intn(6)
		}
	} else if r.Intn(10) < 3 {
		q.OrderBy = append(q.OrderBy, OrderKey{Var: diffVarPool[r.Intn(len(diffVarPool))], Desc: r.Intn(2) == 0})
	}
	return q
}

// finishAggregateQuery turns a random pattern skeleton into a count
// query, with or without GROUP BY. A grouping or counted variable drawn
// from the whole pool may be one the pattern never binds: it groups as
// unbound, or counts 0. Output rows carry exactly the group variables
// plus the count aliases, so sorting by all of them is a total order and
// LIMIT windows stay comparable across evaluators.
func finishAggregateQuery(r *rand.Rand, q *Query) *Query {
	var used []string
	seen := map[string]bool{}
	for _, tr := range q.Where {
		tr.EachVar(func(v string) {
			if !seen[v] {
				seen[v] = true
				used = append(used, v)
			}
		})
	}
	if len(used) == 0 {
		return q
	}
	pick := func() string {
		if r.Intn(5) == 0 {
			return diffVarPool[r.Intn(len(diffVarPool))]
		}
		return used[r.Intn(len(used))]
	}
	var groupBy []string
	if r.Intn(3) > 0 {
		for i := 1 + r.Intn(2); i > 0; i-- {
			if v := pick(); !slices.Contains(groupBy, v) {
				groupBy = append(groupBy, v)
			}
		}
	}
	aggs := []Aggregate{{Var: pick(), As: "cnt"}}
	if r.Intn(3) == 0 {
		aggs = append(aggs, Aggregate{Var: pick(), As: "cnt2"})
	}
	q.GroupBy, q.Aggs = groupBy, aggs
	if r.Intn(2) == 0 {
		for _, v := range groupBy {
			q.OrderBy = append(q.OrderBy, OrderKey{Var: v, Desc: r.Intn(2) == 0})
		}
		for _, a := range aggs {
			q.OrderBy = append(q.OrderBy, OrderKey{Var: a.As, Desc: r.Intn(2) == 0})
		}
		if r.Intn(2) == 0 {
			q.Limit = r.Intn(4)
		}
	}
	return q
}

func multiset(bs []Binding) []string {
	keys := make([]string, len(bs))
	for i, b := range bs {
		keys[i] = BindingKey(b)
	}
	sort.Strings(keys)
	return keys
}

// totalOrder reports whether the query's ORDER BY keys order its output
// rows totally: every variable of a plain query, or every group
// variable and alias of an aggregate one (rows are one per group).
func totalOrder(q *Query) bool {
	if q.Aggregated() {
		return len(q.OrderBy) > 0 && len(q.OrderBy) == len(q.GroupBy)+len(q.Aggs)
	}
	return len(q.OrderBy) == len(diffVarPool)
}

// sameSolutions fails the test unless got equals want as a multiset and,
// under a total order, as a sequence.
func sameSolutions(t *testing.T, label string, q *Query, got, want []Binding) {
	t.Helper()
	gm, wm := multiset(got), multiset(want)
	if len(gm) != len(wm) {
		t.Fatalf("%s: row count mismatch: got %d, reference %d\nquery: %+v", label, len(gm), len(wm), q)
	}
	for i := range gm {
		if gm[i] != wm[i] {
			t.Fatalf("%s: multiset mismatch at %d:\n  got: %s\n  ref: %s\nquery: %+v", label, i, gm[i], wm[i], q)
		}
	}
	if totalOrder(q) {
		for i := range got {
			if BindingKey(got[i]) != BindingKey(want[i]) {
				t.Fatalf("%s: ordered row %d differs:\n  got: %v\n  ref: %v", label, i, got[i], want[i])
			}
		}
	}
}

// unmodified strips the query's solution modifiers, keeping the graph
// pattern and filters.
func unmodified(q *Query) *Query {
	return &Query{Where: q.Where, Filters: q.Filters, Limit: -1}
}

func TestDifferentialEvalMatchesReference(t *testing.T) {
	ordered, grouped := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		st := randomStore(r)
		q := randomQuery(r)
		got, gerr := Eval(context.Background(), q, st)
		want, werr := EvalReference(q, st)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("seed %d: error mismatch: Eval=%v EvalReference=%v\nquery: %+v", seed, gerr, werr, q)
		}
		if gerr != nil {
			continue
		}
		sameSolutions(t, fmt.Sprintf("seed %d Eval", seed), q, got, want)

		// The modifier step alone: AggregateBindings over the reference
		// evaluator's rows before any modifier must reproduce them all.
		rows, err := EvalReference(unmodified(q), st)
		if err != nil {
			t.Fatalf("seed %d: unmodified EvalReference: %v", seed, err)
		}
		agg := AggregateBindings(q, rows)
		sameSolutions(t, fmt.Sprintf("seed %d AggregateBindings", seed), q, agg, want)
		if len(q.OrderBy) > 0 {
			ordered++
		}
		if q.Aggregated() {
			grouped++
		}
	}
	t.Logf("of 400 queries, %d have ORDER BY and %d count", ordered, grouped)
}

// TestEvalWideQueryMatchesReference: a row is as wide as the query's
// variable count, with no bound on it. A 65-step path query binds 66
// variables and evaluates like the reference evaluator.
func TestEvalWideQueryMatchesReference(t *testing.T) {
	const width = 66
	st := rdf.NewShardedStore(0)
	for i := 0; i < width; i++ {
		st.MustAdd(rdf.T(diffEntity(i), diffPred(0), diffEntity(i+1)))
	}
	q := &Query{Limit: -1}
	for i := 0; i+1 < width; i++ {
		q.Where = append(q.Where, rdf.T(
			rdf.NewVar(fmt.Sprintf("v%d", i)), diffPred(0), rdf.NewVar(fmt.Sprintf("v%d", i+1))))
	}
	if n := len(compileQuery(q).names); n != width {
		t.Fatalf("query has %d slots, want %d", n, width)
	}
	got := eval(t, q, st.Snapshot())
	want, err := EvalReference(q, st.Snapshot())
	if err != nil {
		t.Fatalf("EvalReference: %v", err)
	}
	if len(want) != 2 {
		t.Fatalf("reference found %d paths, want 2", len(want))
	}
	sameSolutions(t, "wide query", q, got, want)
}

func TestBindingKeyCollisionFree(t *testing.T) {
	// Under the old "name=value;" concatenation both bindings encoded to
	// `x=<a>;y=<b>;`: the first value smuggles the delimiter characters.
	b1 := Binding{"x": rdf.NewIRI("a>;y=<b")}
	b2 := Binding{"x": rdf.NewIRI("a"), "y": rdf.NewIRI("b")}
	if BindingKey(b1) == BindingKey(b2) {
		t.Fatalf("BindingKey collision: %q", BindingKey(b1))
	}
	// Literal vs IRI with the same text must also stay distinct, as must
	// language-tagged vs plain literals.
	if BindingKey(Binding{"x": rdf.NewIRI("v")}) == BindingKey(Binding{"x": rdf.NewLiteral("v")}) {
		t.Fatalf("BindingKey conflates IRI and literal")
	}
	if BindingKey(Binding{"x": rdf.NewLangLiteral("v", "en")}) == BindingKey(Binding{"x": rdf.NewLiteral("v")}) {
		t.Fatalf("BindingKey conflates language-tagged and plain literal")
	}
	if BindingKey(b1) != BindingKey(Binding{"x": rdf.NewIRI("a>;y=<b")}) {
		t.Fatalf("BindingKey not deterministic")
	}
}

// TestLimitWindowIsCopied pins the fix for the slice-aliasing bug: the
// returned LIMIT window must not retain capacity into (and thereby pin
// or expose) the full result.
func TestLimitWindowIsCopied(t *testing.T) {
	st := rdf.NewShardedStore(0)
	for i := 0; i < 6; i++ {
		st.MustAdd(rdf.T(diffEntity(i), diffPred(0), diffEntity(0)))
	}
	q := &Query{
		Where:   []rdf.Triple{rdf.T(rdf.NewVar("x"), diffPred(0), diffEntity(0))},
		OrderBy: []OrderKey{{Var: "x"}},
		Limit:   2,
	}
	for name, eval := range evalFuncs {
		rows, err := eval(q, st.Snapshot())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) != 2 {
			t.Fatalf("%s: want 2 rows, got %d", name, len(rows))
		}
		if cap(rows) != len(rows) {
			t.Fatalf("%s: window aliases a larger backing array: len=%d cap=%d", name, len(rows), cap(rows))
		}
	}
}
