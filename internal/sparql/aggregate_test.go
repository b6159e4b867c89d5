package sparql

import (
	"context"
	"strings"
	"testing"

	"nl2cm/internal/rdf"
)

// evalFuncs are the streaming evaluator and the reference oracle.
var evalFuncs = map[string]func(*Query, Source, *Env) ([]Binding, error){
	"Eval": func(q *Query, src Source, env *Env) ([]Binding, error) {
		return Eval(context.Background(), q, src, env)
	},
	"EvalReference": EvalReference,
}

// bothEvals runs a query through the streaming and reference evaluators,
// failing unless both succeed; the caller checks the rows of each.
func bothEvals(t *testing.T, q *Query, src Source) map[string][]Binding {
	t.Helper()
	out := map[string][]Binding{}
	for name, eval := range evalFuncs {
		rows, err := eval(q, src, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = rows
	}
	return out
}

// havingExpr parses one parenthesised HAVING condition.
func havingExpr(t *testing.T, text string) Expr {
	t.Helper()
	pp, _ := newPatternParser(t, text)
	e, err := pp.HavingExpr()
	if err != nil {
		t.Fatalf("HavingExpr(%s): %v", text, err)
	}
	return e
}

// aggStore holds cities with attractions and sizes: buffalo has 3
// attractions, vegas 12, nyc 1 — counts with 1 and 2 digits so that
// numeric ordering over COUNT results is observable.
func aggStore() *rdf.ShardedStore {
	s := rdf.NewShardedStore(0)
	addAttraction := func(city string, n int) {
		for i := 0; i < n; i++ {
			a := rdf.NewIRI(city + "_sight_" + string(rune('a'+i)))
			s.MustAdd(rdf.T(a, iri("locatedIn"), iri(city)))
			s.MustAdd(rdf.T(a, iri("instanceOf"), iri("Place")))
		}
	}
	addAttraction("Buffalo", 3)
	addAttraction("Vegas", 12)
	addAttraction("NYC", 1)
	return s
}

func TestEvalOrderNumeric(t *testing.T) {
	// ["9", "10", "2"]: lexicographic ordering would yield 10 < 2 < 9.
	s := rdf.NewShardedStore(0)
	for _, e := range []struct {
		name string
		size int64
	}{{"a", 9}, {"b", 10}, {"c", 2}} {
		s.MustAdd(rdf.T(iri(e.name), iri("size"), rdf.NewIntLiteral(e.size)))
	}
	q := patternQuery(t, `{ $x size $s }`)
	q.OrderBy = []OrderKey{{Var: "s"}}
	for name, rows := range bothEvals(t, q, s) {
		got := make([]string, len(rows))
		for i, b := range rows {
			got[i] = b["x"].Value()
		}
		if want := "c a b"; strings.Join(got, " ") != want {
			t.Errorf("%s: ascending numeric order = %v, want %s", name, got, want)
		}
	}
	// Mixed-width keys descending: 400 must beat 9 even though "9" > "4".
	s.MustAdd(rdf.T(iri("d"), iri("size"), rdf.NewIntLiteral(400)))
	q.OrderBy = []OrderKey{{Var: "s", Desc: true}}
	for name, rows := range bothEvals(t, q, s) {
		if rows[0]["x"].Value() != "d" || rows[len(rows)-1]["x"].Value() != "c" {
			t.Errorf("%s: descending mixed-width order wrong: first=%v last=%v",
				name, rows[0]["x"], rows[len(rows)-1]["x"])
		}
	}
}

func TestParseAggregates(t *testing.T) {
	pp, _ := newPatternParser(t, `COUNT($a) AS $n (COUNT($a) > 2)`)
	a, ok, err := pp.AggregateCall()
	if err != nil || !ok {
		t.Fatalf("AggregateCall = %v, %v", ok, err)
	}
	if a != (Aggregate{Func: "COUNT", Var: "a", As: "n"}) {
		t.Fatalf("aggregate = %+v", a)
	}
	having, err := pp.HavingExpr()
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{
		Where:   []rdf.Triple{rdf.T(rdf.NewVar("a"), iri("locatedIn"), rdf.NewVar("city"))},
		GroupBy: []string{"city"},
		Aggs:    []Aggregate{a},
		Having:  []Expr{having},
		Limit:   -1,
	}
	spec, err := aggregationSpec(q)
	if err != nil {
		t.Fatal(err)
	}
	// The HAVING call references the SELECT aggregate rather than adding
	// a hidden duplicate.
	if len(spec.aggs) != 1 {
		t.Fatalf("HAVING duplicated the aggregate: %+v", spec.aggs)
	}
	// The hoisted condition prints as the call it was parsed from.
	if got := spec.having[0].String(); got != having.String() || got != "(COUNT($a) > 2)" {
		t.Fatalf("hoisted HAVING prints %q, parsed %q", got, having)
	}
}

// TestParseAggregateAutoAliasAndCountStar checks that a call without AS
// parses with an empty alias, and that FreshAlias, which the host uses
// to name it, derives count, sum_s, then sum_s_2 once sum_s is taken.
func TestParseAggregateAutoAliasAndCountStar(t *testing.T) {
	pp, _ := newPatternParser(t, `COUNT(*) SUM($s) SUM($s)`)
	var aggs []Aggregate
	for {
		a, ok, err := pp.AggregateCall()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		aggs = append(aggs, a)
	}
	if len(aggs) != 3 || aggs[0] != (Aggregate{Func: "COUNT"}) || aggs[1] != (Aggregate{Func: "SUM", Var: "s"}) || aggs[2] != aggs[1] {
		t.Fatalf("calls without AS = %+v, want empty aliases", aggs)
	}
	taken := map[string]bool{}
	for i := range aggs {
		aggs[i].As = FreshAlias(aggs[i].Func, aggs[i].Var, func(name string) bool { return taken[name] })
		taken[aggs[i].As] = true
	}
	if aggs[0].As != "count" || aggs[1].As != "sum_s" || aggs[2].As != "sum_s_2" {
		t.Fatalf("auto aliases = %+v", aggs)
	}
	// An aggregate only HAVING names is hoisted into a hidden one.
	q := &Query{
		Where:  []rdf.Triple{rdf.T(rdf.NewVar("x"), iri("size"), rdf.NewVar("s"))},
		Aggs:   aggs[:1],
		Having: []Expr{havingExpr(t, `(MIN($s) > 1)`)},
		Limit:  -1,
	}
	spec, err := aggregationSpec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.aggs) != 2 || spec.aggs[1] != (Aggregate{Func: "MIN", Var: "s", As: "min_s"}) {
		t.Fatalf("hidden HAVING aggregate not hoisted: %+v", spec.aggs)
	}
}

// TestParseAggregateErrors covers the rejections the pattern grammar
// makes itself; the host's analytic rules (GROUP BY, aliases, HAVING
// without grouping) are oassisql's.
func TestParseAggregateErrors(t *testing.T) {
	type parse func(*PatternParser) error
	pattern := func(pp *PatternParser) error { _, _, err := pp.GroupPattern(); return err }
	having := func(pp *PatternParser) error { _, err := pp.HavingExpr(); return err }
	call := func(pp *PatternParser) error {
		_, _, err := pp.AggregateCall()
		return err
	}
	bad := []struct {
		in    string
		parse parse
		want  string
	}{
		// Aggregates outside SELECT/HAVING are rejected where they stand.
		{"{ $x size $s .\nFILTER(COUNT($s) > 1) }", pattern, "only allowed in SELECT or HAVING"},
		// * only belongs to COUNT.
		{`SUM(*) AS $n`, call, "only COUNT takes *"},
		{`(AVG(*) > 1)`, having, "only COUNT takes *"},
		{`COUNT($x AS $n`, call, `expected ")"`},
		{`COUNT($x) AS n`, call, "expected variable after AS"},
		{`(MAX("x") > 1)`, having, "expected variable or * in MAX()"},
	}
	for _, c := range bad {
		pp, _ := newPatternParser(t, c.in)
		err := c.parse(pp)
		if err == nil {
			t.Errorf("%q parsed, want error containing %q", c.in, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error = %v, want containing %q", c.in, err, c.want)
		}
		if !strings.Contains(err.Error(), "line") {
			t.Errorf("%q: error %v carries no position", c.in, err)
		}
	}
}

func TestEvalGroupByCount(t *testing.T) {
	q := patternQuery(t, `{ $a locatedIn $city }`)
	q.GroupBy = []string{"city"}
	q.Aggs = []Aggregate{{Func: "COUNT", Var: "a", As: "n"}}
	q.OrderBy = []OrderKey{{Var: "n", Desc: true}, {Var: "city"}}
	for name, rows := range bothEvals(t, q, aggStore()) {
		if len(rows) != 3 {
			t.Fatalf("%s: got %d groups, want 3", name, len(rows))
		}
		// Vegas (12) must sort before Buffalo (3) despite "12" < "3"
		// lexicographically.
		want := []struct {
			city string
			n    int64
		}{{"Vegas", 12}, {"Buffalo", 3}, {"NYC", 1}}
		for i, w := range want {
			if rows[i]["city"].Value() != w.city {
				t.Errorf("%s: row %d city = %v, want %s", name, i, rows[i]["city"], w.city)
			}
			if n, _ := rows[i]["n"].Int(); n != w.n {
				t.Errorf("%s: row %d count = %v, want %d", name, i, rows[i]["n"], w.n)
			}
		}
	}
}

// TestEvalSuperlativeShape pins the "which city has the most
// attractions?" query shape end-to-end at the SPARQL layer.
func TestEvalSuperlativeShape(t *testing.T) {
	q := patternQuery(t, `{ $a locatedIn $city . $a instanceOf Place }`)
	q.GroupBy = []string{"city"}
	q.Aggs = []Aggregate{{Func: "COUNT", Var: "a", As: "n"}}
	q.OrderBy = []OrderKey{{Var: "n", Desc: true}}
	q.Limit = 1
	for name, rows := range bothEvals(t, q, aggStore()) {
		if len(rows) != 1 || rows[0]["city"].Value() != "Vegas" {
			t.Errorf("%s: superlative = %v, want Vegas", name, rows)
		}
	}
}

// TestEvalHavingNumericCounts is the satellite table test: HAVING over
// COUNT with 1-, 2- and 3-digit group sizes must compare numerically —
// a string comparison would call "100" < "9".
func TestEvalHavingNumericCounts(t *testing.T) {
	s := rdf.NewShardedStore(0)
	for city, n := range map[string]int{"small": 8, "mid": 40, "big": 100} {
		for i := 0; i < n; i++ {
			a := rdf.NewIRI(city + "_a" + string(rune('0'+i/10)) + string(rune('0'+i%10)))
			s.MustAdd(rdf.T(a, iri("locatedIn"), iri(city)))
		}
	}
	cases := []struct {
		having string
		want   map[string]bool
	}{
		{`(COUNT($a) > 9)`, map[string]bool{"mid": true, "big": true}},
		{`(COUNT($a) > 99)`, map[string]bool{"big": true}},
		{`(COUNT($a) <= 40)`, map[string]bool{"small": true, "mid": true}},
		{`(COUNT($a) > 100)`, map[string]bool{}},
	}
	for _, c := range cases {
		q := patternQuery(t, `{ $a locatedIn $city }`)
		q.GroupBy = []string{"city"}
		q.Having = []Expr{havingExpr(t, c.having)}
		for name, rows := range bothEvals(t, q, s) {
			got := map[string]bool{}
			for _, b := range rows {
				got[b["city"].Value()] = true
			}
			if len(got) != len(c.want) {
				t.Errorf("%s %s: groups = %v, want %v", name, c.having, got, c.want)
				continue
			}
			for city := range c.want {
				if !got[city] {
					t.Errorf("%s %s: missing group %s", name, c.having, city)
				}
			}
		}
	}
}

func TestEvalAggregateFunctions(t *testing.T) {
	s := rdf.NewShardedStore(0)
	add := func(x string, v rdf.Term) { s.MustAdd(rdf.T(iri(x), iri("size"), v)) }
	add("a", rdf.NewIntLiteral(10))
	add("b", rdf.NewIntLiteral(2))
	add("c", rdf.NewIntLiteral(9))
	q := patternQuery(t, `{ $x size $s }`)
	q.Aggs = []Aggregate{
		{Func: "COUNT", As: "n"}, {Func: "SUM", Var: "s", As: "sum"}, {Func: "AVG", Var: "s", As: "avg"},
		{Func: "MIN", Var: "s", As: "min"}, {Func: "MAX", Var: "s", As: "max"},
	}
	for name, rows := range bothEvals(t, q, s) {
		if len(rows) != 1 {
			t.Fatalf("%s: got %d rows, want 1 global group", name, len(rows))
		}
		b := rows[0]
		wantInt := map[string]int64{"n": 3, "sum": 21, "min": 2, "max": 10}
		for k, w := range wantInt {
			if v, ok := b[k].Int(); !ok || v != w {
				t.Errorf("%s: %s = %v, want %d", name, k, b[k], w)
			}
		}
		if v, ok := b["avg"].Float(); !ok || v != 7 {
			t.Errorf("%s: avg = %v, want 7", name, b["avg"])
		}
		if b["avg"].Datatype() != rdf.XSDDouble {
			t.Errorf("%s: avg datatype = %q, want xsd:double", name, b["avg"].Datatype())
		}
	}
	// Mixed int/float input makes SUM a double.
	add("d", rdf.NewFloatLiteral(0.5))
	q2 := patternQuery(t, `{ $x size $s }`)
	q2.Aggs = []Aggregate{{Func: "SUM", Var: "s", As: "sum"}}
	for name, rows := range bothEvals(t, q2, s) {
		if v, ok := rows[0]["sum"].Float(); !ok || v != 21.5 {
			t.Errorf("%s: mixed sum = %v, want 21.5", name, rows[0]["sum"])
		}
		if rows[0]["sum"].Datatype() != rdf.XSDDouble {
			t.Errorf("%s: mixed sum datatype = %q", name, rows[0]["sum"].Datatype())
		}
	}
}

func TestEvalAggregateEmptyInput(t *testing.T) {
	s := rdf.NewShardedStore(0)
	s.MustAdd(rdf.T(iri("a"), iri("other"), iri("b")))
	// Global group over zero matching rows: COUNT is 0, MIN unbound.
	q := patternQuery(t, `{ $x size $s }`)
	q.Aggs = []Aggregate{{Func: "COUNT", As: "n"}, {Func: "MIN", Var: "s", As: "min"}}
	for name, rows := range bothEvals(t, q, s) {
		if len(rows) != 1 {
			t.Fatalf("%s: got %d rows, want 1", name, len(rows))
		}
		if v, ok := rows[0]["n"].Int(); !ok || v != 0 {
			t.Errorf("%s: COUNT over empty = %v, want 0", name, rows[0]["n"])
		}
		if _, ok := rows[0]["min"]; ok {
			t.Errorf("%s: MIN over empty bound to %v, want unbound", name, rows[0]["min"])
		}
	}
	// With GROUP BY, zero rows means zero groups.
	q2 := patternQuery(t, `{ $x size $s }`)
	q2.GroupBy = []string{"x"}
	q2.Aggs = []Aggregate{{Func: "COUNT", As: "n"}}
	for name, rows := range bothEvals(t, q2, s) {
		if len(rows) != 0 {
			t.Errorf("%s: grouped empty input gave %d rows, want 0", name, len(rows))
		}
	}
}

// TestProgrammaticHavingCalls checks that queries built in code with raw
// aggregate CallExprs in HAVING (as the crowd engine does) are
// normalized identically by both evaluators.
func TestProgrammaticHavingCalls(t *testing.T) {
	q := &Query{
		Limit:   -1,
		Where:   []rdf.Triple{rdf.T(rdf.NewVar("a"), iri("locatedIn"), rdf.NewVar("city"))},
		GroupBy: []string{"city"},
		Having: []Expr{&BinExpr{
			Op: ">",
			L:  &CallExpr{Name: "count", Args: []Expr{&VarExpr{Name: "a"}}},
			R:  &LitExpr{Val: NumVal(2)},
		}},
	}
	for name, rows := range bothEvals(t, q, aggStore()) {
		got := map[string]bool{}
		for _, b := range rows {
			got[b["city"].Value()] = true
		}
		if len(got) != 2 || !got["Vegas"] || !got["Buffalo"] {
			t.Errorf("%s: groups = %v, want Vegas+Buffalo", name, got)
		}
	}
}
