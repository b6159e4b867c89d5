package sparql

import (
	"context"
	"strings"
	"testing"

	"nl2cm/internal/rdf"
)

// evalFuncs are the streaming evaluator and the reference oracle.
var evalFuncs = map[string]func(*Query, Source) ([]Binding, error){
	"Eval": func(q *Query, src Source) ([]Binding, error) {
		return Eval(context.Background(), q, src)
	},
	"EvalReference": EvalReference,
}

// bothEvals runs a query through the streaming and reference evaluators,
// failing unless both succeed; the caller checks the rows of each.
func bothEvals(t *testing.T, q *Query, src Source) map[string][]Binding {
	t.Helper()
	out := map[string][]Binding{}
	for name, eval := range evalFuncs {
		rows, err := eval(q, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = rows
	}
	return out
}

// aggStore holds cities with attractions and sizes: buffalo has 3
// attractions, vegas 12, nyc 1 — counts with 1 and 2 digits so that
// numeric ordering over COUNT results is observable.
func aggStore() *rdf.Snapshot {
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
	return s.Snapshot()
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
	for name, rows := range bothEvals(t, q, s.Snapshot()) {
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
	for name, rows := range bothEvals(t, q, s.Snapshot()) {
		if rows[0]["x"].Value() != "d" || rows[len(rows)-1]["x"].Value() != "c" {
			t.Errorf("%s: descending mixed-width order wrong: first=%v last=%v",
				name, rows[0]["x"], rows[len(rows)-1]["x"])
		}
	}
}

// TestParseAggregates reads a count with AS and leaves the token after
// it; a call of any other function is no aggregate call and is left
// unread.
func TestParseAggregates(t *testing.T) {
	pp, lx := newPatternParser(t, `COUNT($a) AS $n count($b) SUM($a)`)
	want := []Aggregate{{Var: "a", As: "n"}, {Var: "b"}}
	for _, w := range want {
		a, ok, err := pp.AggregateCall()
		if err != nil || !ok {
			t.Fatalf("AggregateCall = %v, %v", ok, err)
		}
		if a != w {
			t.Fatalf("aggregate = %+v, want %+v", a, w)
		}
	}
	if _, ok, err := pp.AggregateCall(); ok || err != nil {
		t.Fatalf("SUM($a) read as a count: %v, %v", ok, err)
	}
	if next := lx.Peek(); next.Text != "SUM" {
		t.Errorf("AggregateCall consumed the SUM call, next token %q", next.Text)
	}
}

// TestParseAggregateAutoAlias checks that a count without AS parses
// with an empty alias, and that FreshAlias, which the host uses to name
// it, derives count_s, then count_s_2 once count_s is taken.
func TestParseAggregateAutoAlias(t *testing.T) {
	pp, _ := newPatternParser(t, `COUNT($s) COUNT($s)`)
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
	if len(aggs) != 2 || aggs[0] != (Aggregate{Var: "s"}) || aggs[1] != aggs[0] {
		t.Fatalf("calls without AS = %+v, want empty aliases", aggs)
	}
	taken := map[string]bool{}
	for i := range aggs {
		aggs[i].As = FreshAlias(aggs[i].Var, func(name string) bool { return taken[name] })
		taken[aggs[i].As] = true
	}
	if aggs[0].As != "count_s" || aggs[1].As != "count_s_2" {
		t.Fatalf("auto aliases = %+v", aggs)
	}
}

// TestParseAggregateErrors covers the rejections the pattern grammar
// makes itself; the host's analytic rules (GROUP BY, aliases, the
// grouped projection) are oassisql's.
func TestParseAggregateErrors(t *testing.T) {
	type parse func(*PatternParser) error
	pattern := func(pp *PatternParser) error { _, _, err := pp.GroupPattern(); return err }
	call := func(pp *PatternParser) error {
		_, _, err := pp.AggregateCall()
		return err
	}
	bad := []struct {
		in    string
		parse parse
		want  string
	}{
		// A count outside SELECT is rejected where it stands.
		{"{ $x size $s .\nFILTER(COUNT($s) > 1) }", pattern, "only allowed in SELECT"},
		// COUNT takes one variable.
		{`COUNT(*) AS $n`, call, "expected variable in COUNT()"},
		{`COUNT("x")`, call, "expected variable in COUNT()"},
		{`COUNT($x AS $n`, call, `expected ")"`},
		{`COUNT($x) AS n`, call, "expected variable after AS"},
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
	q.Aggs = []Aggregate{{Var: "a", As: "n"}}
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
	q.Aggs = []Aggregate{{Var: "a", As: "n"}}
	q.OrderBy = []OrderKey{{Var: "n", Desc: true}}
	q.Limit = 1
	for name, rows := range bothEvals(t, q, aggStore()) {
		if len(rows) != 1 || rows[0]["city"].Value() != "Vegas" {
			t.Errorf("%s: superlative = %v, want Vegas", name, rows)
		}
	}
}

// TestEvalAggregateFunctions pins COUNT($v), the one aggregate: it
// counts the rows of a group that bind $v, as an xsd:integer. Rows that
// leave $v unbound reach the grouping step through AggregateBindings.
func TestEvalAggregateFunctions(t *testing.T) {
	rows := []Binding{
		{"x": iri("a"), "s": rdf.NewIntLiteral(10)},
		{"x": iri("b")},
		{"x": iri("c"), "s": rdf.NewIntLiteral(9)},
		{"x": iri("c"), "s": rdf.NewIntLiteral(2)},
	}
	q := &Query{Aggs: []Aggregate{{Var: "s", As: "n"}, {Var: "x", As: "m"}}, Limit: -1}
	got := AggregateBindings(q, rows)
	if len(got) != 1 {
		t.Fatalf("got %d rows, want 1 global group", len(got))
	}
	for alias, want := range map[string]int64{"n": 3, "m": 4} {
		n, ok := got[0][alias].Int()
		if !ok || n != want {
			t.Errorf("%s = %v, want %d", alias, got[0][alias], want)
		}
		if dt := got[0][alias].Datatype(); dt != rdf.XSDInteger {
			t.Errorf("%s datatype = %q, want xsd:integer", alias, dt)
		}
	}
	q.GroupBy = []string{"x"}
	got = AggregateBindings(q, rows)
	want := map[string]int64{"a": 1, "b": 0, "c": 2}
	if len(got) != len(want) {
		t.Fatalf("grouped rows = %v, want one per x", got)
	}
	for _, b := range got {
		if n, _ := b["n"].Int(); n != want[b["x"].Value()] {
			t.Errorf("group %v: COUNT($s) = %v, want %d", b["x"], b["n"], want[b["x"].Value()])
		}
	}
}

func TestEvalAggregateEmptyInput(t *testing.T) {
	s := rdf.NewShardedStore(0)
	s.MustAdd(rdf.T(iri("a"), iri("other"), iri("b")))
	// Global group over zero matching rows: COUNT is 0.
	q := patternQuery(t, `{ $x size $s }`)
	q.Aggs = []Aggregate{{Var: "s", As: "n"}}
	for name, rows := range bothEvals(t, q, s.Snapshot()) {
		if len(rows) != 1 {
			t.Fatalf("%s: got %d rows, want 1", name, len(rows))
		}
		if v, ok := rows[0]["n"].Int(); !ok || v != 0 {
			t.Errorf("%s: COUNT over empty = %v, want 0", name, rows[0]["n"])
		}
	}
	// With GROUP BY, zero rows means zero groups.
	q2 := patternQuery(t, `{ $x size $s }`)
	q2.GroupBy = []string{"x"}
	q2.Aggs = []Aggregate{{Var: "s", As: "n"}}
	for name, rows := range bothEvals(t, q2, s.Snapshot()) {
		if len(rows) != 0 {
			t.Errorf("%s: grouped empty input gave %d rows, want 0", name, len(rows))
		}
	}
}
