package sparql

import (
	"strings"
	"testing"

	"nl2cm/internal/rdf"
)

// bothEvals runs a query through the streaming and reference evaluators,
// failing unless both succeed; the caller checks the rows of each.
func bothEvals(t *testing.T, q *Query, src Source) map[string][]Binding {
	t.Helper()
	out := map[string][]Binding{}
	for name, eval := range map[string]func(*Query, Source, *Env) ([]Binding, error){
		"Eval": Eval, "EvalReference": EvalReference,
	} {
		rows, err := eval(q, src, nil)
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
	q, err := Parse(`SELECT $x $s WHERE { $x size $s } ORDER BY ASC($s)`)
	if err != nil {
		t.Fatal(err)
	}
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
	q, err := Parse(`SELECT $city COUNT($a) AS $n WHERE { $a locatedIn $city } GROUP BY $city HAVING(COUNT($a) > 2) ORDER BY DESC($n) LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggs) != 1 || q.Aggs[0] != (Aggregate{Func: "COUNT", Var: "a", As: "n"}) {
		t.Fatalf("Aggs = %+v", q.Aggs)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "city" {
		t.Fatalf("GroupBy = %v", q.GroupBy)
	}
	if len(q.Having) != 1 {
		t.Fatalf("Having = %v", q.Having)
	}
	if len(q.Vars) != 2 || q.Vars[0] != "city" || q.Vars[1] != "n" {
		t.Fatalf("Vars = %v", q.Vars)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The HAVING call references the SELECT aggregate rather than adding
	// a hidden duplicate.
	if len(q.Aggs) != 1 {
		t.Fatalf("HAVING duplicated the aggregate: %+v", q.Aggs)
	}
	// String() round-trips through the parser.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Fatalf("round trip drifted:\n%s\nvs\n%s", q.String(), q2.String())
	}
}

func TestParseAggregateAutoAliasAndCountStar(t *testing.T) {
	q, err := Parse(`SELECT COUNT(*) SUM($s) WHERE { $x size $s }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggs) != 2 || q.Aggs[0].As != "count" || q.Aggs[1].As != "sum_s" {
		t.Fatalf("auto aliases = %+v", q.Aggs)
	}
	if q.Aggs[0].Var != "" {
		t.Fatalf("COUNT(*) Var = %q, want empty", q.Aggs[0].Var)
	}
	// HAVING-only aggregation (global group).
	q2, err := Parse(`SELECT COUNT(*) AS $n WHERE { $x size $s } HAVING(MIN($s) > 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.Aggs) != 2 {
		t.Fatalf("hidden HAVING aggregate not hoisted: %+v", q2.Aggs)
	}
	if err := q2.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestParseAggregateErrors(t *testing.T) {
	bad := map[string]string{
		// Aggregates outside SELECT/HAVING are rejected where they stand.
		`SELECT $x WHERE { $x size $s . FILTER(COUNT($s) > 1) }`: "only allowed in SELECT or HAVING",
		// GROUP BY of a variable no pattern binds.
		`SELECT COUNT(*) AS $n WHERE { $x size $s } GROUP BY $nope`: "GROUP BY of undefined variable $nope",
		// Projected variables must be grouped or aggregated.
		`SELECT $x COUNT($s) AS $n WHERE { $x size $s } GROUP BY $s`: "neither grouped nor an aggregate alias",
		// * only belongs to COUNT.
		`SELECT SUM(*) AS $n WHERE { $x size $s }`: "only COUNT takes *",
		// HAVING without any grouping step.
		`SELECT $x WHERE { $x size $s } HAVING($s > 1)`: "HAVING requires GROUP BY",
		// Aggregate alias colliding with a pattern variable.
		`SELECT COUNT($s) AS $x WHERE { $x size $s }`: "collides with a pattern variable",
		// Empty GROUP BY list.
		`SELECT COUNT(*) AS $n WHERE { $x size $s } GROUP BY LIMIT 1`: "expected variables after GROUP BY",
	}
	for in, want := range bad {
		_, err := Parse(in)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", in, want)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", in, err, want)
		}
		if !strings.Contains(err.Error(), "line") {
			t.Errorf("Parse(%q) error %v carries no position", in, err)
		}
	}
}

func TestEvalGroupByCount(t *testing.T) {
	q, err := Parse(`SELECT $city COUNT($a) AS $n WHERE { $a locatedIn $city } GROUP BY $city ORDER BY DESC($n) $city`)
	if err != nil {
		t.Fatal(err)
	}
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
	q, err := Parse(`SELECT $city COUNT($a) AS $n WHERE { $a locatedIn $city . $a instanceOf Place } GROUP BY $city ORDER BY DESC($n) LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
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
		{`HAVING(COUNT($a) > 9)`, map[string]bool{"mid": true, "big": true}},
		{`HAVING(COUNT($a) > 99)`, map[string]bool{"big": true}},
		{`HAVING(COUNT($a) <= 40)`, map[string]bool{"small": true, "mid": true}},
		{`HAVING(COUNT($a) > 100)`, map[string]bool{}},
	}
	for _, c := range cases {
		q, err := Parse(`SELECT $city WHERE { $a locatedIn $city } GROUP BY $city ` + c.having)
		if err != nil {
			t.Fatalf("%s: %v", c.having, err)
		}
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
	q, err := Parse(`SELECT COUNT(*) AS $n SUM($s) AS $sum AVG($s) AS $avg MIN($s) AS $min MAX($s) AS $max WHERE { $x size $s }`)
	if err != nil {
		t.Fatal(err)
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
	q2, err := Parse(`SELECT SUM($s) AS $sum WHERE { $x size $s }`)
	if err != nil {
		t.Fatal(err)
	}
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
	q, err := Parse(`SELECT COUNT(*) AS $n MIN($s) AS $min WHERE { $x size $s }`)
	if err != nil {
		t.Fatal(err)
	}
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
	q2, err := Parse(`SELECT $x COUNT(*) AS $n WHERE { $x size $s } GROUP BY $x`)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range bothEvals(t, q2, s) {
		if len(rows) != 0 {
			t.Errorf("%s: grouped empty input gave %d rows, want 0", name, len(rows))
		}
	}
}

// TestAggregateValidate covers the programmatic construction paths the
// parser cannot reach.
func TestAggregateValidate(t *testing.T) {
	base := func() *Query {
		return &Query{
			Limit:   -1,
			Where:   []rdf.Triple{rdf.T(rdf.NewVar("a"), iri("locatedIn"), rdf.NewVar("city"))},
			GroupBy: []string{"city"},
			Aggs:    []Aggregate{{Func: "COUNT", Var: "a", As: "n"}},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid aggregate query rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Query)
		want string
	}{
		{"unknown func", func(q *Query) { q.Aggs[0].Func = "MEDIAN" }, "unknown aggregate function"},
		{"missing alias", func(q *Query) { q.Aggs[0].As = "" }, "no output alias"},
		{"star non-count", func(q *Query) { q.Aggs[0].Func, q.Aggs[0].Var = "SUM", "" }, "only COUNT takes *"},
		{"alias collision", func(q *Query) { q.Aggs[0].As = "city" }, "collides with a pattern variable"},
		{"dup alias", func(q *Query) { q.Aggs = append(q.Aggs, Aggregate{Func: "SUM", Var: "a", As: "n"}) }, "duplicate aggregate alias"},
		{"undefined group var", func(q *Query) { q.GroupBy = []string{"ghost"} }, "GROUP BY of undefined variable"},
		{"ungrouped projection", func(q *Query) { q.Vars = []string{"a"} }, "neither grouped nor an aggregate alias"},
		{"nil having", func(q *Query) { q.Having = []Expr{nil} }, "nil HAVING"},
		{"having without grouping", func(q *Query) {
			q.GroupBy, q.Aggs = nil, nil
			q.Having = []Expr{&LitExpr{Val: BoolVal(true)}}
		}, "HAVING without GROUP BY"},
	}
	for _, c := range cases {
		q := base()
		c.mut(q)
		err := q.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want containing %q", c.name, err, c.want)
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
