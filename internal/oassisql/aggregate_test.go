package oassisql

import (
	"strings"
	"testing"

	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// TestParseAggregateErrors pins the analytic extension's rejections
// through Parse, each at the line where the parser stands when it finds
// the fault: right at the token for a grammar error, after the analytic
// modifiers for a rule that needs the whole clause.
func TestParseAggregateErrors(t *testing.T) {
	bad := []struct {
		name, in, want string
	}{
		{"aggregate inside FILTER", `SELECT VARIABLES
WHERE
{$x size $s.
FILTER(COUNT($s) > 1)}`, "line 4: aggregate COUNT() is only allowed in SELECT"},
		{"GROUP BY of an unbound variable", `SELECT COUNT($s) AS $n
WHERE
{$x size $s}
GROUP BY $nope
LIMIT 1`, "line 5: GROUP BY of undefined variable $nope"},
		{"empty GROUP BY", `SELECT COUNT($s) AS $n
WHERE
{$x size $s}
GROUP BY
LIMIT 1`, "line 5: expected variables after GROUP BY"},
		{"alias colliding with a pattern variable", `SELECT COUNT($s) AS $x
WHERE
{$x size $s}`, "line 3: aggregate alias $x collides with a query variable"},
		{"duplicate alias", `SELECT COUNT($s) AS $n COUNT($x) AS $n
WHERE
{$x size $s}
GROUP BY $x`, "line 4: duplicate aggregate alias $n"},
	}
	for _, c := range bad {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("%s: Parse succeeded, want error %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestParseAggregateAliases covers the aliases Parse derives for counts
// without AS: count_ and the argument, then a _2, _3 … suffix until the
// alias is fresh.
func TestParseAggregateAliases(t *testing.T) {
	q, err := Parse(`SELECT COUNT($s) COUNT($s) COUNT($x) AS $count_s_2 COUNT($x)
WHERE
{$x size $s}`)
	if err != nil {
		t.Fatal(err)
	}
	want := []sparql.Aggregate{
		{Var: "s", As: "count_s"},
		{Var: "s", As: "count_s_3"},
		{Var: "x", As: "count_s_2"},
		{Var: "x", As: "count_x"},
	}
	if len(q.Agg.Aggs) != len(want) {
		t.Fatalf("aggregates = %+v, want %+v", q.Agg.Aggs, want)
	}
	for i, w := range want {
		if q.Agg.Aggs[i] != w {
			t.Errorf("aggregate %d = %+v, want %+v", i, q.Agg.Aggs[i], w)
		}
	}
	if got := strings.Join(q.Select.Vars, " "); got != "count_s count_s_3 count_s_2 count_x" {
		t.Errorf("projection = %s", got)
	}
	// SELECT VARIABLES keeps its counts out of the variable list.
	q, err = Parse(`SELECT VARIABLES COUNT($x)
WHERE
{$x size $s}`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Select.All || len(q.Select.Vars) != 0 || q.Agg.Aggs[0].As != "count_x" {
		t.Errorf("SELECT VARIABLES COUNT($x) = %+v, %+v", q.Select, q.Agg.Aggs)
	}
}

// TestAggregateRoundTrip prints a grouped count with ORDER BY and LIMIT,
// a global count with no SATISFYING clause, and a plain ontology query
// with ORDER BY and LIMIT; each reads back and prints identically.
func TestAggregateRoundTrip(t *testing.T) {
	for _, text := range []string{`SELECT $city COUNT($a) AS $n
WHERE
{$a instanceOf Place.
$a locatedIn $city}
GROUP BY $city
ORDER BY DESC($n) ASC($city)
LIMIT 3
SATISFYING
{[] visit $a}
WITH SUPPORT THRESHOLD = 0.1`, `SELECT VARIABLES COUNT($y) AS $count
WHERE
{$y instanceOf Park.
$y locatedIn Buffalo,_NY}`, `SELECT VARIABLES
WHERE
{$x instanceOf Place}
ORDER BY ASC($x)
LIMIT 2`} {
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse:\n%s\n%v", text, err)
		}
		if err := q.Validate(); err != nil {
			t.Errorf("Validate:\n%s\n%v", text, err)
		}
		printed := q.String()
		if printed != text {
			t.Errorf("printed form differs:\n%s\nwant:\n%s", printed, text)
		}
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse:\n%s\n%v", printed, err)
		}
		if again.String() != printed {
			t.Errorf("round trip drifted:\n%s\nvs\n%s", printed, again.String())
		}
	}
}

// TestParseAggregateAfterWholeQuery: the analytic extension is checked,
// and aliases without AS derived, after the whole query is read. An
// aggregate may count a variable only a SATISFYING subclause binds, and
// a derived alias avoids a pattern variable that comes after it. Each
// query parses, validates, prints as given, and reads back.
func TestParseAggregateAfterWholeQuery(t *testing.T) {
	for _, c := range []struct{ in, printed string }{
		{`SELECT VARIABLES COUNT($y) AS $n WHERE {$x instanceOf Place} GROUP BY $x SATISFYING {[] visit $y} WITH SUPPORT THRESHOLD = 0.1`,
			`SELECT VARIABLES COUNT($y) AS $n
WHERE
{$x instanceOf Place}
GROUP BY $x
SATISFYING
{[] visit $y}
WITH SUPPORT THRESHOLD = 0.1`},
		{`SELECT VARIABLES COUNT($x) WHERE {$x near $count_x}`,
			`SELECT VARIABLES COUNT($x) AS $count_x_2
WHERE
{$x near $count_x}`},
	} {
		q, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if err := q.Validate(); err != nil {
			t.Errorf("Validate(%q): %v", c.in, err)
		}
		if got := q.String(); got != c.printed {
			t.Errorf("Parse(%q) prints\n%s\nwant\n%s", c.in, got, c.printed)
		}
		again, err := Parse(c.printed)
		if err != nil {
			t.Errorf("reparse:\n%s\n%v", c.printed, err)
			continue
		}
		if again.String() != c.printed {
			t.Errorf("round trip drifted:\n%s\nvs\n%s", c.printed, again.String())
		}
	}
}

// TestAggregateValidate covers the analytic rules on queries built in
// code, which Parse cannot produce.
func TestAggregateValidate(t *testing.T) {
	base := func() *Query {
		return &Query{
			Select: SelectClause{Vars: []string{"city", "n"}},
			Where: Pattern{Triples: []rdf.Triple{
				rdf.T(rdf.NewVar("a"), rdf.NewIRI("locatedIn"), rdf.NewVar("city")),
			}},
			Agg: &Aggregation{
				GroupBy: []string{"city"},
				Aggs:    []sparql.Aggregate{{Var: "a", As: "n"}},
			},
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
		{"missing alias", func(q *Query) { q.Agg.Aggs[0].As = "" }, "no output alias"},
		{"undefined argument", func(q *Query) { q.Agg.Aggs[0].Var = "ghost" }, "aggregate over undefined variable"},
		{"alias collision", func(q *Query) { q.Agg.Aggs[0].As = "city" }, "collides with a query variable"},
		{"alias projected twice", func(q *Query) { q.Select.Vars = []string{"n", "n"} }, "collides with a projected variable"},
		{"dup alias", func(q *Query) {
			q.Agg.Aggs = append(q.Agg.Aggs, sparql.Aggregate{Var: "a", As: "n"})
		}, "duplicate aggregate alias"},
		{"undefined group var", func(q *Query) { q.Agg.GroupBy = []string{"ghost"} }, "GROUP BY of undefined variable"},
		{"undefined sort key", func(q *Query) { q.Agg.OrderBy = []sparql.OrderKey{{Var: "ghost"}} }, "ORDER BY of undefined variable"},
		{"negative limit", func(q *Query) { q.Agg.Limit = -1 }, "negative LIMIT"},
		{"empty extension", func(q *Query) {
			q.Agg = &Aggregation{}
			q.Select = SelectClause{All: true}
		}, "empty aggregation extension"},
		// A grouped row holds only the grouping variables and the counts,
		// so an explicit projection names all counts and nothing else, and
		// the sort keys name nothing else either.
		{"count not projected", func(q *Query) {
			q.Select.Vars = []string{"city"}
			q.Agg.OrderBy = []sparql.OrderKey{{Var: "n", Desc: true}}
		}, "COUNT($a) AS $n is not projected"},
		{"ungrouped projection", func(q *Query) { q.Select.Vars = []string{"a", "n"} }, "projected variable $a is neither grouped nor a count"},
		{"ungrouped sort key", func(q *Query) { q.Agg.OrderBy = []sparql.OrderKey{{Var: "a"}} }, "ORDER BY $a, which is neither grouped nor a count"},
	}
	for _, c := range cases {
		q := base()
		c.mut(q)
		if err := q.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want containing %q", c.name, err, c.want)
		}
	}
}
