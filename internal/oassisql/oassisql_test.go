package oassisql

import (
	"strings"
	"testing"

	"nl2cm/internal/rdf"
)

// figure1 is the paper's sample query Q (Figure 1), minus line numbers.
const figure1 = `SELECT VARIABLES
WHERE
{$x instanceOf Place.
$x near Forest_Hotel,_Buffalo,_NY}
SATISFYING
{$x hasLabel "interesting"}
ORDER BY DESC(SUPPORT)
LIMIT 5
AND
{[] visit $x.
[] in Fall}
WITH SUPPORT THRESHOLD = 0.1`

func TestParseFigure1(t *testing.T) {
	q, err := Parse(figure1)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !q.Select.All {
		t.Error("Select.All = false, want true (SELECT VARIABLES)")
	}
	if len(q.Where.Triples) != 2 {
		t.Fatalf("WHERE has %d triples, want 2", len(q.Where.Triples))
	}
	if got := q.Where.Triples[1].O.Value(); got != "Forest_Hotel,_Buffalo,_NY" {
		t.Errorf("WHERE entity = %q", got)
	}
	if len(q.Satisfying) != 2 {
		t.Fatalf("SATISFYING has %d subclauses, want 2", len(q.Satisfying))
	}
	sc0 := q.Satisfying[0]
	if sc0.TopK == nil || sc0.TopK.K != 5 || !sc0.TopK.Desc {
		t.Errorf("subclause 0 TopK = %+v, want k=5 desc", sc0.TopK)
	}
	if sc0.Pattern.Triples[0].O != rdf.NewLiteral("interesting") {
		t.Errorf("subclause 0 object = %v", sc0.Pattern.Triples[0].O)
	}
	sc1 := q.Satisfying[1]
	if sc1.Threshold == nil || *sc1.Threshold != 0.1 {
		t.Errorf("subclause 1 Threshold = %v, want 0.1", sc1.Threshold)
	}
	if len(sc1.Pattern.Triples) != 2 {
		t.Fatalf("subclause 1 has %d triples, want 2", len(sc1.Pattern.Triples))
	}
	// The [] subjects are distinct anonymous variables.
	s0, s1 := sc1.Pattern.Triples[0].S, sc1.Pattern.Triples[1].S
	if !s0.IsVar() || !IsAnonVar(s0.Value()) || !s1.IsVar() || !IsAnonVar(s1.Value()) {
		t.Errorf("[] terms = %v, %v; want anonymous variables", s0, s1)
	}
	if s0.Equal(s1) {
		t.Error("the two [] occurrences share one variable, want distinct")
	}
}

func TestPrintFigure1ByteExact(t *testing.T) {
	q, err := Parse(figure1)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := q.String(); got != figure1 {
		t.Errorf("printer does not reproduce Figure 1:\n--- got ---\n%s\n--- want ---\n%s", got, figure1)
	}
}

func TestRoundTripIdempotent(t *testing.T) {
	q1, err := Parse(figure1)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q1.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if q1.String() != q2.String() {
		t.Errorf("round trip not idempotent:\n%s\nvs\n%s", q1.String(), q2.String())
	}
}

func TestParseProjectedSelect(t *testing.T) {
	q, err := Parse(`SELECT $x $y
WHERE
{$x near $y}
SATISFYING
{[] visit $x}
WITH SUPPORT THRESHOLD = 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Select.All {
		t.Error("Select.All = true")
	}
	if len(q.Select.Vars) != 2 || q.Select.Vars[0] != "x" || q.Select.Vars[1] != "y" {
		t.Errorf("Select.Vars = %v", q.Select.Vars)
	}
}

func TestParseAscLimit(t *testing.T) {
	q, err := Parse(`SELECT VARIABLES
WHERE
{$x instanceOf Dish}
SATISFYING
{[] eat $x}
ORDER BY ASC(SUPPORT)
LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	sc := q.Satisfying[0]
	if sc.TopK == nil || sc.TopK.Desc || sc.TopK.K != 3 {
		t.Errorf("TopK = %+v, want k=3 asc", sc.TopK)
	}
	if !strings.Contains(q.String(), "ORDER BY ASC(SUPPORT)") {
		t.Errorf("printer output:\n%s", q.String())
	}
}

func TestParseEmptyWhere(t *testing.T) {
	// A purely individual query has an empty WHERE clause.
	q, err := Parse(`SELECT VARIABLES
WHERE
{}
SATISFYING
{[] eat $x}
WITH SUPPORT THRESHOLD = 0.2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where.Triples) != 0 {
		t.Errorf("WHERE triples = %v", q.Where.Triples)
	}
	if err := q.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`WHERE {} SATISFYING {} LIMIT 3`,
		`SELECT WHERE {$x a b} SATISFYING {[] a $x} LIMIT 1`,
		`SELECT VARIABLES WHERE {$x a b} SATISFYING`,                   // SATISFYING with no subclause
		`SELECT VARIABLES WHERE {$x a b} SATISFYING {[] v $x}`,         // no criterion
		`SELECT VARIABLES WHERE {$x a b} SATISFYING {[] v $x} LIMIT 5`, // LIMIT without ORDER BY
		`SELECT VARIABLES WHERE {$x a b} SATISFYING {[] v $x} ORDER BY SUPPORT LIMIT 5`,
		`SELECT VARIABLES WHERE {$x a b} SATISFYING {[] v $x} WITH SUPPORT THRESHOLD 0.1`,
		`SELECT VARIABLES WHERE {$x a b} SATISFYING {[] v $x} WITH SUPPORT THRESHOLD = x`,
		`SELECT VARIABLES WHERE {$x a b} SATISFYING {[] v $x} ORDER BY DESC(SUPPORT) LIMIT 5 trailing`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestValidate(t *testing.T) {
	th := func(v float64) *float64 { return &v }
	mk := func(mod func(*Query)) *Query {
		q := MustParse(figure1)
		if mod != nil {
			mod(q)
		}
		return q
	}
	if err := mk(nil).Validate(); err != nil {
		t.Errorf("Figure 1 query invalid: %v", err)
	}
	// Without its SATISFYING clause the query is a plain ontology query.
	if err := mk(func(q *Query) { q.Satisfying = nil }).Validate(); err != nil {
		t.Errorf("plain ontology query invalid: %v", err)
	}
	cases := []struct {
		name string
		mod  func(*Query)
	}{
		{"both criteria", func(q *Query) { q.Satisfying[0].Threshold = th(0.5) }},
		{"no criterion", func(q *Query) { q.Satisfying[0].TopK = nil }},
		{"bad threshold", func(q *Query) { q.Satisfying[1].Threshold = th(1.5) }},
		{"negative k", func(q *Query) { q.Satisfying[0].TopK.K = -1 }},
		{"empty subclause", func(q *Query) { q.Satisfying[0].Pattern.Triples = nil }},
		{"unknown select var", func(q *Query) {
			q.Select.All = false
			q.Select.Vars = []string{"nope"}
		}},
		{"empty projection", func(q *Query) {
			q.Select.All = false
			q.Select.Vars = nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := mk(c.mod).Validate(); err == nil {
				t.Error("Validate accepted invalid query")
			}
		})
	}
}

func TestQueryVarsOrder(t *testing.T) {
	q := MustParse(figure1)
	vars := q.Vars()
	if len(vars) != 1 || vars[0] != "x" {
		t.Errorf("Vars = %v, want [x]", vars)
	}
}

func TestPatternVarsSkipAnon(t *testing.T) {
	q := MustParse(figure1)
	vars := q.Satisfying[1].Pattern.Vars()
	if len(vars) != 1 || vars[0] != "x" {
		t.Errorf("Vars = %v, want [x] (anonymous [] skipped)", vars)
	}
}

func TestPatternClone(t *testing.T) {
	q := MustParse(figure1)
	c := q.Where.Clone()
	c.Triples[0] = rdf.T(rdf.NewVar("z"), rdf.NewIRI("p"), rdf.NewIRI("o"))
	if q.Where.Triples[0].S.Value() == "z" {
		t.Error("Clone shares triple storage")
	}
}

func TestThresholdFormatting(t *testing.T) {
	th := 0.25
	q := &Query{
		Select:     SelectClause{All: true},
		Where:      Pattern{},
		Satisfying: []Subclause{{Pattern: Pattern{Triples: []rdf.Triple{rdf.T(rdf.NewVar("_anon1"), rdf.NewIRI("eat"), rdf.NewVar("x"))}}, Threshold: &th}},
	}
	if !strings.Contains(q.String(), "THRESHOLD = 0.25") {
		t.Errorf("output:\n%s", q.String())
	}
	one := 1.0
	q.Satisfying[0].Threshold = &one
	if !strings.Contains(q.String(), "THRESHOLD = 1.0") {
		t.Errorf("integral threshold must print with decimal point:\n%s", q.String())
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term rdf.Term
		want string
	}{
		{rdf.NewVar("x"), "$x"},
		{rdf.NewVar("_anon3"), "[]"},
		{rdf.NewIRI("Place"), "Place"},
		{rdf.NewIRI("http://onto/ns#Place"), "Place"},
		{rdf.NewLiteral("interesting"), `"interesting"`},
		{rdf.NewBlank("b"), "[]"},
	}
	for _, c := range cases {
		if got := TermString(c.term); got != c.want {
			t.Errorf("TermString(%v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad input")
		}
	}()
	MustParse("not a query")
}

// TestParseFilterInsidePatterns: a FILTER in WHERE parses and survives
// the print/parse round trip; one in a SATISFYING subclause, a data
// pattern posed to the crowd, is refused at the subclause's line.
func TestParseFilterInsidePatterns(t *testing.T) {
	q, err := Parse(`SELECT VARIABLES
WHERE
{$x instanceOf Place.
FILTER($x != Forest_Hotel)}
SATISFYING
{[] visit $x}
WITH SUPPORT THRESHOLD = 0.2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where.Filters) != 1 {
		t.Errorf("WHERE filters = %d", len(q.Where.Filters))
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse:\n%s\n%v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("filter round trip:\n%s\nvs\n%s", q.String(), q2.String())
	}
	_, err = Parse(`SELECT VARIABLES
WHERE
{$x instanceOf Place}
SATISFYING
{[] visit $x
FILTER(POS($x) = "noun")}
WITH SUPPORT THRESHOLD = 0.2`)
	if want := "line 5: subclause 1 has a FILTER"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("subclause FILTER: Parse error = %v, want containing %q", err, want)
	}
}

// TestParseRefusals: Parse refuses, each at a line, the aggregate forms
// outside the analytic extension (HAVING, SUM, AVG, MIN, MAX, COUNT(*)),
// a FILTER in a subclause, the WHERE filters the evaluator cannot run (a
// function call, IN or NOT IN a named vocabulary, a variable no WHERE
// triple binds), and every query Validate refuses: a threshold outside
// [0,1], k = 0, a projected variable the query never uses, and a grouped
// query projecting an ungrouped variable.
func TestParseRefusals(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"HAVING", `SELECT $city COUNT($a) AS $n
WHERE
{$a locatedIn $city}
GROUP BY $city
HAVING(COUNT($a) > 2)`, `line 5: expected SATISFYING, found "HAVING"`},
		{"SUM", `SELECT $x SUM($s) AS $total
WHERE
{$x size $s}
GROUP BY $x`, `line 1: expected WHERE, found "SUM"`},
		{"AVG", `SELECT VARIABLES
AVG($s)
WHERE
{$x size $s}`, `line 2: expected WHERE, found "AVG"`},
		{"MIN", `SELECT MIN($s) AS $least
WHERE
{$x size $s}`, "line 1: expected VARIABLES or variable list after SELECT"},
		{"MAX", `SELECT $x
MAX($s) AS $most
WHERE
{$x size $s}
GROUP BY $x`, `line 2: expected WHERE, found "MAX"`},
		{"COUNT(*)", `SELECT VARIABLES
COUNT(*) AS $n
WHERE
{$x size $s}`, "line 2: expected variable in COUNT()"},
		{"FILTER in a subclause", `SELECT VARIABLES
WHERE
{$x instanceOf Place}
SATISFYING
{$x hasLabel "interesting"}
ORDER BY DESC(SUPPORT)
LIMIT 5
AND
{[] visit $x.
FILTER($x != $x)}
WITH SUPPORT THRESHOLD = 0.1`, "line 9: subclause 2 has a FILTER; only WHERE takes filters"},
		{"STRLEN in a WHERE filter", `SELECT VARIABLES
WHERE
{$x instanceOf Place.
FILTER(STRLEN($x) > 1)}`, "line 3: FILTER calls STRLEN(); OASSIS-QL filters take no functions"},
		{"POS in a WHERE filter", `SELECT VARIABLES
WHERE
{$x instanceOf Place.
FILTER(POS($x) = "noun")}
SATISFYING
{[] visit $x}
WITH SUPPORT THRESHOLD = 0.1`, "line 3: FILTER calls POS()"},
		{"SUM in a WHERE filter", `SELECT VARIABLES
WHERE
{$x size $s.
FILTER(SUM($s) > 2)}`, "line 3: FILTER calls SUM()"},
		{"IN V_participant", `SELECT VARIABLES
WHERE
{$x instanceOf Place.
FILTER($x IN V_participant)}`, "line 3: FILTER tests vocabulary V_participant; OASSIS-QL filters take IN (…) lists only"},
		{"NOT IN V_participant", `SELECT VARIABLES
WHERE
{$x instanceOf Place.
FILTER($x NOT IN V_participant)}`, "line 3: FILTER tests vocabulary V_participant"},
		{"unbound filter variable", `SELECT VARIABLES
WHERE
{$x instanceOf Place.
FILTER($y != $x)}`, "line 3: FILTER variable $y is not bound by any WHERE triple"},
		{"threshold outside [0,1]", `SELECT VARIABLES
WHERE
{$x instanceOf Place}
SATISFYING
{[] visit $x}
WITH SUPPORT THRESHOLD = 7`, "line 5: subclause 1 threshold 7 outside [0,1]"},
		{"LIMIT 0", `SELECT VARIABLES
WHERE
{$x instanceOf Place}
SATISFYING
{[] visit $x}
ORDER BY DESC(SUPPORT) LIMIT 0`, "line 5: subclause 1 has non-positive k 0"},
		{"projected variable used nowhere", `SELECT $zz
WHERE
{$x instanceOf Place}
SATISFYING
{[] visit $x}
WITH SUPPORT THRESHOLD = 0.1`, "line 4: SELECT variable $zz not used in query"},
		{"ungrouped projection", `SELECT $y COUNT($y) AS $count
WHERE
{$x instanceOf City.
$y locatedIn $x}
GROUP BY $x`, "line 5: projected variable $y is neither grouped nor a count"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Parse error = %v, want containing %q", c.name, err, c.want)
		}
	}
}
