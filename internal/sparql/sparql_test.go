package sparql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nl2cm/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI(s) }

// testStore builds a small geo ontology in the spirit of the paper's
// LinkedGeoData excerpt.
func testStore() *rdf.ShardedStore {
	s := rdf.NewShardedStore(0)
	add := func(sub, p, o string) { s.AddTriple(iri(sub), iri(p), iri(o)) }
	add("Delaware_Park", "instanceOf", "Place")
	add("Buffalo_Zoo", "instanceOf", "Place")
	add("Niagara_Falls", "instanceOf", "Place")
	add("Forest_Hotel", "instanceOf", "Hotel")
	add("Delaware_Park", "near", "Forest_Hotel")
	add("Buffalo_Zoo", "near", "Forest_Hotel")
	s.AddTriple(iri("Delaware_Park"), iri("label"), rdf.NewLiteral("Delaware Park"))
	s.AddTriple(iri("Delaware_Park"), iri("size"), rdf.NewIntLiteral(350))
	s.AddTriple(iri("Buffalo_Zoo"), iri("size"), rdf.NewIntLiteral(23))
	s.AddTriple(iri("Niagara_Falls"), iri("size"), rdf.NewIntLiteral(400))
	return s
}

func TestParseSimpleQuery(t *testing.T) {
	q, err := Parse(`SELECT $x WHERE { $x instanceOf Place . $x near Forest_Hotel }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Vars) != 1 || q.Vars[0] != "x" {
		t.Errorf("Vars = %v", q.Vars)
	}
	if len(q.Where) != 2 {
		t.Errorf("Where has %d triples, want 2", len(q.Where))
	}
	if q.Limit != -1 {
		t.Errorf("Limit = %d, want -1", q.Limit)
	}
}

func TestParseModifiers(t *testing.T) {
	q, err := Parse(`SELECT DISTINCT $x $y WHERE { $x near $y } ORDER BY DESC($x) $y LIMIT 5 OFFSET 2`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !q.Distinct {
		t.Error("Distinct = false")
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[0].Var != "x" ||
		q.OrderBy[1].Desc || q.OrderBy[1].Var != "y" {
		t.Errorf("OrderBy = %+v", q.OrderBy)
	}
	if q.Limit != 5 || q.Offset != 2 {
		t.Errorf("Limit/Offset = %d/%d", q.Limit, q.Offset)
	}
}

func TestParseFilterExpressions(t *testing.T) {
	q, err := Parse(`SELECT * WHERE {
		$x size $s .
		FILTER($s > 100 && $s <= 400)
		FILTER(POS($x) = "NN" || $x IN V_thing)
		FILTER(!($s = 350))
	}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Filters) != 3 {
		t.Fatalf("got %d filters, want 3", len(q.Filters))
	}
}

func TestParseAnonTerm(t *testing.T) {
	q, err := Parse(`SELECT * WHERE { [] visit $x . [] in Fall }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	// Each [] becomes a distinct fresh variable.
	s0 := q.Where[0].S
	s1 := q.Where[1].S
	if !s0.IsVar() || !s1.IsVar() || s0.Equal(s1) {
		t.Errorf("anonymous terms = %v, %v; want distinct variables", s0, s1)
	}
}

func TestParseCommaEntityNames(t *testing.T) {
	// OASSIS-QL embeds commas in entity identifiers (Figure 1, line 4).
	q, err := Parse(`SELECT $x WHERE { $x near Forest_Hotel,_Buffalo,_NY }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := q.Where[0].O.Value(); got != "Forest_Hotel,_Buffalo,_NY" {
		t.Errorf("entity = %q", got)
	}
}

func TestParseWithBase(t *testing.T) {
	q, err := ParseWith(`SELECT $x WHERE { $x instanceOf Place }`,
		&ParseOptions{Base: "http://onto/"})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := q.Where[0].P.Value(); got != "http://onto/instanceOf" {
		t.Errorf("predicate = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`WHERE { $x a b }`,
		`SELECT WHERE { }`,
		`SELECT $x { $x a b }`,
		`SELECT $x WHERE { $x a }`,
		`SELECT $x WHERE { $x a b`,
		`SELECT $x WHERE { $x a b } LIMIT x`,
		`SELECT $x WHERE { "lit" a b }`,
		`SELECT $x WHERE { $x a b } trailing`,
		`SELECT $x WHERE { FILTER() }`,
		`SELECT $x WHERE { FILTER($x IN ) }`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestEvalBasicJoin(t *testing.T) {
	q, err := Parse(`SELECT $x WHERE { $x instanceOf Place . $x near Forest_Hotel }`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, testStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, b := range rows {
		got[b["x"].Value()] = true
	}
	if len(got) != 2 || !got["Delaware_Park"] || !got["Buffalo_Zoo"] {
		t.Errorf("rows = %v", got)
	}
}

func TestEvalFilterNumeric(t *testing.T) {
	q, err := Parse(`SELECT $x WHERE { $x size $s . FILTER($s > 100) }`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, testStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
}

func TestEvalOrderLimit(t *testing.T) {
	q, err := Parse(`SELECT $x $s WHERE { $x size $s } ORDER BY DESC($s) LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, testStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	// Term.Compare orders numeric literals by value, so 400 sorts first
	// regardless of digit width (TestEvalOrderNumeric pins the
	// mixed-width cases this test used to dodge).
	if rows[0]["x"].Value() != "Niagara_Falls" {
		t.Errorf("first row = %v, want Niagara_Falls", rows[0]["x"])
	}
	if rows[1]["x"].Value() != "Delaware_Park" {
		t.Errorf("second row = %v, want Delaware_Park", rows[1]["x"])
	}
}

func TestEvalDistinctAndProjection(t *testing.T) {
	q, err := Parse(`SELECT DISTINCT $y WHERE { $x near $y }`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, testStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["y"].Value() != "Forest_Hotel" {
		t.Errorf("rows = %v", rows)
	}
	if _, ok := rows[0]["x"]; ok {
		t.Error("projection kept variable x")
	}
}

func TestEvalOffset(t *testing.T) {
	q, err := Parse(`SELECT $x WHERE { $x size $s } ORDER BY ASC($s) OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, testStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	q.Offset = 10
	rows, err = Eval(q, testStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("offset beyond data: got %d rows", len(rows))
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	s := rdf.NewShardedStore(0)
	s.AddTriple(iri("a"), iri("knows"), iri("a"))
	s.AddTriple(iri("a"), iri("knows"), iri("b"))
	q, err := Parse(`SELECT $x WHERE { $x knows $x }`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["x"].Value() != "a" {
		t.Errorf("rows = %v, want just a", rows)
	}
}

func TestEvalEmptyPatternYieldsOneEmptyRow(t *testing.T) {
	rows, err := Eval(&Query{Limit: -1}, testStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 0 {
		t.Errorf("rows = %v, want one empty binding", rows)
	}
}

func TestEvalNoMatch(t *testing.T) {
	q, err := Parse(`SELECT $x WHERE { $x instanceOf Unicorn }`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, testStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rows = %v, want none", rows)
	}
}

func TestEvalFunctionsAndSets(t *testing.T) {
	env := &Env{
		Funcs: map[string]func([]Value) (Value, error){
			"LOCAL": func(args []Value) (Value, error) {
				if len(args) != 1 {
					return Value{}, fmt.Errorf("LOCAL wants 1 arg")
				}
				return StrVal(args[0].Term.Local()), nil
			},
		},
		Sets: map[string]func(Value) bool{
			"V_parks": func(v Value) bool { return strings.Contains(v.text(), "Park") },
		},
	}
	q, err := Parse(`SELECT $x WHERE { $x instanceOf Place . FILTER(LOCAL($x) != "Buffalo_Zoo" && $x IN V_parks) }`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, testStore(), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["x"].Value() != "Delaware_Park" {
		t.Errorf("rows = %v", rows)
	}
}

func TestEvalUnknownFunctionDropsRow(t *testing.T) {
	q, err := Parse(`SELECT $x WHERE { $x instanceOf Place . FILTER(NOPE($x)) }`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, testStore(), &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rows = %v, want none (erroring filter)", rows)
	}
}

func TestEvalNotIn(t *testing.T) {
	env := &Env{Sets: map[string]func(Value) bool{
		"V_hotels": func(v Value) bool { return strings.Contains(v.text(), "Hotel") },
	}}
	q, err := Parse(`SELECT $y WHERE { $x near $y . FILTER($y NOT IN V_hotels) }`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, testStore(), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rows = %v, want none", rows)
	}
}

func TestEvalInList(t *testing.T) {
	q, err := Parse(`SELECT $x WHERE { $x size $s . FILTER($s IN (23, 400)) }`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, testStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("got %d rows, want 2", len(rows))
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	in := `SELECT DISTINCT $x WHERE { $x <instanceOf> <Place> . FILTER(($x = "q")) } ORDER BY DESC($x) LIMIT 3`
	q, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", q.String(), q2.String())
	}
}

func TestValueTruthyAndNum(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{BoolVal(true), true}, {BoolVal(false), false},
		{NumVal(1), true}, {NumVal(0), false},
		{StrVal("x"), true}, {StrVal(""), false},
		{TermVal(iri("a")), true},
	}
	for _, c := range cases {
		if c.v.Truthy() != c.want {
			t.Errorf("Truthy(%+v) = %v", c.v, c.v.Truthy())
		}
	}
	if n, ok := StrVal("2.5").num(); !ok || n != 2.5 {
		t.Errorf("num(\"2.5\") = %v, %v", n, ok)
	}
	if _, ok := StrVal("abc").num(); ok {
		t.Error("num(abc) ok = true")
	}
}

// Property: the BGP evaluator agrees with a brute-force join on random
// small stores and two-pattern queries.
func TestEvalMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := rdf.NewShardedStore(0)
		ents := []string{"a", "b", "c", "d"}
		preds := []string{"p", "q"}
		for i := 0; i < 12; i++ {
			s.AddTriple(
				iri(ents[r.Intn(len(ents))]),
				iri(preds[r.Intn(len(preds))]),
				iri(ents[r.Intn(len(ents))]),
			)
		}
		q, err := Parse(`SELECT $x $y $z WHERE { $x p $y . $y q $z }`)
		if err != nil {
			return false
		}
		rows, err := Eval(q, s, nil)
		if err != nil {
			return false
		}
		// Brute force.
		want := map[string]bool{}
		for _, t1 := range s.Match(rdf.T(rdf.NewVar("s"), iri("p"), rdf.NewVar("o"))) {
			for _, t2 := range s.Match(rdf.T(rdf.NewVar("s"), iri("q"), rdf.NewVar("o"))) {
				if t1.O == t2.S {
					want[t1.S.Value()+"|"+t1.O.Value()+"|"+t2.O.Value()] = true
				}
			}
		}
		got := map[string]bool{}
		for _, b := range rows {
			got[b["x"].Value()+"|"+b["y"].Value()+"|"+b["z"].Value()] = true
		}
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LIMIT n never returns more than n rows and is a prefix of the
// unlimited result.
func TestEvalLimitPrefix(t *testing.T) {
	f := func(limit uint8) bool {
		s := testStore()
		unlimited, err := Parse(`SELECT $x $s WHERE { $x size $s } ORDER BY ASC($s)`)
		if err != nil {
			return false
		}
		all, err := Eval(unlimited, s, nil)
		if err != nil {
			return false
		}
		lim := int(limit % 6)
		unlimited.Limit = lim
		some, err := Eval(unlimited, s, nil)
		if err != nil {
			return false
		}
		if len(some) > lim {
			return false
		}
		for i := range some {
			if some[i]["x"] != all[i]["x"] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// SPARQL ordering semantics: an unbound sort variable sorts before any
// bound value (and therefore after every bound value under DESC).
// Previously unbound compared equal to everything, leaving such rows
// wherever the join happened to produce them.
func TestOrderByUnboundSortsFirst(t *testing.T) {
	s := rdf.NewShardedStore(0)
	add := func(sub, p, o string) { s.AddTriple(iri(sub), iri(p), iri(o)) }
	add("a1", "p", "b1")
	add("a2", "p", "b2")
	add("a3", "p", "b3")
	add("b2", "q", "c2")
	q := &Query{
		Where:     []rdf.Triple{rdf.T(rdf.NewVar("x"), iri("p"), rdf.NewVar("y"))},
		Optionals: [][]rdf.Triple{{rdf.T(rdf.NewVar("y"), iri("q"), rdf.NewVar("z"))}},
		OrderBy:   []OrderKey{{Var: "z"}},
		Limit:     -1,
	}
	rows, err := Eval(q, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Ascending: the single bound row (x=a2, z=c2) must come last.
	if _, ok := rows[2]["z"]; !ok || !rows[2]["x"].Equal(iri("a2")) {
		t.Errorf("ascending: bound row not last: %v", rows)
	}
	for _, r := range rows[:2] {
		if _, ok := r["z"]; ok {
			t.Errorf("ascending: bound row among leading unbound rows: %v", rows)
		}
	}
	// Descending: the bound row must come first.
	q.OrderBy = []OrderKey{{Var: "z", Desc: true}}
	rows, err = Eval(q, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rows[0]["z"]; !ok || !rows[0]["x"].Equal(iri("a2")) {
		t.Errorf("descending: bound row not first: %v", rows)
	}
}
