package sparql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nl2cm/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI(s) }

// parsePattern reads a whole input as one group pattern through the
// PatternParser the host languages embed.
func parsePattern(text string) ([]rdf.Triple, []Expr, error) {
	lx, err := NewLexer(text)
	if err != nil {
		return nil, nil, err
	}
	triples, filters, err := NewPatternParser(lx, nil).GroupPattern()
	if err != nil {
		return nil, nil, err
	}
	if t := lx.Peek(); t.Kind != TokEOF {
		return nil, nil, lx.Errf("trailing input %q", t.Text)
	}
	return triples, filters, nil
}

// newPatternParser lexes text for a PatternParser, failing the test on a
// lexer error.
func newPatternParser(t *testing.T, text string) (*PatternParser, *Lexer) {
	t.Helper()
	lx, err := NewLexer(text)
	if err != nil {
		t.Fatalf("NewLexer(%s): %v", text, err)
	}
	return NewPatternParser(lx, nil), lx
}

// patternQuery is the unmodified query over a group pattern written in
// the pattern syntax.
func patternQuery(t *testing.T, text string) *Query {
	t.Helper()
	triples, filters, err := parsePattern(text)
	if err != nil {
		t.Fatalf("parsePattern(%s): %v", text, err)
	}
	return &Query{Where: triples, Filters: filters, Limit: -1}
}

// eval runs Eval under a background context, failing the test on error.
func eval(t *testing.T, q *Query, src Source) []Binding {
	t.Helper()
	rows, err := Eval(context.Background(), q, src)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return rows
}

// testStore builds a small geo ontology in the spirit of the paper's
// LinkedGeoData excerpt.
func testStore() *rdf.Snapshot {
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
	return s.Snapshot()
}

func TestParseModifiers(t *testing.T) {
	// ORDER BY keys are the one solution modifier the pattern grammar
	// reads; hosts parse their own LIMIT.
	pp, lx := newPatternParser(t, `DESC($x) $y ASC($z) LIMIT 5`)
	keys, err := pp.OrderKeys()
	if err != nil {
		t.Fatalf("OrderKeys: %v", err)
	}
	want := []OrderKey{{Var: "x", Desc: true}, {Var: "y"}, {Var: "z"}}
	if len(keys) != len(want) {
		t.Fatalf("OrderBy = %+v, want %+v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("OrderBy[%d] = %+v, want %+v", i, keys[i], want[i])
		}
	}
	if next := lx.Peek(); next.Text != "LIMIT" {
		t.Errorf("OrderKeys consumed the host's LIMIT, next token %q", next.Text)
	}
}

func TestParseFilterExpressions(t *testing.T) {
	_, filters, err := parsePattern(`{
		$x size $s .
		FILTER($s > 100 && $s <= 400)
		FILTER(POS($x) = "NN" || $x IN V_thing)
		FILTER(!($s = 350))
	}`)
	if err != nil {
		t.Fatalf("parsePattern: %v", err)
	}
	if len(filters) != 3 {
		t.Fatalf("got %d filters, want 3", len(filters))
	}
}

func TestParseAnonTerm(t *testing.T) {
	triples, _, err := parsePattern(`{ [] visit $x . [] in Fall }`)
	if err != nil {
		t.Fatalf("parsePattern: %v", err)
	}
	// Each [] becomes a distinct fresh variable.
	s0 := triples[0].S
	s1 := triples[1].S
	if !s0.IsVar() || !s1.IsVar() || s0.Equal(s1) {
		t.Errorf("anonymous terms = %v, %v; want distinct variables", s0, s1)
	}
}

func TestParseCommaEntityNames(t *testing.T) {
	// OASSIS-QL embeds commas in entity identifiers (Figure 1, line 4).
	triples, _, err := parsePattern(`{ $x near Forest_Hotel,_Buffalo,_NY }`)
	if err != nil {
		t.Fatalf("parsePattern: %v", err)
	}
	if got := triples[0].O.Value(); got != "Forest_Hotel,_Buffalo,_NY" {
		t.Errorf("entity = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`$x a b`,
		`{ $x a }`,
		`{ $x a b`,
		`{ "lit" a b }`,
		`{ $x a b } trailing`,
		`{ FILTER() }`,
		`{ FILTER($x IN ) }`,
		`{ FILTER($x = 1 }`,
	}
	for _, in := range bad {
		if _, _, err := parsePattern(in); err == nil {
			t.Errorf("parsePattern(%q) succeeded, want error", in)
		}
	}
}

// OPTIONAL and UNION are not part of the grammar: a braced group or the
// word OPTIONAL followed by one is no triple.
func TestOptionalAndUnionRejectedInEmbeddedPatterns(t *testing.T) {
	bad := []string{
		`{ $x a b . OPTIONAL { $x c $d } }`,
		`{ { $x a b } UNION { $x c d } }`,
		`{ OPTIONAL { FILTER($x = 1) } }`,
		`{ { $x a b } }`,
		`{ OPTIONAL { OPTIONAL { $x a b } } }`,
	}
	for _, in := range bad {
		if _, _, err := parsePattern(in); err == nil {
			t.Errorf("parsePattern(%q) succeeded, want error", in)
		}
	}
}

// The WHERE groups the OPTIONAL/UNION grammar once refused as malformed
// (a filter-only OPTIONAL, a lone braced group, a filter in a UNION arm,
// nesting) stay refused by the pattern grammar.
func TestParseOptionalErrors(t *testing.T) {
	bad := []string{
		`{ OPTIONAL { FILTER($x = 1) } }`,
		`{ { $x a b } }`,
		`{ { $x a b } UNION { FILTER($x = 1) } }`,
		`{ OPTIONAL { OPTIONAL { $x a b } } }`,
		`{ OPTIONAL { { $x a b } UNION { $x c d } } }`,
	}
	for _, in := range bad {
		if _, _, err := parsePattern(in); err == nil {
			t.Errorf("parsePattern(%q) succeeded, want error", in)
		}
	}
}

func TestEvalBasicJoin(t *testing.T) {
	q := patternQuery(t, `{ $x instanceOf Place . $x near Forest_Hotel }`)
	got := map[string]bool{}
	for _, b := range eval(t, q, testStore()) {
		got[b["x"].Value()] = true
	}
	if len(got) != 2 || !got["Delaware_Park"] || !got["Buffalo_Zoo"] {
		t.Errorf("rows = %v", got)
	}
}

func TestEvalFilterNumeric(t *testing.T) {
	q := patternQuery(t, `{ $x size $s . FILTER($s > 100) }`)
	if rows := eval(t, q, testStore()); len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
}

func TestEvalOrderLimit(t *testing.T) {
	q := patternQuery(t, `{ $x size $s }`)
	q.OrderBy = []OrderKey{{Var: "s", Desc: true}}
	q.Limit = 2
	rows := eval(t, q, testStore())
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

func TestEvalRepeatedVariable(t *testing.T) {
	s := rdf.NewShardedStore(0)
	s.AddTriple(iri("a"), iri("knows"), iri("a"))
	s.AddTriple(iri("a"), iri("knows"), iri("b"))
	rows := eval(t, patternQuery(t, `{ $x knows $x }`), s.Snapshot())
	if len(rows) != 1 || rows[0]["x"].Value() != "a" {
		t.Errorf("rows = %v, want just a", rows)
	}
}

func TestEvalEmptyPatternYieldsOneEmptyRow(t *testing.T) {
	rows := eval(t, &Query{Limit: -1}, testStore())
	if len(rows) != 1 || len(rows[0]) != 0 {
		t.Errorf("rows = %v, want one empty binding", rows)
	}
}

func TestEvalNoMatch(t *testing.T) {
	if rows := eval(t, patternQuery(t, `{ $x instanceOf Unicorn }`), testStore()); len(rows) != 0 {
		t.Errorf("rows = %v, want none", rows)
	}
}

// Eval has no functions and no vocabularies: OASSIS-QL refuses both, and
// package ix compiles its own. A call or a named-set test errors, which
// drops the row whatever operator surrounds it, NOT IN included.
func TestEvalFunctionsAndSets(t *testing.T) {
	for _, f := range []string{
		`LOCAL($x) != "Buffalo_Zoo" && $x IN V_parks`,
		`LOCAL($x) != "Buffalo_Zoo"`,
		`$x IN V_parks`,
		`$x NOT IN V_parks`,
		`!($x IN V_parks)`,
	} {
		q := patternQuery(t, `{ $x instanceOf Place . FILTER(`+f+`) }`)
		if rows := eval(t, q, testStore()); len(rows) != 0 {
			t.Errorf("FILTER(%s): rows = %v, want none", f, rows)
		}
	}
}

func TestEvalUnknownFunctionDropsRow(t *testing.T) {
	q := patternQuery(t, `{ $x instanceOf Place . FILTER(NOPE($x)) }`)
	if rows := eval(t, q, testStore()); len(rows) != 0 {
		t.Errorf("rows = %v, want none (erroring filter)", rows)
	}
}

func TestEvalNotIn(t *testing.T) {
	q := patternQuery(t, `{ $x near $y . FILTER($y NOT IN (Forest_Hotel)) }`)
	if rows := eval(t, q, testStore()); len(rows) != 0 {
		t.Errorf("rows = %v, want none", rows)
	}
	q = patternQuery(t, `{ $x near $y . FILTER($x NOT IN (Buffalo_Zoo, Niagara_Falls)) }`)
	if rows := eval(t, q, testStore()); len(rows) != 1 || rows[0]["x"].Value() != "Delaware_Park" {
		t.Errorf("rows = %v, want Delaware_Park", rows)
	}
}

func TestEvalInList(t *testing.T) {
	q := patternQuery(t, `{ $x size $s . FILTER($s IN (23, 400)) }`)
	if rows := eval(t, q, testStore()); len(rows) != 2 {
		t.Errorf("got %d rows, want 2", len(rows))
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
		triples, _, err := parsePattern(`{ $x p $y . $y q $z }`)
		if err != nil {
			return false
		}
		snap := s.Snapshot()
		rows, err := Eval(context.Background(), &Query{Where: triples, Limit: -1}, snap)
		if err != nil {
			return false
		}
		// Brute force.
		want := map[string]bool{}
		for _, t1 := range snap.Match(rdf.T(rdf.NewVar("s"), iri("p"), rdf.NewVar("o"))) {
			for _, t2 := range snap.Match(rdf.T(rdf.NewVar("s"), iri("q"), rdf.NewVar("o"))) {
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
		triples, _, err := parsePattern(`{ $x size $s }`)
		if err != nil {
			return false
		}
		unlimited := &Query{Where: triples, OrderBy: []OrderKey{{Var: "s"}}, Limit: -1}
		all, err := Eval(context.Background(), unlimited, s)
		if err != nil {
			return false
		}
		lim := int(limit % 6)
		unlimited.Limit = lim
		some, err := Eval(context.Background(), unlimited, s)
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
// wherever the join happened to produce them. Rows that leave a sort
// variable unbound reach the ordering step through AggregateBindings.
func TestOrderByUnboundSortsFirst(t *testing.T) {
	rows := []Binding{
		{"x": iri("a1")},
		{"x": iri("a2"), "z": iri("c2")},
		{"x": iri("a3")},
	}
	q := &Query{OrderBy: []OrderKey{{Var: "z"}}, Limit: -1}
	got := AggregateBindings(q, rows)
	if len(got) != 3 {
		t.Fatalf("rows = %d, want 3", len(got))
	}
	// Ascending: the single bound row (x=a2, z=c2) must come last.
	if _, ok := got[2]["z"]; !ok || !got[2]["x"].Equal(iri("a2")) {
		t.Errorf("ascending: bound row not last: %v", got)
	}
	for _, r := range got[:2] {
		if _, ok := r["z"]; ok {
			t.Errorf("ascending: bound row among leading unbound rows: %v", got)
		}
	}
	// Descending: the bound row must come first.
	q.OrderBy = []OrderKey{{Var: "z", Desc: true}}
	got = AggregateBindings(q, rows)
	if _, ok := got[0]["z"]; !ok || !got[0]["x"].Equal(iri("a2")) {
		t.Errorf("descending: bound row not first: %v", got)
	}
}

// countingSource counts the candidate matches it yields and calls after
// once the count reaches at.
type countingSource struct {
	Source
	yielded, at int
	after       func()
}

func (c *countingSource) MatchFunc(p rdf.Triple, fn func(rdf.Triple) bool) {
	c.Source.MatchFunc(p, func(t rdf.Triple) bool {
		if c.yielded++; c.yielded == c.at {
			c.after()
		}
		return fn(t)
	})
}

// A cartesian product of near-edges: every candidate pair is joined, and
// the filter keeps almost none, so the join runs long while it finds
// little.
func cancelStore() *rdf.Snapshot {
	s := rdf.NewShardedStore(0)
	for i := 0; i < 200; i++ {
		s.MustAdd(rdf.T(iri(fmt.Sprintf("a%d", i)), iri("near"), iri(fmt.Sprintf("b%d", i))))
	}
	return s.Snapshot()
}

func TestEvalStopsWithinOneStrideOfCancel(t *testing.T) {
	q := patternQuery(t, `{ $a near $b . $c near $d . FILTER($b = $c && $a = $d) }`)

	// Already cancelled: no candidate is looked at.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &countingSource{Source: cancelStore()}
	if _, err := Eval(ctx, q, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("Eval under a cancelled context = %v, want context.Canceled", err)
	}
	if src.yielded != 0 {
		t.Errorf("cancelled Eval looked at %d candidates, want 0", src.yielded)
	}

	// Cancelled mid-join: the join stops within one stride.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	const at = 3 * cancelStride / 2
	src = &countingSource{Source: cancelStore(), at: at, after: cancel}
	rows, err := Eval(ctx, q, src)
	if !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("Eval cancelled mid-join = %d rows, %v; want context.Canceled", len(rows), err)
	}
	if over := src.yielded - at; over > cancelStride {
		t.Errorf("join took %d candidates after the cancel, want at most %d", over, cancelStride)
	}
	if full := 200 + 200*200; src.yielded >= full {
		t.Errorf("join ran to completion (%d candidates)", src.yielded)
	}
}
