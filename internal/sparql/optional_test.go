package sparql

import (
	"strings"
	"testing"

	"nl2cm/internal/rdf"
)

// optStore: places with optional labels, two relation kinds.
func optStore() *rdf.ShardedStore {
	s := rdf.NewShardedStore(0)
	add := func(sub, p, o string) { s.AddTriple(iri(sub), iri(p), iri(o)) }
	add("park", "instanceOf", "Place")
	add("zoo", "instanceOf", "Place")
	add("museum", "instanceOf", "Place")
	s.AddTriple(iri("park"), iri("label"), rdf.NewLiteral("Delaware Park"))
	s.AddTriple(iri("zoo"), iri("label"), rdf.NewLiteral("Buffalo Zoo"))
	// museum has no label
	add("park", "near", "hotel")
	add("museum", "adjacentTo", "hotel")
	return s
}

func TestParseOptional(t *testing.T) {
	q, err := Parse(`SELECT $x $l WHERE {
		$x instanceOf Place .
		OPTIONAL { $x label $l }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Optionals) != 1 || len(q.Optionals[0]) != 1 {
		t.Fatalf("Optionals = %v", q.Optionals)
	}
	if !strings.Contains(q.String(), "OPTIONAL {") {
		t.Errorf("String() lost OPTIONAL:\n%s", q)
	}
}

func TestEvalOptionalLeftJoin(t *testing.T) {
	q, err := Parse(`SELECT $x $l WHERE {
		$x instanceOf Place .
		OPTIONAL { $x label $l }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, optStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (left join keeps the unlabeled museum)", len(rows))
	}
	labeled := 0
	for _, b := range rows {
		if _, ok := b["l"]; ok {
			labeled++
		}
	}
	if labeled != 2 {
		t.Errorf("labeled rows = %d, want 2", labeled)
	}
}

func TestParseUnion(t *testing.T) {
	q, err := Parse(`SELECT $x WHERE {
		$x instanceOf Place .
		{ $x near hotel } UNION { $x adjacentTo hotel }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Unions) != 1 || len(q.Unions[0]) != 2 {
		t.Fatalf("Unions = %v", q.Unions)
	}
	if !strings.Contains(q.String(), "UNION") {
		t.Errorf("String() lost UNION:\n%s", q)
	}
}

func TestEvalUnion(t *testing.T) {
	q, err := Parse(`SELECT $x WHERE {
		$x instanceOf Place .
		{ $x near hotel } UNION { $x adjacentTo hotel }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, optStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, b := range rows {
		got[b["x"].Local()] = true
	}
	if len(got) != 2 || !got["park"] || !got["museum"] {
		t.Errorf("rows = %v, want park+museum", got)
	}
}

func TestEvalUnionThreeAlternatives(t *testing.T) {
	q, err := Parse(`SELECT $x WHERE {
		{ $x near hotel } UNION { $x adjacentTo hotel } UNION { $x instanceOf Place }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Eval(q, optStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// park appears via two alternatives; DISTINCT not requested.
	if len(rows) != 5 {
		t.Errorf("rows = %d, want 5 (bag semantics)", len(rows))
	}
}

func TestOptionalAndUnionRejectedInEmbeddedPatterns(t *testing.T) {
	if _, _, err := ParsePattern(`{ $x a b . OPTIONAL { $x c $d } }`, nil); err == nil {
		t.Error("OPTIONAL accepted in embedded pattern")
	}
	if _, _, err := ParsePattern(`{ { $x a b } UNION { $x c d } }`, nil); err == nil {
		t.Error("UNION accepted in embedded pattern")
	}
}

func TestParseOptionalErrors(t *testing.T) {
	bad := []string{
		`SELECT $x WHERE { OPTIONAL { FILTER($x = 1) } }`,
		`SELECT $x WHERE { { $x a b } }`,                          // lone braced group
		`SELECT $x WHERE { { $x a b } UNION { FILTER($x = 1) } }`, // filter in union
		`SELECT $x WHERE { OPTIONAL { OPTIONAL { $x a b } } }`,    // nesting
		`SELECT $x WHERE { OPTIONAL { { $x a b } UNION { $x c d } } }`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestOptionalStringRoundTrip(t *testing.T) {
	in := `SELECT $x $l WHERE {
		$x instanceOf Place .
		{ $x near hotel } UNION { $x adjacentTo hotel }
		OPTIONAL { $x label $l }
	}`
	q, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse of:\n%s\n%v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("round trip:\n%s\nvs\n%s", q.String(), q2.String())
	}
}
