package sparql

import (
	"testing"

	"nl2cm/internal/rdf"
)

// FuzzParse fuzzes what the host languages parse with this package: a
// group pattern through PatternParser.GroupPattern, and the analytic
// grammar — COUNT calls through PatternParser.AggregateCall, then ORDER
// BY keys through PatternParser.OrderKeys — each over the whole input.
// Neither may panic. Every accepted pattern keeps the structural
// invariants the evaluator relies on: an IRI or variable as subject and
// predicate (literals only bind in object position), named variables,
// and non-nil filters. Every accepted count and sort key names a
// variable.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"{ $x <near> $y . }",
		"{ $x <instanceOf> <Place> . FILTER($x != <Forest>) }",
		"{ $a <p> $b . OPTIONAL { $a <q> \"lit\" . } }",
		"{ [] <visit> $x . $x <in> \"Fall\" }",
		"{ ?s ?p 42 . FILTER(?s = ?p || !(?p < 3)) }",
		"{ $x <p> $y . } # trailing comment",
		"{ $x nsubj $y . FILTER(POS($y) IN (\"NN\", \"NNS\") && $y IN V_participant) }",
		"COUNT($x) AS $n count($y) DESC($n) $x ASC($y)",
		"COUNT(*) SUM($y) AS $s",
		"",
		"{ $x",
		"{ \"subject\" <p> $y }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		lx, err := NewLexer(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if triples, filters, err := NewPatternParser(lx, nil).GroupPattern(); err == nil {
			checkPattern(t, input, triples, filters)
		}
		lx, _ = NewLexer(input)
		pp := NewPatternParser(lx, nil)
		for {
			a, ok, err := pp.AggregateCall()
			if err != nil || !ok {
				break
			}
			if a.Var == "" {
				t.Fatalf("count of no variable: %+v\ninput: %q", a, input)
			}
			_ = a.String() // printing must not panic either
		}
		if keys, err := pp.OrderKeys(); err == nil {
			for _, k := range keys {
				if k.Var == "" {
					t.Fatalf("sort key of no variable: %+v\ninput: %q", k, input)
				}
			}
		}
	})
}

func checkPattern(t *testing.T, input string, triples []rdf.Triple, filters []Expr) {
	t.Helper()
	for _, tr := range triples {
		if k := tr.S.Kind(); k != rdf.KindIRI && k != rdf.KindVariable && k != rdf.KindBlank {
			t.Fatalf("subject of %s is a %s\ninput: %q", tr, k, input)
		}
		if k := tr.P.Kind(); k != rdf.KindIRI && k != rdf.KindVariable {
			t.Fatalf("predicate of %s is a %s\ninput: %q", tr, k, input)
		}
		for _, term := range []rdf.Term{tr.S, tr.P, tr.O} {
			if term.Kind() == rdf.KindVariable && term.Value() == "" {
				t.Fatalf("unnamed variable in %s\ninput: %q", tr, input)
			}
		}
	}
	for _, f := range filters {
		if f == nil {
			t.Fatalf("nil filter expression\ninput: %q", input)
		}
		_ = f.String()
	}
}
