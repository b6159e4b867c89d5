package main

import (
	"context"
	"testing"

	"nl2cm"
	"nl2cm/internal/corpus"
	"nl2cm/internal/ontology"
)

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

func TestRebaseMapsGeneralTermsIntoNamespace(t *testing.T) {
	q, err := nl2cm.ParseQuery(figure1)
	if err != nil {
		t.Fatal(err)
	}
	rebase(q)
	// WHERE predicates and entities moved into the ontology namespace.
	if got := q.Where.Triples[0].P; got != ontology.PredInstanceOf {
		t.Errorf("instanceOf = %v", got)
	}
	if got := q.Where.Triples[1].O; got != ontology.E("Forest_Hotel,_Buffalo,_NY") {
		t.Errorf("entity = %v", got)
	}
	// Crowd-facing predicates stay bare; their entities move.
	sc := q.Satisfying[1]
	if sc.Pattern.Triples[0].P.Value() != "visit" {
		t.Errorf("crowd predicate = %v", sc.Pattern.Triples[0].P)
	}
	if sc.Pattern.Triples[1].O != ontology.E("Fall") {
		t.Errorf("crowd entity = %v", sc.Pattern.Triples[1].O)
	}
	// Literals untouched.
	if q.Satisfying[0].Pattern.Triples[0].O.Value() != "interesting" {
		t.Errorf("literal = %v", q.Satisfying[0].Pattern.Triples[0].O)
	}
}

func TestRebasedQueryExecutes(t *testing.T) {
	q, err := nl2cm.ParseQuery(figure1)
	if err != nil {
		t.Fatal(err)
	}
	rebase(q)
	onto := nl2cm.DemoOntology()
	eng := nl2cm.NewDemoEngine(onto)
	out, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if out.WhereBindings != 5 || len(out.Bindings) == 0 {
		t.Errorf("where=%d final=%d", out.WhereBindings, len(out.Bindings))
	}
}

// oassis executes the printed query of every supported corpus question,
// plain ontology queries included, and reads from the ontology what the
// translator's own query reads.
func TestCorpusQueriesExecute(t *testing.T) {
	onto := nl2cm.DemoOntology()
	tr := nl2cm.NewTranslator(onto)
	ctx := context.Background()
	for _, cq := range corpus.Supported() {
		res, err := tr.Translate(ctx, cq.Text, nl2cm.Options{})
		if err != nil {
			t.Fatalf("%s: Translate: %v", cq.ID, err)
		}
		q, err := nl2cm.ParseQuery(res.Query.String())
		if err != nil {
			t.Errorf("%s: printed query does not parse: %v\n%s", cq.ID, err, res.Query)
			continue
		}
		rebase(q)
		got, err := nl2cm.NewDemoEngine(onto).Execute(ctx, q)
		if err != nil {
			t.Errorf("%s: Execute: %v\n%s", cq.ID, err, res.Query)
			continue
		}
		want, err := nl2cm.NewDemoEngine(onto).Execute(ctx, res.Query)
		if err != nil {
			t.Fatalf("%s: Execute of the translated query: %v", cq.ID, err)
		}
		if got.WhereBindings != want.WhereBindings || len(got.Bindings) != len(want.Bindings) {
			t.Errorf("%s: printed query read %d WHERE rows and returned %d, translated query %d and %d\n%s",
				cq.ID, got.WhereBindings, len(got.Bindings), want.WhereBindings, len(want.Bindings), res.Query)
		}
	}
}
