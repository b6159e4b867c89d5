package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
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

// A WHERE filter runs over the rebased query: its bare entity names move
// into the ontology namespace as the triples' do, so it keeps the parks
// it names, and a filter the evaluator cannot run is refused with a line
// instead of matching nothing.
func TestWhereFilters(t *testing.T) {
	const parks = `SELECT VARIABLES
WHERE
{$x instanceOf Park.
$x locatedIn Buffalo,_NY.
FILTER(%s)}`
	cases := []struct {
		filter string
		want   []string // the parks kept
		err    string   // Parse's refusal, when it refuses
	}{
		{filter: `$x = Delaware_Park`, want: []string{"Delaware_Park"}},
		{filter: `$x != Delaware_Park`, want: []string{"Botanical_Gardens"}},
		{filter: `$x IN (Delaware_Park)`, want: []string{"Delaware_Park"}},
		{filter: `!($x IN (Delaware_Park, Buffalo_Zoo))`, want: []string{"Botanical_Gardens"}},
		{filter: `$x = Delaware_Park || 1 + 1 = 3`, want: []string{"Delaware_Park"}},
		{filter: `$x != Delaware_Park && $x != Botanical_Gardens`, want: nil},
		{filter: `STRLEN($x) > 1`, err: "line 3: FILTER calls STRLEN()"},
	}
	onto := nl2cm.DemoOntology()
	for _, c := range cases {
		q, err := nl2cm.ParseQuery(fmt.Sprintf(parks, c.filter))
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("FILTER(%s): Parse error = %v, want containing %q", c.filter, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("FILTER(%s): %v", c.filter, err)
		}
		rebase(q)
		out, err := nl2cm.NewDemoEngine(onto).Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("FILTER(%s): Execute: %v", c.filter, err)
		}
		var got []string
		for _, b := range out.Bindings {
			got = append(got, b["x"].Local())
		}
		slices.Sort(got)
		if !slices.Equal(got, c.want) {
			t.Errorf("FILTER(%s) kept %v, want %v", c.filter, got, c.want)
		}
	}
}
