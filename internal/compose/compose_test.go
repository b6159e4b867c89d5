package compose

import (
	"context"
	"slices"
	"strings"
	"testing"

	"nl2cm/internal/individual"
	"nl2cm/internal/interact"
	"nl2cm/internal/ix"
	"nl2cm/internal/nlp"
	"nl2cm/internal/oassisql"
	"nl2cm/internal/ontology"
	"nl2cm/internal/qgen"
)

// build runs the full upstream pipeline and returns a ready Input.
func build(t *testing.T, sentence string) Input {
	t.Helper()
	g, err := nlp.Parse(sentence)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	det := ix.NewDetector()
	ixs, err := det.Detect(context.Background(), g)
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	gen := qgen.New()
	res, err := gen.Generate(context.Background(), ontology.NewDemoOntology().View(), g, qgen.Options{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	parts, err := (&individual.Creator{}).Create(context.Background(), g, ixs, res)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return Input{Graph: g, IXs: ixs, General: res, Parts: parts}
}

const runningExample = "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?"

func TestComposeFigure1(t *testing.T) {
	out, err := New().Compose(context.Background(), build(t, runningExample))
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	q := out.Query
	want := `SELECT VARIABLES
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
	if got := q.String(); got != want {
		t.Errorf("composed query:\n%s\nwant:\n%s", got, want)
	}
}

func TestComposeValidates(t *testing.T) {
	out, err := New().Compose(context.Background(), build(t, runningExample))
	if err != nil {
		t.Fatal(err)
	}
	q := out.Query
	if err := q.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// The Query Composition module deletes general triples that correspond
// to detected IXs (paper §3): "good for kids" matched the ontology's
// goodFor relation, but "good" is a lexical IX.
func TestComposeDeletesIXOverlappingGeneralTriples(t *testing.T) {
	in := build(t, "Is chocolate milk good for kids?")
	// The generator produced the spurious general triple.
	spurious := false
	for _, tr := range in.General.Triples {
		if tr.P == ontology.PredGoodFor {
			spurious = true
		}
	}
	if !spurious {
		t.Fatal("precondition failed: no goodFor triple generated")
	}
	out, err := New().Compose(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	q := out.Query
	for _, tr := range q.Where.Triples {
		if tr.P == ontology.PredGoodFor {
			t.Errorf("IX-overlapping triple survived in WHERE:\n%s", q)
		}
	}
}

// Shared nouns between WHERE and SATISFYING must NOT trigger deletion:
// {$x instanceOf Place} stays although "places" is inside the visit IX.
func TestComposeKeepsSharedNounTriples(t *testing.T) {
	out, err := New().Compose(context.Background(), build(t, runningExample))
	if err != nil {
		t.Fatal(err)
	}
	q := out.Query
	found := false
	for _, tr := range q.Where.Triples {
		if tr.P == ontology.PredInstanceOf {
			found = true
		}
	}
	if !found {
		t.Errorf("shared-noun triple deleted:\n%s", q)
	}
}

func TestComposeSignificanceDefaults(t *testing.T) {
	out, err := New().Compose(context.Background(), build(t, runningExample))
	if err != nil {
		t.Fatal(err)
	}
	q := out.Query
	if q.Satisfying[0].TopK == nil || q.Satisfying[0].TopK.K != 5 {
		t.Errorf("superlative subclause criterion = %+v", q.Satisfying[0])
	}
	if q.Satisfying[1].Threshold == nil || *q.Satisfying[1].Threshold != 0.1 {
		t.Errorf("habit subclause criterion = %+v", q.Satisfying[1])
	}
}

func TestComposeSignificanceInteraction(t *testing.T) {
	in := build(t, runningExample)
	in.Interactor = &interact.Scripted{TopKAnswers: []int{7}, ThresholdAnswers: []float64{0.3}}
	in.Policy = interact.Policy{Ask: map[interact.Point]bool{interact.PointSignificance: true}}
	out, err := New().Compose(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	q := out.Query
	if q.Satisfying[0].TopK.K != 7 {
		t.Errorf("k = %d, want 7 (Figure 5 dialogue)", q.Satisfying[0].TopK.K)
	}
	if *q.Satisfying[1].Threshold != 0.3 {
		t.Errorf("threshold = %g, want 0.3", *q.Satisfying[1].Threshold)
	}
}

func TestComposeBadSignificanceRejected(t *testing.T) {
	in := build(t, runningExample)
	in.Interactor = &interact.Scripted{TopKAnswers: []int{0}}
	in.Policy = interact.Policy{Ask: map[interact.Point]bool{interact.PointSignificance: true}}
	if _, err := New().Compose(context.Background(), in); err == nil {
		t.Error("k=0 accepted")
	}
	in2 := build(t, runningExample)
	in2.Interactor = &interact.Scripted{ThresholdAnswers: []float64{1.5}}
	in2.Policy = interact.Policy{Ask: map[interact.Point]bool{interact.PointSignificance: true}}
	if _, err := New().Compose(context.Background(), in2); err == nil {
		t.Error("threshold 1.5 accepted")
	}
}

func TestComposeProjectionDefaultKeepsAll(t *testing.T) {
	out, err := New().Compose(context.Background(), build(t, runningExample))
	if err != nil {
		t.Fatal(err)
	}
	q := out.Query
	if !q.Select.All {
		t.Errorf("Select = %+v, want VARIABLES", q.Select)
	}
}

func TestComposeProjectionInteraction(t *testing.T) {
	// "What are the most interesting places we should visit with a tour
	// guide?" — the user keeps the guide but could drop it (paper §4.1).
	in := build(t, "What are the most interesting places in Buffalo we should visit with a tour guide?")
	// Determine variable count first.
	probe, err := New().Compose(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	vars := probe.Query.Vars()
	if len(vars) < 2 {
		t.Skipf("need >= 2 vars for projection test, got %v", vars)
	}
	// Keep only the first variable.
	keep := make([]bool, len(vars))
	keep[0] = true
	in2 := build(t, "What are the most interesting places in Buffalo we should visit with a tour guide?")
	in2.Interactor = &interact.Scripted{ProjectionAnswers: [][]bool{keep}}
	in2.Policy = interact.Policy{Ask: map[interact.Point]bool{interact.PointProjection: true}}
	out, err := New().Compose(context.Background(), in2)
	if err != nil {
		t.Fatal(err)
	}
	q := out.Query
	if q.Select.All || len(q.Select.Vars) != 1 {
		t.Errorf("Select = %+v, want single projected variable", q.Select)
	}
}

// A narrowed projection of a grouped plan keeps the kept grouping
// variables and every aggregate, so the printed query still declares the
// alias it orders by and parses back.
func TestComposeNarrowedAggregateKeepsGroupedOutputs(t *testing.T) {
	for _, tc := range []struct {
		keep []bool
		want []string
	}{
		{[]bool{true, false}, []string{"x", "count"}}, // the grouping variable
		{[]bool{false, true}, []string{"count"}},      // the counted one
	} {
		in := build(t, "Which city has the most attractions?")
		in.Interactor = &interact.Scripted{ProjectionAnswers: [][]bool{tc.keep}}
		in.Policy = interact.Policy{Ask: map[interact.Point]bool{interact.PointProjection: true}}
		out, err := New().Compose(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Plan.Aggregated() || !slices.Equal(out.Plan.Select.Vars, tc.want) {
			t.Errorf("keep %v: Select = %+v, want %v", tc.keep, out.Plan.Select, tc.want)
		}
		if _, err := oassisql.Parse(out.Query.String()); err != nil {
			t.Errorf("keep %v: %v\n%s", tc.keep, err, out.Query)
		}
	}
}

func TestComposePureGeneralQuery(t *testing.T) {
	out, err := New().Compose(context.Background(), build(t, "Which parks are in Buffalo?"))
	if err != nil {
		t.Fatal(err)
	}
	q := out.Query
	if len(q.Satisfying) != 0 {
		t.Errorf("pure general question got SATISFYING subclauses:\n%s", q)
	}
	if len(q.Where.Triples) == 0 {
		t.Error("WHERE empty")
	}
	if strings.Contains(q.String(), "SATISFYING") {
		t.Errorf("printer shows empty SATISFYING:\n%s", q)
	}
}

func TestComposedQueryReparses(t *testing.T) {
	out, err := New().Compose(context.Background(), build(t, runningExample))
	if err != nil {
		t.Fatal(err)
	}
	q := out.Query
	q2, err := oassisql.Parse(q.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if q2.String() != q.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", q, q2)
	}
}

// Property-style invariant over the corpus sentences: every composed
// query's subclauses have exactly one significance criterion each, and
// every named SATISFYING variable that appears in some general triple
// uses the same name there.
func TestComposeInvariantsOverSentences(t *testing.T) {
	sentences := []string{
		runningExample,
		"Which hotel in Vegas has the best thrill ride?",
		"What type of digital camera should I buy?",
		"Is chocolate milk good for kids?",
		"Where do you visit in Buffalo?",
		"At what container should I store coffee?",
		"Which dishes rich in fiber do people cook in the winter?",
		"What are the best places to visit in Buffalo with kids?",
		"Obama should visit Buffalo.",
	}
	for _, s := range sentences {
		in := build(t, s)
		out, err := New().Compose(context.Background(), in)
		if err != nil {
			t.Errorf("Compose(%q): %v", s, err)
			continue
		}
		q := out.Query
		for i, sc := range q.Satisfying {
			oneOf := (sc.TopK != nil) != (sc.Threshold != nil)
			if !oneOf {
				t.Errorf("%q subclause %d criteria invalid", s, i)
			}
			if len(sc.Pattern.Triples) == 0 {
				t.Errorf("%q subclause %d empty", s, i)
			}
		}
		if err := q.Validate(); err != nil {
			t.Errorf("%q: invalid query: %v", s, err)
		}
	}
}
