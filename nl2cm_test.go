package nl2cm

// Facade tests: the public API reproduces the paper's headline artifacts
// end to end.

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// figure1 is the paper's Figure 1 query text.
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

func TestFigure1Exact(t *testing.T) {
	tr := NewTranslator(DemoOntology())
	res, err := tr.Translate(context.Background(), runningExample, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Query.String(); got != figure1 {
		t.Errorf("public API does not reproduce Figure 1:\n%s", got)
	}
}

func TestFigure2TraceStages(t *testing.T) {
	tr := NewTranslator(DemoOntology())
	res, err := tr.Translate(context.Background(), runningExample, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) < 5 {
		t.Errorf("trace has %d stages", len(res.Trace))
	}
}

func TestPublicEndToEnd(t *testing.T) {
	onto := DemoOntology()
	tr := NewTranslator(onto)
	eng := NewDemoEngine(onto)
	res, err := tr.Translate(context.Background(), runningExample, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Execute(context.Background(), res.Query)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, b := range out.Bindings {
		found[b["x"].Local()] = true
	}
	if !found["Delaware_Park"] || !found["Buffalo_Zoo"] {
		t.Errorf("paper's expected answers missing: %v", found)
	}
}

// TestPublicAggregateEndToEnd drives an analytic question through the
// whole stack: NL → grouped-count plan → crowd engine → one winning
// group. Buffalo holds 8 attractions in the demo ontology, ahead of Las
// Vegas (4 hotels) — the superlative must surface it with its count.
func TestPublicAggregateEndToEnd(t *testing.T) {
	onto := DemoOntology()
	tr := NewTranslator(onto)
	eng := NewDemoEngine(onto)
	for _, c := range []struct {
		text, entity, count string
	}{
		{"Which city has the most attractions?", "Buffalo,_NY", "8"},
		{"How many parks are in Buffalo?", "", "2"},
	} {
		res, err := tr.Translate(context.Background(), c.text, Options{})
		if err != nil {
			t.Fatalf("%s: Translate: %v", c.text, err)
		}
		if res.Plan == nil || !res.Plan.Aggregated() {
			t.Fatalf("%s: plan is not aggregated", c.text)
		}
		out, err := eng.Execute(context.Background(), res.Query)
		if err != nil {
			t.Fatalf("%s: Execute: %v", c.text, err)
		}
		if len(out.Bindings) != 1 {
			t.Fatalf("%s: %d bindings, want 1: %v", c.text, len(out.Bindings), out.Bindings)
		}
		b := out.Bindings[0]
		if got := b["count"].Value(); got != c.count {
			t.Errorf("%s: count = %q, want %q", c.text, got, c.count)
		}
		if c.entity != "" {
			if got := b["x"].Local(); got != c.entity {
				t.Errorf("%s: winner = %q, want %q", c.text, got, c.entity)
			}
		}
	}
}

func TestPublicQueryParsing(t *testing.T) {
	q, err := ParseQuery(figure1)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != figure1 {
		t.Error("parse/print round trip failed via public API")
	}
}

func TestPublicVerification(t *testing.T) {
	if v := CheckQuestion("How should I store coffee?"); v.Supported {
		t.Error("descriptive question accepted")
	}
	if v := CheckQuestion(runningExample); !v.Supported {
		t.Error("running example rejected")
	}
}

func TestPublicCorpusAccess(t *testing.T) {
	qs := Corpus()
	if len(qs) < 40 {
		t.Errorf("corpus = %d questions", len(qs))
	}
}

func TestPublicIXDetector(t *testing.T) {
	g, err := ParseSentence(runningExample)
	if err != nil {
		t.Fatal(err)
	}
	d := NewIXDetector()
	ixs, err := d.Detect(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ixs) != 2 {
		t.Errorf("detected %d IXs, want 2", len(ixs))
	}
	// Administrator extension point: parse a custom pattern.
	ps, err := ParseIXPatterns(`PATTERN p TYPE syntactic ANCHOR $v
{$v auxiliary $m
FILTER(LEMMA($m) IN V_modal)}`)
	if err != nil || len(ps) != 1 {
		t.Fatalf("ParseIXPatterns: %v", err)
	}
}

func TestPublicScriptedInteraction(t *testing.T) {
	tr := NewTranslator(DemoOntology())
	opt := Options{
		Interactor: &ScriptedInteractor{
			TopKAnswers:      []int{2},
			ThresholdAnswers: []float64{0.4},
		},
		Policy: InteractivePolicy(),
	}
	res, err := tr.Translate(context.Background(), runningExample, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Query.String(), "LIMIT 2") {
		t.Errorf("interaction not honored:\n%s", res.Query)
	}
}

// thresholdAnswerer is a custom Interactor written against the facade
// alone: it answers every threshold question with one number and gives
// every other question its default.
type thresholdAnswerer float64

func (th thresholdAnswerer) Ask(_ context.Context, q *DialogueQuestion) (DialogueAnswer, error) {
	if q.Kind == KindNumber && !q.Integer {
		n := float64(th)
		return DialogueAnswer{Number: &n}, nil
	}
	return q.DefaultAnswer(), nil
}

// TestPublicCustomInteractor: a custom Interactor's valid answer lands
// in the query, and a NaN threshold, which would print an unparsable
// "THRESHOLD = NaN", fails the translation with a *StageError.
func TestPublicCustomInteractor(t *testing.T) {
	tr := NewTranslator(DemoOntology())
	policy := Policy{Ask: map[InteractionPoint]bool{PointSignificance: true}}
	res, err := tr.Translate(context.Background(), runningExample, Options{Interactor: thresholdAnswerer(0.3), Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Query.String(), "THRESHOLD = 0.3") {
		t.Errorf("custom answer not honored:\n%s", res.Query)
	}
	_, err = tr.Translate(context.Background(), runningExample, Options{Interactor: thresholdAnswerer(math.NaN()), Policy: policy})
	var se *StageError
	if !errors.As(err, &se) || !errors.Is(err, ErrBadAnswer) {
		t.Errorf("NaN threshold err = %v, want a *StageError wrapping ErrBadAnswer", err)
	}
}
