package qgen

import (
	"context"
	"strings"
	"testing"

	"nl2cm/internal/corpus"
	"nl2cm/internal/interact"
	"nl2cm/internal/nlp"
	"nl2cm/internal/ontology"
	"nl2cm/internal/rdf"
)

func gen(t *testing.T, sentence string, opt Options) (*Generator, *Result) {
	t.Helper()
	g := New()
	res := genWith(t, g, sentence, opt)
	return g, res
}

func genWith(t *testing.T, g *Generator, sentence string, opt Options) *Result {
	t.Helper()
	dg, err := nlp.Parse(sentence)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	res, err := g.Generate(context.Background(), ontology.NewDemoOntology().View(), dg, opt)
	if err != nil {
		t.Fatalf("Generate(%q): %v", sentence, err)
	}
	return res
}

// hasTriple reports whether the result contains a triple matching the
// rendered form.
func hasTriple(res *Result, s, p, o string) bool {
	for _, tr := range res.Triples {
		if term(tr.S) == s && term(tr.P) == p && term(tr.O) == o {
			return true
		}
	}
	return false
}

func term(t rdf.Term) string {
	if t.IsVar() {
		return "$" + t.Value()
	}
	return t.Local()
}

func dump(res *Result) string {
	var b strings.Builder
	for _, tr := range res.Triples {
		b.WriteString(term(tr.S) + " " + term(tr.P) + " " + term(tr.O) + "\n")
	}
	return b.String()
}

func TestGenerateRunningExample(t *testing.T) {
	_, res := gen(t, "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?", Options{})
	if res.TargetVar != "x" {
		t.Errorf("TargetVar = %q, want x", res.TargetVar)
	}
	if !hasTriple(res, "$x", "instanceOf", "Place") {
		t.Errorf("missing {$x instanceOf Place}:\n%s", dump(res))
	}
	if !hasTriple(res, "$x", "near", "Forest_Hotel,_Buffalo,_NY") {
		t.Errorf("missing {$x near Forest_Hotel,_Buffalo,_NY}:\n%s", dump(res))
	}
	if len(res.Unmatched) != 0 {
		t.Errorf("Unmatched = %v", res.Unmatched)
	}
}

func TestGenerateVegasQuestion(t *testing.T) {
	_, res := gen(t, "Which hotel in Vegas has the best thrill ride?", Options{})
	if res.TargetVar != "x" {
		t.Errorf("TargetVar = %q", res.TargetVar)
	}
	for _, want := range [][3]string{
		{"$x", "instanceOf", "Hotel"},
		{"$x", "locatedIn", "Las_Vegas"},
		{"$y", "instanceOf", "Ride"},
		{"$x", "hasFeature", "$y"},
	} {
		if !hasTriple(res, want[0], want[1], want[2]) {
			t.Errorf("missing {%s %s %s}:\n%s", want[0], want[1], want[2], dump(res))
		}
	}
}

func TestGenerateTransparentNoun(t *testing.T) {
	_, res := gen(t, "What type of digital camera should I buy?", Options{})
	if res.TargetVar != "x" {
		t.Errorf("TargetVar = %q", res.TargetVar)
	}
	if !hasTriple(res, "$x", "instanceOf", "Camera") {
		t.Errorf("missing {$x instanceOf Camera}:\n%s", dump(res))
	}
}

func TestGenerateCompoundEntity(t *testing.T) {
	_, res := gen(t, "Is chocolate milk good for kids?", Options{})
	if !hasTriple(res, "Chocolate_Milk", "goodFor", "Kids") {
		t.Errorf("missing {Chocolate_Milk goodFor Kids}:\n%s", dump(res))
	}
}

// The goodFor triple must carry the origin of the adjective so the Query
// Composition module can delete it when "good" is a detected IX.
func TestGenerateTripleOrigins(t *testing.T) {
	_, res := gen(t, "Is chocolate milk good for kids?", Options{})
	for _, tr := range res.Triples {
		if term(tr.P) == "goodFor" {
			if len(tr.Origin) < 3 {
				t.Errorf("goodFor origin = %v, want >= 3 nodes", tr.Origin)
			}
			return
		}
	}
	t.Fatalf("goodFor triple missing:\n%s", dump(res))
}

func TestAmbiguityAutoDefaultsToMostConnected(t *testing.T) {
	_, res := gen(t, "Where do you visit in Buffalo?", Options{})
	found := false
	for _, term := range res.NodeTerms {
		if term.Local() == "Buffalo,_NY" {
			found = true
		}
	}
	if !found {
		t.Errorf("auto mode did not pick Buffalo, NY: %v", res.NodeTerms)
	}
}

func TestAmbiguityInteraction(t *testing.T) {
	g := New()
	scripted := &interact.Scripted{DisambiguationAnswers: []int{1}}
	opt := Options{
		Interactor: scripted,
		Policy: interact.Policy{Ask: map[interact.Point]bool{
			interact.PointDisambiguation: true,
		}},
	}
	res := genWith(t, g, "Where do you visit in Buffalo?", opt)
	var chosen rdf.Term
	for _, term := range res.NodeTerms {
		if strings.HasPrefix(term.Local(), "Buffalo,_") {
			chosen = term
		}
	}
	if chosen.Local() == "Buffalo,_NY" || chosen == (rdf.Term{}) {
		t.Errorf("scripted second choice ignored; got %v", chosen)
	}
	// The answer was recorded as feedback.
	if g.Feedback.Boost("Buffalo", chosen) == 0 {
		t.Error("feedback not recorded")
	}
}

func TestFeedbackImprovesRanking(t *testing.T) {
	g := New()
	// The user repeatedly picks Buffalo, IL.
	il := ontology.E("Buffalo,_IL")
	for i := 0; i < 5; i++ {
		g.Feedback.Record("Buffalo", il)
	}
	res := genWith(t, g, "Where do you visit in Buffalo?", Options{})
	found := false
	for _, term := range res.NodeTerms {
		if term == il {
			found = true
		}
	}
	if !found {
		t.Errorf("learned preference not applied: %v", res.NodeTerms)
	}
}

func TestFeedbackBoostCapped(t *testing.T) {
	f := NewFeedback()
	e := ontology.E("X")
	for i := 0; i < 100; i++ {
		f.Record("x", e)
	}
	if b := f.Boost("x", e); b > 0.21 {
		t.Errorf("boost = %g, want capped", b)
	}
	if f.Boost("y", e) != 0 {
		t.Error("boost for unrecorded phrase != 0")
	}
}

func TestUnknownEntityBecomesLabelConstraint(t *testing.T) {
	_, res := gen(t, "What are the best places near Zorbopolis?", Options{})
	if len(res.Unmatched) == 0 || res.Unmatched[0] != "Zorbopolis" {
		t.Errorf("Unmatched = %v", res.Unmatched)
	}
	// A label triple keeps the query executable.
	found := false
	for _, tr := range res.Triples {
		if tr.P == ontology.PredLabel && tr.O == rdf.NewLiteral("Zorbopolis") {
			found = true
		}
	}
	if !found {
		t.Errorf("no label fallback triple:\n%s", dump(res))
	}
}

func TestFreshVarAllocation(t *testing.T) {
	res := &Result{}
	seen := map[string]bool{}
	for i := 0; i < 12; i++ {
		v := res.FreshVar()
		if seen[v] {
			t.Fatalf("duplicate variable %q", v)
		}
		seen[v] = true
	}
}

func TestDisambiguationErrorPropagates(t *testing.T) {
	g := New()
	dg, err := nlp.Parse("Where do you visit in Buffalo?")
	if err != nil {
		t.Fatal(err)
	}
	bad := &interact.Scripted{DisambiguationAnswers: []int{99}}
	_, err = g.Generate(context.Background(), ontology.NewDemoOntology().View(), dg, Options{
		Interactor: bad,
		Policy:     interact.Policy{Ask: map[interact.Point]bool{interact.PointDisambiguation: true}},
	})
	if err == nil {
		t.Fatal("Generate with out-of-range choice succeeded")
	}
}

func TestRichInAdjectiveRelation(t *testing.T) {
	_, res := gen(t, "Which dishes are rich in fiber?", Options{})
	if !hasTriple(res, "$x", "instanceOf", "Dish") {
		t.Errorf("missing instanceOf Dish:\n%s", dump(res))
	}
	if !hasTriple(res, "$x", "richIn", "Fiber") {
		t.Errorf("missing {$x richIn Fiber}:\n%s", dump(res))
	}
}

func TestPhrasesRecorded(t *testing.T) {
	_, res := gen(t, "Which hotel in Vegas has the best thrill ride?", Options{})
	var phrases []string
	for _, p := range res.Phrases {
		phrases = append(phrases, p)
	}
	joined := strings.Join(phrases, "|")
	if !strings.Contains(joined, "hotel") || !strings.Contains(joined, "Vegas") {
		t.Errorf("Phrases = %v", res.Phrases)
	}
}

// TestReadLogFitsCap: no supported corpus question logs more reads than
// readLogCap, relation lookups included, so the read log is the one
// allocation Generate sizes up front.
func TestReadLogFitsCap(t *testing.T) {
	g, v := New(), ontology.NewDemoOntology().View()
	most, relations := 0, 0
	for _, q := range corpus.Supported() {
		dg, err := nlp.Parse(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Generate(context.Background(), v, dg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Reads) > readLogCap {
			t.Errorf("%q logs %d reads, over readLogCap %d", q.Text, len(res.Reads), readLogCap)
		}
		most = max(most, len(res.Reads))
		for _, rd := range res.Reads {
			if rd.Relation {
				relations++
			}
		}
	}
	if relations == 0 {
		t.Error("no relation lookup was logged")
	}
	t.Logf("at most %d reads per question, %d relation lookups in all", most, relations)
}
