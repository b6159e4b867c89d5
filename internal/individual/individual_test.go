package individual

import (
	"context"
	"strings"
	"testing"

	"nl2cm/internal/ix"
	"nl2cm/internal/nlp"
	"nl2cm/internal/oassisql"
	"nl2cm/internal/ontology"
	"nl2cm/internal/qgen"
	"nl2cm/internal/rdf"
)

// pipeline runs parse -> detect -> generate -> create for a sentence.
func pipeline(t *testing.T, sentence string) (*nlp.DepGraph, []Part) {
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
	parts, err := (&Creator{}).Create(context.Background(), g, ixs, res)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return g, parts
}

// render flattens parts to OASSIS-QL triple strings.
func render(parts []Part) []string {
	var out []string
	for _, p := range parts {
		for _, tr := range p.Triples {
			out = append(out, oassisql.TermString(tr.S)+" "+oassisql.TermString(tr.P)+" "+oassisql.TermString(tr.O))
		}
	}
	return out
}

func contains(lines []string, want string) bool {
	for _, l := range lines {
		if l == want {
			return true
		}
	}
	return false
}

func TestRunningExampleParts(t *testing.T) {
	_, parts := pipeline(t, "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?")
	if len(parts) != 2 {
		t.Fatalf("got %d parts, want 2: %v", len(parts), render(parts))
	}
	lines := render(parts)
	// Figure 1's SATISFYING triples.
	for _, want := range []string{
		`$x hasLabel "interesting"`,
		`[] visit $x`,
		`[] in Fall`,
	} {
		if !contains(lines, want) {
			t.Errorf("missing triple %q in %v", want, lines)
		}
	}
	// The opinion part is superlative ("most interesting"), the habit is
	// not.
	if !parts[0].Superlative {
		t.Error("interesting part not marked superlative")
	}
	if parts[1].Superlative {
		t.Error("visit part wrongly superlative")
	}
	// "should" must not appear anywhere (paper footnote 2).
	for _, l := range lines {
		if strings.Contains(l, "should") {
			t.Errorf("modal leaked into triples: %q", l)
		}
	}
}

func TestAnonymousVariablesDistinct(t *testing.T) {
	_, parts := pipeline(t, "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?")
	var habit Part
	for _, p := range parts {
		if p.Habit {
			habit = p
		}
	}
	if len(habit.Triples) != 2 {
		t.Fatalf("habit part has %d triples: %v", len(habit.Triples), render(parts))
	}
	s0, s1 := habit.Triples[0].S, habit.Triples[1].S
	if !oassisql.IsAnonVar(s0.Value()) || !oassisql.IsAnonVar(s1.Value()) {
		t.Fatalf("subjects not anonymous: %v %v", s0, s1)
	}
	if s0.Equal(s1) {
		t.Error("the two [] subjects share a variable; Figure 1 has distinct ones")
	}
}

func TestNamedSubjectKept(t *testing.T) {
	// "Obama should visit Buffalo" — Obama is not an individual
	// participant and must remain the subject.
	g, parts := pipeline(t, "Obama should visit Buffalo.")
	if len(parts) != 1 {
		t.Fatalf("got %d parts: %v", len(parts), render(parts))
	}
	tr := parts[0].Triples[0]
	if oassisql.IsAnonVar(tr.S.Value()) {
		t.Errorf("Obama projected out: %v", render(parts))
	}
	_ = g
}

func TestParticipantProjectedOut(t *testing.T) {
	_, parts := pipeline(t, "Where do you visit in Buffalo?")
	lines := render(parts)
	for _, l := range lines {
		if strings.Contains(l, "you") {
			t.Errorf("participant leaked: %q", l)
		}
	}
	// the answer variable exists
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "[] visit $") {
		t.Errorf("no visit triple with answer variable: %v", lines)
	}
	if !strings.Contains(joined, "[] in Buffalo,_NY") {
		t.Errorf("no Buffalo modifier triple: %v", lines)
	}
}

func TestPredicateAdjective(t *testing.T) {
	_, parts := pipeline(t, "Is chocolate milk good for kids?")
	lines := render(parts)
	if !contains(lines, `Chocolate_Milk hasLabel "good"`) {
		t.Errorf("missing hasLabel triple: %v", lines)
	}
	if !contains(lines, `Chocolate_Milk for Kids`) {
		t.Errorf("missing prep complement triple: %v", lines)
	}
}

func TestSuperlativeBest(t *testing.T) {
	_, parts := pipeline(t, "Which hotel in Vegas has the best thrill ride?")
	if len(parts) != 1 {
		t.Fatalf("got %d parts: %v", len(parts), render(parts))
	}
	if !parts[0].Superlative {
		t.Error("'best' part not superlative")
	}
	lines := render(parts)
	if !contains(lines, `$y hasLabel "good"`) {
		t.Errorf("lines = %v", lines)
	}
}

func TestFrontedObjectVerb(t *testing.T) {
	_, parts := pipeline(t, "What type of digital camera should I buy?")
	lines := render(parts)
	if !contains(lines, "[] buy $x") {
		t.Errorf("lines = %v", lines)
	}
}

func TestXCompVerb(t *testing.T) {
	_, parts := pipeline(t, "Which souvenirs do you want to buy in Buffalo?")
	lines := render(parts)
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "buy") {
		t.Errorf("xcomp action missing: %v", lines)
	}
	if strings.Contains(joined, "want") {
		t.Errorf("matrix verb leaked as predicate: %v", lines)
	}
}

func TestDescriptionsPresent(t *testing.T) {
	_, parts := pipeline(t, "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?")
	for _, p := range parts {
		if p.Description == "" {
			t.Errorf("part has no description: %v", render([]Part{p}))
		}
	}
	// the habit description mentions the temporal modifier (Figure 5:
	// "visit in the fall")
	found := false
	for _, p := range parts {
		if p.Habit && strings.Contains(p.Description, "fall") {
			found = true
		}
	}
	if !found {
		t.Error("habit description does not mention the fall")
	}
}

func TestVariableAlignmentWithGeneralPart(t *testing.T) {
	// The variable in {[] visit $x} must be the same $x as in the WHERE
	// triples (paper §2.6 variable alignment).
	g, err := nlp.Parse("What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?")
	if err != nil {
		t.Fatal(err)
	}
	det := ix.NewDetector()
	ixs, _ := det.Detect(context.Background(), g)
	gen := qgen.New()
	res, _ := gen.Generate(context.Background(), ontology.NewDemoOntology().View(), g, qgen.Options{})
	parts, err := (&Creator{}).Create(context.Background(), g, ixs, res)
	if err != nil {
		t.Fatal(err)
	}
	var habitObj rdf.Term
	for _, p := range parts {
		for _, tr := range p.Triples {
			if tr.P.Local() == "visit" {
				habitObj = tr.O
			}
		}
	}
	if habitObj.Value() != res.TargetVar {
		t.Errorf("visit object = %v, target var = %s", habitObj, res.TargetVar)
	}
}

func TestEmptyIXListYieldsNoParts(t *testing.T) {
	g, err := nlp.Parse("Which parks are in Buffalo?")
	if err != nil {
		t.Fatal(err)
	}
	gen := qgen.New()
	res, _ := gen.Generate(context.Background(), ontology.NewDemoOntology().View(), g, qgen.Options{})
	parts, err := (&Creator{}).Create(context.Background(), g, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 0 {
		t.Errorf("parts = %v", render(parts))
	}
}

func TestTourGuideStaysVariable(t *testing.T) {
	// §4.1: "a tour guide" must remain a variable so the user can choose
	// to receive the guide's name.
	_, parts := pipeline(t, "What are the most interesting places we should visit with a tour guide?")
	lines := render(parts)
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "[] with $") {
			found = true
		}
	}
	if !found {
		t.Errorf("tour guide not a variable: %v", lines)
	}
}

func TestBareNounDowngradedToTerm(t *testing.T) {
	// "for breakfast" (no determiner, not in the ontology) becomes a
	// crowd-facing bare term, not an open variable.
	_, parts := pipeline(t, "What do you eat for breakfast?")
	lines := render(parts)
	if !contains(lines, "[] for breakfast") {
		t.Errorf("lines = %v", lines)
	}
}

func TestIntransitiveHabit(t *testing.T) {
	_, parts := pipeline(t, "How often do you exercise in the winter?")
	lines := render(parts)
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "exercise") {
		t.Errorf("no exercise triple: %v", lines)
	}
	if !strings.Contains(joined, "[] in Winter") {
		t.Errorf("no winter modifier: %v", lines)
	}
}

func TestPredicateNominalOpinion(t *testing.T) {
	// "Is oatmeal a good breakfast for adults?" — the opinion is about
	// oatmeal, labeled with the predicate phrase.
	_, parts := pipeline(t, "Is oatmeal a good breakfast for adults?")
	lines := render(parts)
	if !contains(lines, `Oatmeal hasLabel "good breakfast"`) {
		t.Errorf("lines = %v", lines)
	}
	if !contains(lines, "Oatmeal for Adults") {
		t.Errorf("lines = %v", lines)
	}
}

func TestWhObjectBecomesTarget(t *testing.T) {
	g, err := nlp.Parse("What do you eat for breakfast?")
	if err != nil {
		t.Fatal(err)
	}
	det := ix.NewDetector()
	ixs, _ := det.Detect(context.Background(), g)
	gen := qgen.New()
	res, _ := gen.Generate(context.Background(), ontology.NewDemoOntology().View(), g, qgen.Options{})
	if _, err := (&Creator{}).Create(context.Background(), g, ixs, res); err != nil {
		t.Fatal(err)
	}
	if res.TargetVar == "" {
		t.Error("wh-object did not become the target variable")
	}
}

func TestPostNominalAdjective(t *testing.T) {
	_, parts := pipeline(t, "Which dishes are rich in fiber and tasty in the winter?")
	// At minimum this must not panic and must keep any produced triples
	// well-formed.
	for _, p := range parts {
		if len(p.Triples) == 0 {
			t.Error("empty part produced")
		}
	}
}

func TestCoordinatedObjects(t *testing.T) {
	// "We visit parks and museums": the coordinated object joins the
	// same data pattern.
	_, parts := pipeline(t, "We visit parks and museums in the summer.")
	lines := render(parts)
	joined := strings.Join(lines, "\n")
	visits := strings.Count(joined, " visit ")
	if visits < 2 {
		t.Errorf("conjunct object dropped: %v", lines)
	}
}
