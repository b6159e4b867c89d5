package ix

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"nl2cm/internal/nlp"
)

func parse(t *testing.T, sentence string) *nlp.DepGraph {
	t.Helper()
	g, err := nlp.Parse(sentence)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sentence, err)
	}
	return g
}

func detect(t *testing.T, sentence string) (*nlp.DepGraph, []*IX) {
	t.Helper()
	g := parse(t, sentence)
	d := NewDetector()
	ixs, err := d.Detect(context.Background(), g)
	if err != nil {
		t.Fatalf("Detect(%q): %v", sentence, err)
	}
	return g, ixs
}

// findIX returns the IX anchored at the token with the given text.
func findIX(t *testing.T, g *nlp.DepGraph, ixs []*IX, anchorText string) *IX {
	t.Helper()
	for _, x := range ixs {
		if g.Nodes[x.Anchor].Text == anchorText {
			return x
		}
	}
	var anchors []string
	for _, x := range ixs {
		anchors = append(anchors, g.Nodes[x.Anchor].Text)
	}
	t.Fatalf("no IX anchored at %q; anchors = %v", anchorText, anchors)
	return nil
}

func TestVocabularyBasics(t *testing.T) {
	v := NewVocabulary("V_test", "Alpha", " beta ", "")
	if !v.Contains("alpha") || !v.Contains("BETA") {
		t.Error("Contains is not case-insensitive")
	}
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2", v.Len())
	}
	v.Remove("alpha")
	if v.Contains("alpha") || v.Len() != 1 {
		t.Error("Remove failed")
	}
	words := v.Words()
	if len(words) != 1 || words[0] != "beta" {
		t.Errorf("Words = %v", words)
	}
}

func TestLoadVocabulary(t *testing.T) {
	src := "# comment\nword1\n\n  word2  \n#another\nWord3\n"
	v, err := LoadVocabulary("V_file", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 3 || !v.Contains("word3") {
		t.Errorf("loaded %v", v.Words())
	}
}

func TestDefaultVocabulariesPresent(t *testing.T) {
	vs := DefaultVocabularies()
	for _, name := range []string{VocabSentiment, VocabParticipant, VocabModal, VocabOpinionVerbs, VocabHabitVerbs} {
		v, ok := vs.Get(name)
		if !ok || v.Len() == 0 {
			t.Errorf("vocabulary %s missing or empty", name)
		}
	}
	s, _ := vs.Get(VocabSentiment)
	for _, w := range []string{"interesting", "good", "best", "terrible"} {
		if !s.Contains(w) {
			t.Errorf("sentiment vocabulary missing %q", w)
		}
	}
	p, _ := vs.Get(VocabParticipant)
	for _, w := range []string{"we", "you", "i", "people"} {
		if !p.Contains(w) {
			t.Errorf("participant vocabulary missing %q", w)
		}
	}
}

func TestParsePaperExamplePattern(t *testing.T) {
	// The exact pattern from paper §2.3.
	ps, err := ParsePatterns(`PATTERN p TYPE participant ANCHOR $x
{$x subject $y
filter(POS($x) = "verb" && $y in V_participant)}`)
	if err != nil {
		t.Fatalf("ParsePatterns: %v", err)
	}
	p := ps[0]
	if p.Type != TypeParticipant || p.Anchor != "x" || p.Uncertain {
		t.Errorf("pattern = %+v", p)
	}
	if len(p.Triples) != 1 || p.Triples[0].P.Value() != "nsubj" {
		t.Errorf("relation alias not resolved: %v", p.Triples)
	}
	if len(p.Filters) != 1 {
		t.Errorf("filters = %v", p.Filters)
	}
}

func TestParsePatternsErrors(t *testing.T) {
	bad := []string{
		``,
		`PATTERN p TYPE bogus ANCHOR $x {$x subject $y}`,
		`PATTERN p TYPE lexical {$x subject $y}`,           // no anchor
		`PATTERN p TYPE lexical ANCHOR $z {$x subject $y}`, // anchor unused
		`PATTERN p TYPE lexical ANCHOR $x {}`,              // empty
		`TYPE lexical ANCHOR $x {$x subject $y}`,           // missing keyword
		`PATTERN p TYPE lexical ANCHOR $x {$x subject $y`,  // unterminated
		// Typos that used to parse and then match nothing.
		`PATTERN p TYPE lexical ANCHOR $x {$x subject $y FILTER(PSO($x) = "verb")}`,
		`PATTERN p TYPE lexical ANCHOR $x {$x subject $y FILTER(POS($x, $y) = "verb")}`,
		`PATTERN p TYPE lexical ANCHOR $x {$x subject $y FILTER(POS($z) = "verb")}`,
	}
	// More variables than the matcher's 64 slots.
	var many strings.Builder
	many.WriteString(`PATTERN p TYPE lexical ANCHOR $v0 {`)
	for i := 0; i < 33; i++ {
		fmt.Fprintf(&many, "$v%d subject $v%d . ", 2*i, 2*i+1)
	}
	bad = append(bad, many.String()+"}")
	for _, in := range bad {
		if _, err := ParsePatterns(in); err == nil {
			t.Errorf("ParsePatterns(%q) succeeded, want error", in)
		}
	}
}

func TestDefaultPatternsParse(t *testing.T) {
	ps := DefaultPatterns()
	if len(ps) < 6 {
		t.Fatalf("only %d default patterns", len(ps))
	}
	types := map[string]bool{}
	for _, p := range ps {
		types[p.Type] = true
	}
	for _, want := range []string{TypeLexical, TypeParticipant, TypeSyntactic} {
		if !types[want] {
			t.Errorf("no default pattern of type %s", want)
		}
	}
}

func TestPatternStringRoundTrip(t *testing.T) {
	for _, p := range DefaultPatterns() {
		rendered := p.String()
		ps, err := ParsePatterns(rendered)
		if err != nil {
			t.Fatalf("reparse of %s:\n%s\n%v", p.Name, rendered, err)
		}
		if ps[0].String() != rendered {
			t.Errorf("round trip mismatch for %s:\n%s\nvs\n%s", p.Name, rendered, ps[0].String())
		}
	}
}

func TestDetectRunningExample(t *testing.T) {
	g, ixs := detect(t, "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?")
	if len(ixs) != 2 {
		var texts []string
		for _, x := range ixs {
			texts = append(texts, x.Text(g))
		}
		t.Fatalf("detected %d IXs, want 2: %v", len(ixs), texts)
	}
	// Lexical IX: "interesting" (with "most" and the modified noun).
	lex := findIX(t, g, ixs, "interesting")
	if !lex.HasType(TypeLexical) {
		t.Errorf("interesting IX types = %v", lex.Types)
	}
	if !lex.Uncertain {
		t.Error("lexical IX should be uncertain (verification dialogue)")
	}
	if !strings.Contains(lex.Text(g), "most interesting places") {
		t.Errorf("lexical IX text = %q", lex.Text(g))
	}
	// Habit IX: "we should visit ... in the fall" — both participant
	// (subject "we") and syntactic (modal "should") individuality.
	visit := findIX(t, g, ixs, "visit")
	if !visit.HasType(TypeParticipant) || !visit.HasType(TypeSyntactic) {
		t.Errorf("visit IX types = %v, want participant+syntactic", visit.Types)
	}
	text := visit.Text(g)
	for _, want := range []string{"we", "should", "visit", "in", "fall", "places"} {
		if !strings.Contains(text, want) {
			t.Errorf("visit IX text %q missing %q", text, want)
		}
	}
	// The IX must NOT contain the general part "near Forest Hotel".
	if strings.Contains(text, "Hotel") || strings.Contains(text, "near") {
		t.Errorf("visit IX leaked general content: %q", text)
	}
}

func TestDetectParticipantSubject(t *testing.T) {
	g, ixs := detect(t, "Where do you visit in Buffalo?")
	x := findIX(t, g, ixs, "visit")
	if !x.HasType(TypeParticipant) {
		t.Errorf("types = %v", x.Types)
	}
	if !strings.Contains(x.Text(g), "you visit in Buffalo") {
		t.Errorf("text = %q", x.Text(g))
	}
}

func TestDetectSyntacticModalOnly(t *testing.T) {
	// "Obama" is not an individual participant; only the modal fires.
	g, ixs := detect(t, "Obama should visit Buffalo.")
	x := findIX(t, g, ixs, "visit")
	if !x.HasType(TypeSyntactic) {
		t.Errorf("types = %v", x.Types)
	}
	if x.HasType(TypeParticipant) {
		t.Error("Obama wrongly detected as individual participant")
	}
}

func TestDetectLexicalPredicate(t *testing.T) {
	g, ixs := detect(t, "Is chocolate milk good for kids?")
	x := findIX(t, g, ixs, "good")
	if !x.HasType(TypeLexical) {
		t.Errorf("types = %v", x.Types)
	}
	if !strings.Contains(x.Text(g), "milk good") {
		t.Errorf("text = %q", x.Text(g))
	}
}

func TestDetectOpinionVerb(t *testing.T) {
	g, ixs := detect(t, "Which camera do you recommend?")
	x := findIX(t, g, ixs, "recommend")
	if !x.HasType(TypeLexical) && !x.HasType(TypeParticipant) {
		t.Errorf("types = %v", x.Types)
	}
}

func TestDetectPossessiveParticipant(t *testing.T) {
	g, ixs := detect(t, "Which snacks do my kids eat?")
	x := findIX(t, g, ixs, "eat")
	if !x.HasType(TypeParticipant) {
		t.Errorf("types = %v", x.Types)
	}
}

func TestNoIXInPureGeneralQuestion(t *testing.T) {
	// A purely general question: no opinions, participants or modals.
	_, ixs := detect(t, "Which parks are in Buffalo?")
	for _, x := range ixs {
		t.Errorf("unexpected IX: %v (types %v)", x.Nodes, x.Types)
	}
}

func TestDetectSuperlativeOpinion(t *testing.T) {
	g, ixs := detect(t, "Which hotel in Vegas has the best thrill ride?")
	x := findIX(t, g, ixs, "best")
	if !x.HasType(TypeLexical) {
		t.Errorf("types = %v", x.Types)
	}
	if !strings.Contains(x.Text(g), "ride") {
		t.Errorf("completed IX %q misses the modified noun", x.Text(g))
	}
}

func TestIXMergesAcrossPatterns(t *testing.T) {
	// "we should visit": participant_subject and syntactic_modal share
	// the anchor "visit" and must merge into one IX.
	g, ixs := detect(t, "We should visit museums.")
	if len(ixs) != 1 {
		t.Fatalf("got %d IXs, want 1 merged", len(ixs))
	}
	x := findIX(t, g, ixs, "visit")
	if len(x.Types) != 2 {
		t.Errorf("types = %v, want 2", x.Types)
	}
	if len(x.Patterns) < 2 {
		t.Errorf("patterns = %d, want >= 2", len(x.Patterns))
	}
}

func TestIXSpanAndContains(t *testing.T) {
	g, ixs := detect(t, "We should visit museums.")
	x := findIX(t, g, ixs, "visit")
	start, end := x.Span()
	if start > x.Anchor || end < x.Anchor {
		t.Errorf("span [%d,%d] excludes anchor %d", start, end, x.Anchor)
	}
	if !x.Contains(x.Anchor) {
		t.Error("Contains(anchor) = false")
	}
	if x.Contains(999) {
		t.Error("Contains(999) = true")
	}
}

func TestCustomPatternAndVocabulary(t *testing.T) {
	// Administrators can add patterns and vocabularies (paper: "allows a
	// system administrator to easily manage, change or add the
	// predefined set of patterns").
	d := NewDetector()
	ps, err := ParsePatterns(`PATTERN future_wish TYPE syntactic ANCHOR $v
{$v auxiliary $m
FILTER(WORD($m) IN V_wish)}`)
	if err != nil {
		t.Fatal(err)
	}
	d.Patterns = append(d.Patterns, ps...)
	d.Vocabs.Register(NewVocabulary("V_wish", "wanna"))
	g := parse(t, "Trips I wanna take.")
	_, err = d.Detect(context.Background(), g)
	if err != nil {
		t.Fatalf("Detect with custom pattern: %v", err)
	}
}

func TestCoarsePOS(t *testing.T) {
	cases := []struct{ tag, want string }{
		{"VB", "verb"}, {"VBZ", "verb"}, {"NN", "noun"}, {"NNPS", "noun"},
		{"JJ", "adjective"}, {"RB", "adverb"}, {"PRP", "pronoun"},
		{"MD", "modal"}, {"WP", "wh"}, {"DT", "determiner"},
		{"IN", "preposition"}, {"TO", "preposition"}, {"CD", "number"},
		{"CC", "conjunction"}, {".", "other"},
	}
	for _, c := range cases {
		if got := coarsePOS(c.tag); got != c.want {
			t.Errorf("coarsePOS(%s) = %s, want %s", c.tag, got, c.want)
		}
	}
}
