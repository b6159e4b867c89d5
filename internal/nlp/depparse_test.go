package nlp

import (
	"strings"
	"testing"
	"testing/quick"
)

// parseOK parses a sentence and fails the test on error.
func parseOK(t *testing.T, sentence string) *DepGraph {
	t.Helper()
	g, err := Parse(sentence)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sentence, err)
	}
	return g
}

// findTok returns the index of the first token with the given text.
func findTok(t *testing.T, g *DepGraph, text string) int {
	t.Helper()
	for i := range g.Nodes {
		if g.Nodes[i].Text == text {
			return i
		}
	}
	t.Fatalf("token %q not in graph:\n%s", text, g)
	return -1
}

// assertEdge asserts a tree edge dep --rel--> head.
func assertEdge(t *testing.T, g *DepGraph, depText, rel, headText string) {
	t.Helper()
	dep := findTok(t, g, depText)
	n := g.Nodes[dep]
	if n.Head < 0 {
		t.Errorf("%q is root, want head %q via %s\n%s", depText, headText, rel, g)
		return
	}
	if g.Nodes[n.Head].Text != headText || n.Rel != rel {
		t.Errorf("%q attached to %q via %s, want %q via %s\n%s",
			depText, g.Nodes[n.Head].Text, n.Rel, headText, rel, g)
	}
}

func assertRoot(t *testing.T, g *DepGraph, text string) {
	t.Helper()
	r := g.Root()
	if r == -1 || g.Nodes[r].Text != text {
		got := "<none>"
		if r >= 0 {
			got = g.Nodes[r].Text
		}
		t.Errorf("root = %q, want %q\n%s", got, text, g)
	}
}

func TestParseRunningExample(t *testing.T) {
	g := parseOK(t, "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?")
	assertRoot(t, g, "places")
	assertEdge(t, g, "What", RelAttr, "places")
	assertEdge(t, g, "are", RelCop, "places")
	assertEdge(t, g, "the", RelDet, "places")
	assertEdge(t, g, "most", RelAdvMod, "interesting")
	assertEdge(t, g, "interesting", RelAMod, "places")
	assertEdge(t, g, "near", RelPrep, "places")
	assertEdge(t, g, "Hotel", RelPObj, "near")
	assertEdge(t, g, "Forest", RelNN, "Hotel")
	assertEdge(t, g, "Buffalo", RelAppos, "Hotel")
	assertEdge(t, g, "we", RelNSubj, "visit")
	assertEdge(t, g, "should", RelAux, "visit")
	assertEdge(t, g, "visit", RelRCMod, "places")
	assertEdge(t, g, "in", RelPrep, "visit")
	assertEdge(t, g, "fall", RelPObj, "in")
	// The relative clause's object gap is filled by an extra edge.
	visit := findTok(t, g, "visit")
	places := findTok(t, g, "places")
	found := false
	for _, e := range g.Extra {
		if e.Head == visit && e.Dep == places && e.Rel == RelDObj {
			found = true
		}
	}
	if !found {
		t.Errorf("missing extra dobj(visit, places)\n%s", g)
	}
}

func TestParseSubjectWhQuestion(t *testing.T) {
	g := parseOK(t, "Which hotel in Vegas has the best thrill ride?")
	assertRoot(t, g, "has")
	assertEdge(t, g, "hotel", RelNSubj, "has")
	assertEdge(t, g, "Which", RelDet, "hotel")
	assertEdge(t, g, "in", RelPrep, "hotel")
	assertEdge(t, g, "Vegas", RelPObj, "in")
	assertEdge(t, g, "ride", RelDObj, "has")
	assertEdge(t, g, "best", RelAMod, "ride")
	assertEdge(t, g, "thrill", RelNN, "ride")
}

func TestParseFrontedObjectQuestion(t *testing.T) {
	g := parseOK(t, "What type of digital camera should I buy?")
	assertRoot(t, g, "buy")
	assertEdge(t, g, "type", RelDObj, "buy")
	assertEdge(t, g, "What", RelDet, "type")
	assertEdge(t, g, "of", RelPrep, "type")
	assertEdge(t, g, "camera", RelPObj, "of")
	assertEdge(t, g, "digital", RelAMod, "camera")
	assertEdge(t, g, "should", RelAux, "buy")
	assertEdge(t, g, "I", RelNSubj, "buy")
}

func TestParseYesNoCopular(t *testing.T) {
	g := parseOK(t, "Is chocolate milk good for kids?")
	assertRoot(t, g, "good")
	assertEdge(t, g, "Is", RelCop, "good")
	assertEdge(t, g, "milk", RelNSubj, "good")
	assertEdge(t, g, "chocolate", RelNN, "milk")
	assertEdge(t, g, "for", RelPrep, "good")
	assertEdge(t, g, "kids", RelPObj, "for")
}

func TestParseWhAdverbQuestion(t *testing.T) {
	g := parseOK(t, "Where do you visit in Buffalo?")
	assertRoot(t, g, "visit")
	assertEdge(t, g, "Where", RelAdvMod, "visit")
	assertEdge(t, g, "do", RelAux, "visit")
	assertEdge(t, g, "you", RelNSubj, "visit")
	assertEdge(t, g, "in", RelPrep, "visit")
	assertEdge(t, g, "Buffalo", RelPObj, "in")
}

func TestParseModalDeclarative(t *testing.T) {
	g := parseOK(t, "Obama should visit Buffalo.")
	assertRoot(t, g, "visit")
	assertEdge(t, g, "Obama", RelNSubj, "visit")
	assertEdge(t, g, "should", RelAux, "visit")
	assertEdge(t, g, "Buffalo", RelDObj, "visit")
}

func TestParseSimpleDeclarative(t *testing.T) {
	g := parseOK(t, "We visit parks in the fall.")
	assertRoot(t, g, "visit")
	assertEdge(t, g, "We", RelNSubj, "visit")
	assertEdge(t, g, "parks", RelDObj, "visit")
	assertEdge(t, g, "in", RelPrep, "visit")
	assertEdge(t, g, "fall", RelPObj, "in")
}

func TestParseFrontedPP(t *testing.T) {
	g := parseOK(t, "At what container should I store coffee?")
	assertRoot(t, g, "store")
	assertEdge(t, g, "At", RelPrep, "store")
	assertEdge(t, g, "container", RelPObj, "At")
	assertEdge(t, g, "coffee", RelDObj, "store")
}

func TestParseInfinitivalModifier(t *testing.T) {
	g := parseOK(t, "What are the best places to visit in Buffalo?")
	assertRoot(t, g, "places")
	assertEdge(t, g, "visit", RelInfMod, "places")
	assertEdge(t, g, "to", RelAux, "visit")
	assertEdge(t, g, "in", RelPrep, "visit")
	// gap object via extra edge
	visit := findTok(t, g, "visit")
	places := findTok(t, g, "places")
	ok := false
	for _, e := range g.Extra {
		if e.Head == visit && e.Dep == places && e.Rel == RelDObj {
			ok = true
		}
	}
	if !ok {
		t.Errorf("missing extra dobj(visit, places)\n%s", g)
	}
}

func TestParseSubjectRelativeClause(t *testing.T) {
	g := parseOK(t, "Which hotel that has a pool is cheap?")
	assertEdge(t, g, "has", RelRCMod, "hotel")
	assertEdge(t, g, "that", RelRel, "has")
	assertEdge(t, g, "pool", RelDObj, "has")
	// extra nsubj from the relative verb to the modified noun
	has := findTok(t, g, "has")
	hotel := findTok(t, g, "hotel")
	ok := false
	for _, e := range g.Extra {
		if e.Head == has && e.Dep == hotel && e.Rel == RelNSubj {
			ok = true
		}
	}
	if !ok {
		t.Errorf("missing extra nsubj(has, hotel)\n%s", g)
	}
}

func TestParseObjectRelativeClause(t *testing.T) {
	g := parseOK(t, "What is a dish that people cook in the winter?")
	assertEdge(t, g, "cook", RelRCMod, "dish")
	assertEdge(t, g, "people", RelNSubj, "cook")
	cook := findTok(t, g, "cook")
	dish := findTok(t, g, "dish")
	ok := false
	for _, e := range g.Extra {
		if e.Head == cook && e.Dep == dish && e.Rel == RelDObj {
			ok = true
		}
	}
	if !ok {
		t.Errorf("missing extra dobj(cook, dish)\n%s", g)
	}
}

func TestParseConjunction(t *testing.T) {
	g := parseOK(t, "We visit parks and museums.")
	assertEdge(t, g, "and", RelCC, "parks")
	assertEdge(t, g, "museums", RelConj, "parks")
}

func TestParseNegation(t *testing.T) {
	g := parseOK(t, "We don't visit museums.")
	assertRoot(t, g, "visit")
	assertEdge(t, g, "do", RelAux, "visit")
	assertEdge(t, g, "n't", RelNeg, "visit")
	assertEdge(t, g, "museums", RelDObj, "visit")
}

func TestParseExistential(t *testing.T) {
	g := parseOK(t, "Are there good restaurants near the hotel?")
	assertRoot(t, g, "Are")
	assertEdge(t, g, "there", RelExpl, "Are")
	assertEdge(t, g, "restaurants", RelNSubj, "Are")
	assertEdge(t, g, "good", RelAMod, "restaurants")
	assertEdge(t, g, "near", RelPrep, "restaurants")
}

func TestParsePossessive(t *testing.T) {
	g := parseOK(t, "My friend's house is big.")
	assertEdge(t, g, "friend", RelPoss, "house")
	assertEdge(t, g, "'s", "possessive", "friend")
	assertEdge(t, g, "My", RelPoss, "friend")
}

func TestParseProgressiveAux(t *testing.T) {
	g := parseOK(t, "Are you visiting Buffalo?")
	assertRoot(t, g, "visiting")
	assertEdge(t, g, "Are", RelAux, "visiting")
	assertEdge(t, g, "you", RelNSubj, "visiting")
	assertEdge(t, g, "Buffalo", RelDObj, "visiting")
}

func TestParseXComp(t *testing.T) {
	g := parseOK(t, "I want to buy a camera.")
	assertRoot(t, g, "want")
	assertEdge(t, g, "buy", RelXComp, "want")
	assertEdge(t, g, "to", RelAux, "buy")
	assertEdge(t, g, "camera", RelDObj, "buy")
}

func TestParseNounFragment(t *testing.T) {
	g := parseOK(t, "Best pizza in town?")
	assertRoot(t, g, "pizza")
	assertEdge(t, g, "Best", RelAMod, "pizza")
	assertEdge(t, g, "in", RelPrep, "pizza")
}

func TestParseEmptyInputFails(t *testing.T) {
	if _, err := ParseDependencies(nil); err == nil {
		t.Fatal("ParseDependencies(nil) succeeded, want error")
	}
}

func TestSubtreeAndPhrase(t *testing.T) {
	g := parseOK(t, "What are the most interesting places near Forest Hotel?")
	places := findTok(t, g, "places")
	phrase := g.SubtreePhrase(places)
	// The subtree of the root covers the whole sentence.
	if !strings.Contains(phrase, "interesting") || !strings.Contains(phrase, "Hotel") {
		t.Errorf("SubtreePhrase(places) = %q", phrase)
	}
	near := findTok(t, g, "near")
	pp := g.SubtreePhrase(near)
	if pp != "near Forest Hotel" {
		t.Errorf("SubtreePhrase(near) = %q, want %q", pp, "near Forest Hotel")
	}
}

func TestDependentsFiltering(t *testing.T) {
	g := parseOK(t, "We visit parks in the fall.")
	visit := findTok(t, g, "visit")
	if got := g.Dependents(visit, RelNSubj); len(got) != 1 || g.Nodes[got[0]].Text != "We" {
		t.Errorf("Dependents(visit, nsubj) wrong: %v", got)
	}
	all := g.Dependents(visit)
	if len(all) < 3 {
		t.Errorf("Dependents(visit) = %d deps, want >= 3", len(all))
	}
	if g.FirstDependent(visit, RelDObj) == -1 {
		t.Error("FirstDependent(visit, dobj) = -1")
	}
	if g.FirstDependent(visit, RelIObj) != -1 {
		t.Error("FirstDependent(visit, iobj) != -1")
	}
}

func TestValidateDetectsBadGraphs(t *testing.T) {
	// Two roots.
	g := &DepGraph{Nodes: []Node{
		{Token: Token{Text: "a"}, Head: -1, Rel: RelRoot},
		{Token: Token{Text: "b"}, Head: -1, Rel: RelRoot},
	}}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted two roots")
	}
	// Self-loop.
	g = &DepGraph{Nodes: []Node{{Token: Token{Text: "a"}, Head: 0, Rel: RelDep}}}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted self-loop")
	}
	// Out-of-range head.
	g = &DepGraph{Nodes: []Node{
		{Token: Token{Text: "a"}, Head: -1, Rel: RelRoot},
		{Token: Token{Text: "b"}, Head: 7, Rel: RelDep},
	}}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted out-of-range head")
	}
}

// Property: parsing any corpus-like sentence yields a valid graph whose
// edges reference in-range nodes and which has exactly one root.
func TestParseAlwaysValid(t *testing.T) {
	vocab := []string{
		"what", "which", "where", "should", "we", "you", "the", "a",
		"interesting", "good", "places", "hotel", "visit", "eat", "in",
		"near", "Buffalo", "fall", "and", "not", "to", "kids", "?", ",",
	}
	f := func(picks []uint8) bool {
		if len(picks) == 0 {
			return true
		}
		if len(picks) > 16 {
			picks = picks[:16]
		}
		var words []string
		for _, p := range picks {
			words = append(words, vocab[int(p)%len(vocab)])
		}
		g, err := Parse(strings.Join(words, " "))
		if err != nil {
			// Only empty input may fail.
			return strings.TrimSpace(strings.Join(words, " ")) == ""
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 300}
}

func TestParsePassive(t *testing.T) {
	g := parseOK(t, "Which dishes are cooked in the winter?")
	assertRoot(t, g, "cooked")
	assertEdge(t, g, "are", RelAuxPass, "cooked")
	assertEdge(t, g, "dishes", RelNSubj, "cooked")
	assertEdge(t, g, "in", RelPrep, "cooked")
}

func TestParseImperative(t *testing.T) {
	g := parseOK(t, "Recommend a good restaurant near the hotel.")
	assertRoot(t, g, "Recommend")
	assertEdge(t, g, "restaurant", RelDObj, "Recommend")
	assertEdge(t, g, "good", RelAMod, "restaurant")
	assertEdge(t, g, "near", RelPrep, "restaurant")
}

func TestParseWhSubject(t *testing.T) {
	g := parseOK(t, "Who serves the best pizza in Buffalo?")
	assertRoot(t, g, "serves")
	assertEdge(t, g, "Who", RelNSubj, "serves")
	assertEdge(t, g, "pizza", RelDObj, "serves")
	assertEdge(t, g, "best", RelAMod, "pizza")
}

func TestParseCanQuestion(t *testing.T) {
	g := parseOK(t, "Can you suggest a good hotel near the airport?")
	assertRoot(t, g, "suggest")
	assertEdge(t, g, "Can", RelAux, "suggest")
	assertEdge(t, g, "you", RelNSubj, "suggest")
	assertEdge(t, g, "hotel", RelDObj, "suggest")
}

func TestParseDeclarativeCopula(t *testing.T) {
	g := parseOK(t, "Smoothies are a popular breakfast in California.")
	assertRoot(t, g, "breakfast")
	assertEdge(t, g, "are", RelCop, "breakfast")
	assertEdge(t, g, "Smoothies", RelNSubj, "breakfast")
	assertEdge(t, g, "popular", RelAMod, "breakfast")
}

func TestParseComparativeThan(t *testing.T) {
	g := parseOK(t, "Is green tea better than coffee?")
	assertRoot(t, g, "better")
	assertEdge(t, g, "Is", RelCop, "better")
	assertEdge(t, g, "tea", RelNSubj, "better")
	assertEdge(t, g, "than", RelPrep, "better")
	assertEdge(t, g, "coffee", RelPObj, "than")
}
