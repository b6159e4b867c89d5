package compose

import (
	"context"
	"strings"
	"testing"

	"nl2cm/internal/individual"
	"nl2cm/internal/ix"
	"nl2cm/internal/nlp"
	"nl2cm/internal/prov"
	"nl2cm/internal/qgen"
	"nl2cm/internal/rdf"
)

// findTok returns the index of the first token with the given lower-case
// form, failing the test when absent.
func findTok(t *testing.T, g *nlp.DepGraph, lower string) int {
	t.Helper()
	for i := range g.Nodes {
		if g.Nodes[i].Lower == lower {
			return i
		}
	}
	t.Fatalf("token %q not found in %q", lower, g.Source)
	return -1
}

// mustParse parses the sentence, failing the test on error.
func mustParse(t *testing.T, sentence string) *nlp.DepGraph {
	t.Helper()
	g, err := nlp.Parse(sentence)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sentence, err)
	}
	return g
}

func decisionFor(t *testing.T, out *Output, rendered string) Decision {
	t.Helper()
	for _, d := range out.Decisions {
		if d.Rendered == rendered {
			return d
		}
	}
	t.Fatalf("no decision for triple %q; have %+v", rendered, out.Decisions)
	return Decision{}
}

// Two IXs sharing one verb through a conjunction ("visit and eat"): a
// general triple derived from the shared verb must be dropped, and the
// decision must cite the exact token intersection with the first
// overlapping IX.
func TestOverlapConjunctionSharedVerb(t *testing.T) {
	g := mustParse(t, "Should we visit and eat the cake?")
	visit, eat, cake := findTok(t, g, "visit"), findTok(t, g, "eat"), findTok(t, g, "cake")
	if pos := g.Nodes[visit].POS; !strings.HasPrefix(pos, "VB") {
		t.Fatalf("precondition: %q tagged %s, want VB*", "visit", pos)
	}
	if pos := g.Nodes[eat].POS; !strings.HasPrefix(pos, "VB") {
		t.Fatalf("precondition: %q tagged %s, want VB*", "eat", pos)
	}
	// Both IXs include the shared conjunction verbs in their completed
	// node sets.
	ix1 := &ix.IX{Anchor: visit, Nodes: []int{visit, eat, cake}}
	ix2 := &ix.IX{Anchor: eat, Nodes: []int{visit, eat}}
	vCake := rdf.NewVar("x")
	gen := &qgen.Result{
		TargetVar: "x",
		NodeTerms: map[int]rdf.Term{cake: vCake},
		Triples: []qgen.Triple{
			{Triple: rdf.T(vCake, rdf.NewIRI("instanceOf"), rdf.NewIRI("Cake")), Origin: []int{cake}},
			{Triple: rdf.T(vCake, rdf.NewIRI("visitedBy"), rdf.NewIRI("People")), Origin: []int{visit, cake}},
			{Triple: rdf.T(vCake, rdf.NewIRI("eatenBy"), rdf.NewIRI("People")), Origin: []int{eat}},
		},
	}
	parts := []individual.Part{{
		IX:      ix1,
		Triples: []rdf.Triple{rdf.T(rdf.NewVar("_anon1"), rdf.NewIRI("visit"), vCake)},
		Origins: []prov.TokenSet{prov.NewTokenSet(visit, cake)},
	}}
	out, err := New().Compose(context.Background(), Input{Graph: g, IXs: []*ix.IX{ix1, ix2}, General: gen, Parts: parts})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(out.Query.Where.Triples); n != 1 {
		t.Fatalf("WHERE kept %d triples, want 1 (only the noun typing):\n%s", n, out.Query)
	}
	d := decisionFor(t, out, "$x visitedBy People")
	if d.Kept || d.Reason != ReasonIXOverlap {
		t.Errorf("visitedBy decision = %+v, want ix-overlap drop", d)
	}
	if d.IXAnchor != visit {
		t.Errorf("visitedBy overlap attributed to anchor %d, want first IX anchor %d", d.IXAnchor, visit)
	}
	if want := prov.NewTokenSet(visit); !equalSets(d.Overlap, want) {
		t.Errorf("visitedBy overlap = %v, want exactly %v (the verb, not the noun)", d.Overlap, want)
	}
	// The triple from the second conjunct verb is dropped too — the
	// first IX's completed set already contains "eat".
	d = decisionFor(t, out, "$x eatenBy People")
	if d.Kept {
		t.Errorf("eatenBy survived despite conjunction-shared verb: %+v", d)
	}
	d = decisionFor(t, out, "$x instanceOf Cake")
	if !d.Kept || d.Reason != ReasonNoOverlap {
		t.Errorf("noun-typing decision = %+v, want kept with no-ix-overlap", d)
	}
}

// An IX nested inside a relative clause ("hotels that locals recommend"):
// triples about the outer noun stay, the triple derived from the
// clause's verb goes, even though both share the noun token.
func TestOverlapIXInsideRelativeClause(t *testing.T) {
	g := mustParse(t, "Which hotels that locals recommend are near the park?")
	hotels, locals, recommend, park := findTok(t, g, "hotels"), findTok(t, g, "locals"), findTok(t, g, "recommend"), findTok(t, g, "park")
	if pos := g.Nodes[recommend].POS; !strings.HasPrefix(pos, "VB") {
		t.Fatalf("precondition: %q tagged %s, want VB*", "recommend", pos)
	}
	x := &ix.IX{Anchor: recommend, Nodes: []int{hotels, locals, recommend}}
	vH, vP := rdf.NewVar("h"), rdf.NewVar("p")
	gen := &qgen.Result{
		TargetVar: "h",
		NodeTerms: map[int]rdf.Term{hotels: vH, park: vP},
		Triples: []qgen.Triple{
			{Triple: rdf.T(vH, rdf.NewIRI("instanceOf"), rdf.NewIRI("Hotel")), Origin: []int{hotels}},
			{Triple: rdf.T(vH, rdf.NewIRI("near"), vP), Origin: []int{hotels, park}},
			// FREyA wrongly grounded the relative clause's verb.
			{Triple: rdf.T(vH, rdf.NewIRI("recommendedBy"), rdf.NewIRI("Local")), Origin: []int{hotels, locals, recommend}},
		},
	}
	parts := []individual.Part{{
		IX:      x,
		Triples: []rdf.Triple{rdf.T(rdf.NewVar("_anon1"), rdf.NewIRI("recommend"), vH)},
		Origins: []prov.TokenSet{prov.NewTokenSet(recommend, hotels)},
	}}
	out, err := New().Compose(context.Background(), Input{Graph: g, IXs: []*ix.IX{x}, General: gen, Parts: parts})
	if err != nil {
		t.Fatal(err)
	}
	d := decisionFor(t, out, "$h recommendedBy Local")
	if d.Kept || d.Reason != ReasonIXOverlap {
		t.Fatalf("relative-clause triple not dropped: %+v", d)
	}
	// "locals" is a noun inside the IX: only non-noun tokens may appear
	// in the recorded overlap.
	for _, id := range d.Overlap {
		if pos := g.Nodes[id].POS; strings.HasPrefix(pos, "NN") {
			t.Errorf("overlap contains noun token %d (%q)", id, g.Nodes[id].Text)
		}
	}
	if !decisionFor(t, out, "$h instanceOf Hotel").Kept || !decisionFor(t, out, "$h near $p").Kept {
		t.Errorf("outer-noun triples dropped:\n%+v", out.Decisions)
	}
}

// A general triple partially overlapping an IX span: origin tokens both
// inside and outside the IX. One non-noun shared token suffices to drop
// it, and the recorded overlap is exactly the intersection.
func TestOverlapPartialSpan(t *testing.T) {
	g := mustParse(t, "What places should we visit in the fall near Buffalo?")
	places, visit, in_, fall, near, buffalo := findTok(t, g, "places"), findTok(t, g, "visit"),
		findTok(t, g, "in"), findTok(t, g, "fall"), findTok(t, g, "near"), findTok(t, g, "buffalo")
	x := &ix.IX{Anchor: visit, Nodes: []int{places, visit, in_, fall}}
	vX, vB := rdf.NewVar("x"), rdf.NewVar("b")
	gen := &qgen.Result{
		TargetVar: "x",
		NodeTerms: map[int]rdf.Term{places: vX, buffalo: vB},
		Triples: []qgen.Triple{
			// Partial overlap: "in" is inside the IX (non-noun), "near"
			// and "Buffalo" are outside.
			{Triple: rdf.T(vX, rdf.NewIRI("openIn"), rdf.NewIRI("Fall")), Origin: []int{in_, fall, near}},
			// Noun-only overlap: "fall" (noun) inside the IX, rest outside.
			{Triple: rdf.T(vX, rdf.NewIRI("near"), vB), Origin: []int{fall, near, buffalo}},
			{Triple: rdf.T(vX, rdf.NewIRI("instanceOf"), rdf.NewIRI("Place")), Origin: []int{places}},
		},
	}
	parts := []individual.Part{{
		IX:      x,
		Triples: []rdf.Triple{rdf.T(rdf.NewVar("_anon1"), rdf.NewIRI("visit"), vX)},
		Origins: []prov.TokenSet{prov.NewTokenSet(visit, places)},
	}}
	out, err := New().Compose(context.Background(), Input{Graph: g, IXs: []*ix.IX{x}, General: gen, Parts: parts})
	if err != nil {
		t.Fatal(err)
	}
	d := decisionFor(t, out, "$x openIn Fall")
	if d.Kept {
		t.Fatalf("partially overlapping triple survived: %+v", d)
	}
	if want := prov.NewTokenSet(in_); !equalSets(d.Overlap, want) {
		t.Errorf("overlap = %v, want exactly the shared non-noun token %v", d.Overlap, want)
	}
	if d := decisionFor(t, out, "$x near $b"); !d.Kept {
		t.Errorf("noun-only partial overlap dropped the triple: %+v", d)
	}
	if d := decisionFor(t, out, "$x instanceOf Place"); !d.Kept {
		t.Errorf("disjoint triple dropped: %+v", d)
	}
}

// The exact-intersection rule must agree with the legacy blocked-token
// heuristic it replaced, across the full pipeline on real sentences.
func TestOverlapMatchesLegacyHeuristic(t *testing.T) {
	for _, sentence := range []string{
		runningExample,
		"Is chocolate milk good for kids?",
		"Which hotel in Vegas has the best thrill ride?",
		"Where do you visit in Buffalo?",
		"What type of digital camera should I buy?",
	} {
		in := build(t, sentence)
		out, err := New().Compose(context.Background(), in)
		if err != nil {
			t.Fatalf("%q: %v", sentence, err)
		}
		// Recompute the legacy heuristic: block every IX anchor and
		// every non-noun IX node, drop triples touching a blocked token.
		blocked := map[int]bool{}
		for _, x := range in.IXs {
			blocked[x.Anchor] = true
			for _, n := range x.Nodes {
				if !strings.HasPrefix(in.Graph.Nodes[n].POS, "NN") {
					blocked[n] = true
				}
			}
		}
		for i, tr := range in.General.Triples {
			legacyDrop := false
			for _, n := range tr.Origin {
				if blocked[n] {
					legacyDrop = true
					break
				}
			}
			d := out.Decisions[i]
			exactDrop := !d.Kept && d.Reason == ReasonIXOverlap
			if legacyDrop != exactDrop {
				t.Errorf("%q: triple %q legacy drop=%v, exact drop=%v", sentence, d.Rendered, legacyDrop, exactDrop)
			}
		}
	}
}

func equalSets(a, b prov.TokenSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
