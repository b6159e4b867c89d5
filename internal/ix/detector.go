package ix

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"nl2cm/internal/nlp"
)

// Match is one detection-pattern match: a binding of pattern variables to
// graph nodes.
type Match struct {
	Pattern *Pattern
	// Anchor is the graph node bound to the pattern's anchor variable.
	Anchor int
	// Nodes are all graph nodes bound by the match, sorted ascending.
	Nodes []int
}

// IX is a completed Individual eXpression: a connected subgraph of the
// dependency graph that must be translated into individual (SATISFYING)
// query parts rather than general (WHERE) parts.
type IX struct {
	// Anchor is the head node of the expression (verb or opinion word).
	Anchor int
	// Nodes are the token indices of the completed semantic unit,
	// sorted ascending.
	Nodes []int
	// Types are the individuality types that fired, sorted
	// (lexical/participant/syntactic); an IX can exhibit several.
	Types []string
	// Patterns are the detection patterns that contributed.
	Patterns []*Pattern
	// Uncertain is true when any contributing pattern is uncertain, in
	// which case the user is asked to verify the IX (Figure 4).
	Uncertain bool
}

// HasType reports whether the IX exhibits the individuality type.
func (x *IX) HasType(t string) bool {
	for _, ty := range x.Types {
		if ty == t {
			return true
		}
	}
	return false
}

// Contains reports whether the token index is part of the IX.
func (x *IX) Contains(node int) bool {
	for _, n := range x.Nodes {
		if n == node {
			return true
		}
	}
	return false
}

// Span returns the token range [start, end] covered by the IX, for UI
// highlighting.
func (x *IX) Span() (start, end int) {
	if len(x.Nodes) == 0 {
		return x.Anchor, x.Anchor
	}
	return x.Nodes[0], x.Nodes[len(x.Nodes)-1]
}

// Text renders the IX's surface form over its graph.
func (x *IX) Text(g *nlp.DepGraph) string {
	parts := make([]string, 0, len(x.Nodes))
	for _, n := range x.Nodes {
		parts = append(parts, g.Nodes[n].Text)
	}
	return strings.Join(parts, " ")
}

// Detector is the IX Detector of the paper's architecture: the IXFinder
// (pattern matching) plus the IXCreator (subgraph completion).
//
// A Detector is safe for concurrent use once built: Detect only reads
// Patterns and Vocabs. Administrator reconfiguration (swapping pattern or
// vocabulary sets) must not race with in-flight detections.
type Detector struct {
	Patterns []*Pattern
	Vocabs   *Vocabularies
	// Stats, when non-nil, records every Find's pattern matches for the
	// administrator page. MatchStats is internally synchronized.
	Stats *MatchStats
}

// NewDetector returns a detector with the default pattern set and
// vocabularies.
func NewDetector() *Detector {
	return &Detector{Patterns: DefaultPatterns(), Vocabs: DefaultVocabularies()}
}

// Find runs the IXFinder: every detection pattern is matched against the
// dependency graph, yielding partial IXs (paper: "uses vocabularies and a
// set of predefined patterns in order to find IXs within the dependency
// graph"). Each pattern yields at most one match per anchor, from the
// first row that binds it; the matches come out ordered by anchor, and
// by pattern order within one anchor.
func (d *Detector) Find(ctx context.Context, g *nlp.DepGraph) ([]Match, error) {
	f := newFrame(g, d.Vocabs, len(d.Patterns))
	for _, p := range d.Patterns {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if p.m == nil {
			return nil, fmt.Errorf("ix: pattern %s was not built by ParsePatterns", p.Name)
		}
		p.m.run(f, p)
	}
	slices.SortStableFunc(f.out, func(a, b Match) int { return cmp.Compare(a.Anchor, b.Anchor) })
	d.Stats.Record(g, f.out)
	return f.out, nil
}

// Create runs the IXCreator: matches sharing an anchor merge into one IX,
// whose subgraph is completed with the remaining parts of the same
// semantic unit (paper: "if some verb is found to have an individual
// subject, this component further retrieves other parts belonging to the
// same semantic unit, e.g., the verb's objects").
func (d *Detector) Create(g *nlp.DepGraph, matches []Match) []*IX {
	byAnchor := map[int]*IX{}
	var order []int
	for _, m := range matches {
		x, ok := byAnchor[m.Anchor]
		if !ok {
			x = &IX{Anchor: m.Anchor}
			byAnchor[m.Anchor] = x
			order = append(order, m.Anchor)
		}
		x.Patterns = append(x.Patterns, m.Pattern)
		if m.Pattern.Uncertain {
			x.Uncertain = true
		}
		x.Types = appendUniqueStr(x.Types, m.Pattern.Type)
		for _, n := range m.Nodes {
			x.Nodes = appendUniqueInt(x.Nodes, n)
		}
	}
	sort.Ints(order)
	var out []*IX
	for _, a := range order {
		x := byAnchor[a]
		d.complete(g, x)
		sort.Ints(x.Nodes)
		sort.Strings(x.Types)
		out = append(out, x)
	}
	return out
}

// Detect runs Find then Create, honoring cancellation between patterns.
func (d *Detector) Detect(ctx context.Context, g *nlp.DepGraph) ([]*IX, error) {
	matches, err := d.Find(ctx, g)
	if err != nil {
		return nil, err
	}
	return d.Create(g, matches), nil
}

// complete extends the IX subgraph to the full semantic unit of its
// anchor.
func (d *Detector) complete(g *nlp.DepGraph, x *IX) {
	anchor := &g.Nodes[x.Anchor]
	add := func(n int) { x.Nodes = appendUniqueInt(x.Nodes, n) }

	if strings.HasPrefix(anchor.POS, "VB") {
		// Verb anchor: subject, objects (tree and gap-filling extra
		// edges), auxiliaries, negation, particles, adverbs and the
		// verb's prepositional phrases.
		for _, dep := range g.Dependents(x.Anchor,
			nlp.RelNSubj, nlp.RelDObj, nlp.RelIObj, nlp.RelAux,
			nlp.RelAuxPass, nlp.RelNeg, nlp.RelPrt, nlp.RelAdvMod) {
			add(dep)
		}
		for _, dep := range g.DependentsAll(x.Anchor, nlp.RelDObj, nlp.RelNSubj) {
			add(dep)
		}
		// Prepositional phrases: the preposition and its object head.
		for _, prep := range g.Dependents(x.Anchor, nlp.RelPrep) {
			add(prep)
			for _, pobj := range g.Dependents(prep, nlp.RelPObj) {
				add(pobj)
			}
		}
		// Open clausal complements ("want to buy X") join the unit.
		for _, xc := range g.Dependents(x.Anchor, nlp.RelXComp) {
			add(xc)
			for _, dep := range g.Dependents(xc, nlp.RelDObj, nlp.RelAux) {
				add(dep)
			}
		}
		return
	}
	if strings.HasPrefix(anchor.POS, "JJ") {
		// Opinion adjective: its adverbial modifiers ("most
		// interesting") and the noun it qualifies — the amod head, or
		// the subject for a copular predicate.
		for _, dep := range g.Dependents(x.Anchor, nlp.RelAdvMod, nlp.RelNeg) {
			add(dep)
		}
		if anchor.Head >= 0 && anchor.Rel == nlp.RelAMod {
			add(anchor.Head)
		}
		for _, dep := range g.Dependents(x.Anchor, nlp.RelNSubj) {
			add(dep)
		}
	}
}

func appendUniqueInt(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func appendUniqueStr(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}
