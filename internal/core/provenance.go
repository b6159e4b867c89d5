package core

import (
	"fmt"
	"sort"
	"strings"

	"nl2cm/internal/emit"
	"nl2cm/internal/oassisql"
	"nl2cm/internal/prov"
	"nl2cm/internal/qgen"
	"nl2cm/internal/rdf"
	"nl2cm/internal/verify"
)

// buildProvenance fills a cold Result's provenance views from the
// plan's own pattern token sets: the triple→spans→text map, the
// uncovered-token report, and its rephrasing tips. A rebound writes
// them from its cache entry's instead (splice.rebind). aggOrigin lists
// the tokens of the counting quantifier the generator detected, if any
// (aggregateOrigin).
func (r *Result) buildProvenance(aggOrigin []int) {
	r.Provenance = map[string]prov.Record{}
	covered := prov.TokenSet{}
	add := func(clause string, sub int, pat emit.Pattern) {
		covered = covered.Union(pat.Tokens)
		key := oassisql.TripleString(pat.Triple)
		rec, seen := r.Provenance[key]
		if seen {
			// The same rendered triple in several places (e.g. two
			// subclauses): merge the token sets, keep the first location.
			rec.Tokens = rec.Tokens.Union(pat.Tokens)
		} else {
			rec = prov.Record{Triple: key, Clause: clause, Subclause: sub, Tokens: pat.Tokens}
		}
		rec.Spans = prov.MergeSpans(r.Question, r.Graph.Spans(rec.Tokens))
		rec.Text = prov.ExcerptMerged(r.Question, rec.Spans)
		r.Provenance[key] = rec
	}
	for _, pat := range r.Plan.Where {
		add(oassisql.ClauseWhere, -1, pat)
	}
	for si, cc := range r.Plan.Crowd {
		for _, pat := range cc.Patterns {
			add(oassisql.ClauseSatisfying, si, pat)
		}
	}

	// Tokens inside an accepted IX were understood even when no single
	// triple lists them (auxiliaries, particles).
	understood := covered
	for _, x := range r.IXs {
		understood = understood.Union(x.TokenSet())
	}
	// A detected counting quantifier ("how many", "the most") was
	// understood — it became the plan's analytic step, not a triple.
	if len(aggOrigin) > 0 && r.Plan.Agg != nil {
		understood = understood.Union(prov.NewTokenSet(aggOrigin...))
	}
	for id := range r.Graph.Nodes {
		n := &r.Graph.Nodes[id]
		if !isContentPOS(n.POS) || understood.Contains(id) {
			continue
		}
		r.Uncovered = append(r.Uncovered, prov.TokenInfo{ID: id, Span: n.Span(), Text: n.Text})
	}
	r.CoverageTips = verify.CoverageTips(r.Question, r.Uncovered)
}

// aggregateOrigin returns the token indices of the counting quantifier
// the generator detected, nil for none.
func aggregateOrigin(g *qgen.Result) []int {
	if g == nil || g.Aggregate == nil {
		return nil
	}
	return g.Aggregate.Origin
}

// isContentPOS reports whether the tag marks a content word whose loss
// the uncovered report should flag: nouns, verbs, adjectives, adverbs
// and numbers.
func isContentPOS(pos string) bool {
	for _, p := range []string{"NN", "VB", "JJ", "RB", "CD"} {
		if strings.HasPrefix(pos, p) {
			return true
		}
	}
	return false
}

// AnnotatedQuery renders the final query with a source comment on every
// triple whose provenance is known:
//
//	{[] reach $x # from: "reach ... from Forest Hills"
//	}
//
// Comments are skipped by the OASSIS-QL lexer, so the output re-parses
// to the same query. An empty string is returned before composition.
func (r *Result) AnnotatedQuery() string {
	if r.Query == nil {
		return ""
	}
	p := oassisql.Printer{Annotate: func(clause string, sub, i int, t rdf.Triple) string {
		rec, seen := r.Provenance[oassisql.TripleString(t)]
		if !seen || rec.Text == "" {
			return ""
		}
		return fmt.Sprintf("from: %q", rec.Text)
	}}
	return p.Print(r.Query)
}

// ProvenanceRecords returns the provenance map as a slice ordered by
// query position (WHERE first, then subclauses in order), for stable
// display and JSON output.
func (r *Result) ProvenanceRecords() []prov.Record {
	out := make([]prov.Record, 0, len(r.Provenance))
	for _, rec := range r.Provenance {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Subclause != out[j].Subclause {
			return out[i].Subclause < out[j].Subclause
		}
		return out[i].Triple < out[j].Triple
	})
	return out
}
