package core

import (
	"fmt"
	"sort"
	"strings"

	"nl2cm/internal/emit"
	"nl2cm/internal/oassisql"
	"nl2cm/internal/prov"
	"nl2cm/internal/rdf"
	"nl2cm/internal/verify"
)

// Provenance maps every emitted triple (rendered OASSIS-QL form) to the
// source tokens, byte spans and question text it derives from; nil for
// a result without a plan. It is derived on each call (views).
func (r *Result) Provenance() map[string]prov.Record {
	if r.Plan == nil {
		return nil
	}
	records := map[string]prov.Record{}
	r.views(records)
	return records
}

// Uncovered lists the question's content words that no emitted triple,
// no accepted IX and no counting quantifier of the plan derives from. It
// is derived on each call (views).
func (r *Result) Uncovered() []prov.TokenInfo {
	return r.views(nil)
}

// CoverageTips are rephrasing hints generated from Uncovered.
func (r *Result) CoverageTips() []string {
	return verify.CoverageTips(r.Question, r.Uncovered())
}

// views derives the provenance views of r from what every result with a
// plan holds, whether translated cold, served as an exact hit or
// rebound: the question, its graph, the accepted IXs and the plan's
// token sets. It fills records, unless nil, with the triple→record map,
// and returns the uncovered-word report, nil for a result without a
// plan.
func (r *Result) views(records map[string]prov.Record) []prov.TokenInfo {
	if r.Plan == nil {
		return nil
	}
	var understood prov.TokenSet
	eachPattern(r.Plan, func(clause string, sub int, pat *emit.Pattern) {
		understood = understood.Union(pat.Tokens)
		if records == nil {
			return
		}
		key := oassisql.TripleString(pat.Triple)
		if rec, seen := records[key]; seen {
			// The same rendered triple in several places (e.g. two
			// subclauses): merge the token sets, keep the first location.
			rec.Tokens = rec.Tokens.Union(pat.Tokens)
			records[key] = rec
			return
		}
		records[key] = prov.Record{Triple: key, Clause: clause, Subclause: sub, Tokens: pat.Tokens}
	})
	for key, rec := range records {
		rec.Spans = prov.MergeSpans(r.Question, r.Graph.Spans(rec.Tokens))
		rec.Text = prov.ExcerptMerged(r.Question, rec.Spans)
		records[key] = rec
	}

	// Tokens inside an accepted IX were understood even when no single
	// triple lists them (auxiliaries, particles).
	for _, x := range r.IXs {
		understood = understood.Union(x.TokenSet())
	}
	// A detected counting quantifier ("how many", "the most") was
	// understood — it became the plan's analytic step, not a triple.
	if r.Plan.Agg != nil {
		understood = understood.Union(r.Plan.Agg.Tokens)
	}
	var uncovered []prov.TokenInfo
	for id := range r.Graph.Nodes {
		n := &r.Graph.Nodes[id]
		if !isContentPOS(n.POS) || understood.Contains(id) {
			continue
		}
		uncovered = append(uncovered, prov.TokenInfo{ID: id, Span: n.Span(), Text: n.Text})
	}
	return uncovered
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
	records := r.Provenance()
	p := oassisql.Printer{Annotate: func(clause string, sub, i int, t rdf.Triple) string {
		rec, seen := records[oassisql.TripleString(t)]
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
	records := r.Provenance()
	out := make([]prov.Record, 0, len(records))
	for _, rec := range records {
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
