package core

import (
	"slices"

	"nl2cm/internal/emit"
	"nl2cm/internal/nlp"
	"nl2cm/internal/oassisql"
	"nl2cm/internal/prov"
	"nl2cm/internal/qcache"
	"nl2cm/internal/rdf"
	"nl2cm/internal/verify"
)

// splice is what a plan-cache entry keeps to serve a same-shape
// question without deriving anything downstream of the plan again:
// every text the entry serves, cut at its entity slots into templates
// (emit.Template), and the token sets its provenance views are read
// from. A rebound writes its own entities' texts into the templates and
// reads byte spans and excerpts from its own graph (rebind).
type splice struct {
	// slotOf maps each shape entity, in question order, to its slot: an
	// entity the question names twice fills one slot.
	slotOf []int
	// slots holds the entry's entity of each slot.
	slots []rdf.Term
	// fixed holds the surface text of every term the plan holds outside
	// its slots, sorted.
	fixed []string
	// patterns are the plan's patterns, WHERE first and then each crowd
	// clause's: each one's OASSIS-QL triple, which is its clause's Pattern
	// in every rendering, its Fragment in OASSIS-QL and its provenance
	// key, and its token set.
	patterns []patternTemplate
	// oassis is the OASSIS-QL rendering; renderings are those of the
	// backends the entry's key requests (oassis itself among them when
	// the key names OASSIS-QL).
	oassis     *renderingTemplate
	renderings []*renderingTemplate
	// records are the provenance records, one per distinct triple.
	records []recordTemplate
	// uncovered are the token IDs of the entry's Uncovered report.
	uncovered []int
}

type patternTemplate struct {
	triple emit.Template
	tokens prov.TokenSet
}

// renderingTemplate is one rendering of the entry's plan with each slot
// a sentinel: its query text and notes as templates in its dialect, and
// one clause per plan pattern, in pattern order, whose Clause,
// Subclause and Tokens are the sentinel rendering's.
type renderingTemplate struct {
	sentinel *emit.Rendering
	query    emit.Template
	// fragments are the clauses' fragments in the rendering's dialect;
	// nil for OASSIS-QL, whose fragment is the pattern's triple.
	fragments []emit.Template
	// notes are nil when no note holds a slot: the sentinel rendering's
	// notes are then the rebound's.
	notes []emit.Template
}

// recordTemplate is one provenance record: the first pattern of its
// triple names it and its location; a triple several patterns print
// (merged) takes the union of their token sets.
type recordTemplate struct {
	pattern   int
	clause    string
	subclause int
	tokens    prov.TokenSet
	merged    bool
}

// splicedPattern is one pattern of a rebound: its OASSIS-QL triple with
// the request's entities, its merged spans in the request and their
// excerpt.
type splicedPattern struct {
	triple string
	spans  []prov.Span
	source string
}

// newSplice cuts the texts of res, a cold translation whose shape slots
// hold the entities ents, into templates: it renders the plan once per
// dialect with each slot's entity replaced by the slot's sentinel
// (emit.SlotTerm) and cuts every text at the sentinels. It returns nil
// when the entry cannot serve a same-shape question by splicing: the
// question is unsupported, a slot entity stands in a predicate position
// (Cypher writes a relationship type bare or in backticks depending on
// its text), its own entities break the rules rebind holds a request
// to, or splicing them into the templates does not give back every
// rendering and every provenance key byte for byte.
func newSplice(res *Result, ents []qcache.Binding) *splice {
	if res.Plan == nil || !res.Verdict.Supported {
		return nil
	}
	sp := &splice{slotOf: make([]int, len(ents))}
	for i, b := range ents {
		n := slices.Index(sp.slots, b.Term)
		if n < 0 {
			n = len(sp.slots)
			sp.slots = append(sp.slots, b.Term)
		}
		sp.slotOf[i] = n
	}
	n := len(sp.slots)
	sentinels := make(map[rdf.Term]rdf.Term, n)
	for i, t := range sp.slots {
		sentinels[t] = emit.SlotTerm(i)
	}
	predicate := false
	eachPattern(res.Plan, func(_ string, _ int, pat *emit.Pattern) {
		for _, t := range [3]rdf.Term{pat.Triple.S, pat.Triple.P, pat.Triple.O} {
			if _, slot := sentinels[t]; !slot {
				sp.fixed = append(sp.fixed, t.Local())
			}
		}
		_, slot := sentinels[pat.Triple.P]
		predicate = predicate || slot
	})
	if predicate {
		return nil
	}
	slices.Sort(sp.fixed)
	sp.fixed = slices.Compact(sp.fixed)

	tp := res.Plan.Clone()
	tp.Rebind(sentinels)
	// The OASSIS-QL rendering has one clause per pattern, in pattern
	// order, whose Pattern is the pattern's triple.
	oassis := emit.OassisRendering(tp, emit.OassisQuery(tp))
	sp.patterns = make([]patternTemplate, len(oassis.Clauses))
	records := make(map[string]int, len(oassis.Clauses))
	for i, c := range oassis.Clauses {
		sp.patterns[i] = patternTemplate{triple: emit.NewTemplate(c.Pattern, n), tokens: c.Tokens}
		if r, seen := records[c.Pattern]; seen {
			rec := &sp.records[r]
			rec.tokens = rec.tokens.Union(c.Tokens)
			rec.merged = true
			continue
		}
		records[c.Pattern] = len(sp.records)
		sp.records = append(sp.records, recordTemplate{pattern: i, clause: c.Clause, subclause: c.Subclause, tokens: c.Tokens})
	}
	sp.oassis = newRenderingTemplate(oassis, n)
	for name := range res.Renderings {
		if name == emit.DefaultBackend {
			sp.renderings = append(sp.renderings, sp.oassis)
			continue
		}
		r, err := emit.Emit(name, tp)
		if err != nil {
			return nil
		}
		sp.renderings = append(sp.renderings, newRenderingTemplate(r, n))
	}
	for _, u := range res.Uncovered {
		sp.uncovered = append(sp.uncovered, u.ID)
	}

	if terms, ok := sp.terms(ents); !ok || !sp.gives(res, terms) {
		return nil
	}
	return sp
}

// gives reports whether splicing the slot entities terms into the
// templates gives every rendering of res and every key of its
// provenance map, with the clauses and records where res has them.
func (sp *splice) gives(res *Result, terms []rdf.Term) bool {
	oassis := slotTexts(emit.DefaultBackend, terms)
	if !sp.oassis.gives(res.oassis, oassis, oassis, sp.patterns) || len(sp.renderings) != len(res.Renderings) {
		return false
	}
	for _, rt := range sp.renderings {
		if !rt.gives(res.Renderings[rt.sentinel.Backend], slotTexts(rt.sentinel.Backend, terms), oassis, sp.patterns) {
			return false
		}
	}
	if len(sp.records) != len(res.Provenance) {
		return false
	}
	for key, rec := range res.Provenance {
		var match *recordTemplate
		for i := range sp.records {
			rt := &sp.records[i]
			if sp.patterns[rt.pattern].triple.Matches(oassis, key) {
				if match != nil {
					return false
				}
				match = rt
			}
		}
		if match == nil || rec.Clause != match.clause || rec.Subclause != match.subclause || !slices.Equal(rec.Tokens, match.tokens) {
			return false
		}
	}
	return true
}

// gives reports whether splicing texts, and the OASSIS-QL texts oassis
// into the patterns, gives r: its query, its notes and its clauses, the
// clause of each pattern at the pattern's index.
func (rt *renderingTemplate) gives(r *emit.Rendering, texts, oassis []string, pats []patternTemplate) bool {
	s := rt.sentinel
	if r == nil || r.Backend != s.Backend || !rt.query.Matches(texts, r.Query) || len(r.Clauses) != len(s.Clauses) || len(r.Notes) != len(s.Notes) {
		return false
	}
	for i, c := range r.Clauses {
		pt := &pats[i]
		fragment := pt.triple.Matches(oassis, c.Fragment)
		if rt.fragments != nil {
			fragment = rt.fragments[i].Matches(texts, c.Fragment)
		}
		if !fragment || !pt.triple.Matches(oassis, c.Pattern) || c.Clause != s.Clauses[i].Clause ||
			c.Subclause != s.Clauses[i].Subclause || !slices.Equal(c.Tokens, pt.tokens) {
			return false
		}
	}
	for i, note := range r.Notes {
		if rt.notes == nil && note != s.Notes[i] || rt.notes != nil && !rt.notes[i].Matches(texts, note) {
			return false
		}
	}
	return true
}

func newRenderingTemplate(r *emit.Rendering, slots int) *renderingTemplate {
	rt := &renderingTemplate{sentinel: r, query: emit.NewTemplate(r.Query, slots)}
	if r.Backend != emit.DefaultBackend {
		rt.fragments = make([]emit.Template, len(r.Clauses))
		for i, c := range r.Clauses {
			rt.fragments[i] = emit.NewTemplate(c.Fragment, slots)
		}
	}
	for _, note := range r.Notes {
		if emit.NewTemplate(note, slots).Slotted() {
			rt.notes = make([]emit.Template, len(r.Notes))
			for i, note := range r.Notes {
				rt.notes[i] = emit.NewTemplate(note, slots)
			}
			break
		}
	}
	return rt
}

// eachPattern calls f on every pattern of the plan, WHERE first and
// then each crowd clause's, with its location.
func eachPattern(p *emit.Plan, f func(clause string, sub int, pat *emit.Pattern)) {
	for i := range p.Where {
		f(oassisql.ClauseWhere, -1, &p.Where[i])
	}
	for si := range p.Crowd {
		for i := range p.Crowd[si].Patterns {
			f(oassisql.ClauseSatisfying, si, &p.Crowd[si].Patterns[i])
		}
	}
}

// rebind serves old, the entry's result, for a same-shape question
// whose graph is g and whose shape slots hold ents, by writing their
// texts into the entry's templates. Only the plan is cloned and re-bound
// (Result.Plan, and Result.Query built from it). It reports false when
// the question must be translated cold instead: it does not name the
// same entity in two slots exactly where the entry does, it names two
// entities of one text, or it names one whose text is a term the plan
// holds outside its slots. Mongo's subject grouping and the provenance
// map's merging of equal triples would then differ from a cold
// translation; so would an entity text that makes two triples print
// alike, which the provenance map's keys show.
func (sp *splice) rebind(old *Result, question string, g *nlp.DepGraph, ents []qcache.Binding) (*Result, bool) {
	terms, ok := sp.terms(ents)
	if !ok {
		return nil, false
	}
	res := &Result{
		Question:    question,
		Verdict:     old.Verdict,
		Graph:       g,
		IXs:         old.IXs,
		RejectedIXs: old.RejectedIXs,
		PureGeneral: old.PureGeneral,
	}
	pats, ok := sp.write(res, terms)
	if !ok {
		return nil, false
	}
	sub := make(map[rdf.Term]rdf.Term, len(terms))
	for i, t := range terms {
		sub[sp.slots[i]] = t
	}
	res.Plan = old.Plan.Clone()
	res.Plan.Question = question
	res.Plan.Rebind(sub)
	k := 0
	eachPattern(res.Plan, func(_ string, _ int, pat *emit.Pattern) {
		pat.Source = pats[k].source
		k++
	})
	res.Query = emit.OassisQuery(res.Plan)
	return res, true
}

// write fills the texts of res, whose Question and Graph are set, from
// the templates with the slot entities terms: the OASSIS-QL rendering,
// the key's renderings, the provenance map, Uncovered and CoverageTips.
// It returns the patterns it spliced, and false when two records of the
// provenance map print alike.
func (sp *splice) write(res *Result, terms []rdf.Term) ([]splicedPattern, bool) {
	question, g := res.Question, res.Graph
	oassis := slotTexts(emit.DefaultBackend, terms)
	pats := make([]splicedPattern, len(sp.patterns))
	for i := range sp.patterns {
		pt := &sp.patterns[i]
		spans := prov.MergeSpans(question, g.Spans(pt.tokens))
		pats[i] = splicedPattern{triple: pt.triple.Splice(oassis), spans: spans, source: prov.ExcerptMerged(question, spans)}
	}
	res.oassis = sp.oassis.splice(oassis, pats)
	if len(sp.renderings) > 0 {
		res.Renderings = make(map[string]*emit.Rendering, len(sp.renderings))
		for _, rt := range sp.renderings {
			rend := res.oassis
			if rt != sp.oassis {
				rend = rt.splice(slotTexts(rt.sentinel.Backend, terms), pats)
			}
			res.Renderings[rend.Backend] = rend
		}
	}

	res.Provenance = make(map[string]prov.Record, len(sp.records))
	for _, rt := range sp.records {
		p := &pats[rt.pattern]
		rec := prov.Record{Triple: p.triple, Clause: rt.clause, Subclause: rt.subclause, Tokens: rt.tokens, Spans: p.spans, Text: p.source}
		if rt.merged {
			rec.Spans = prov.MergeSpans(question, g.Spans(rt.tokens))
			rec.Text = prov.ExcerptMerged(question, rec.Spans)
		}
		if _, dup := res.Provenance[rec.Triple]; dup {
			return nil, false
		}
		res.Provenance[rec.Triple] = rec
	}
	if len(sp.uncovered) > 0 {
		res.Uncovered = make([]prov.TokenInfo, len(sp.uncovered))
		for i, id := range sp.uncovered {
			n := &g.Nodes[id]
			res.Uncovered[i] = prov.TokenInfo{ID: id, Span: n.Span(), Text: n.Text}
		}
		res.CoverageTips = verify.CoverageTips(question, res.Uncovered)
	}
	return pats, true
}

// terms returns the request's entity of each slot, and false unless the
// request names the same entity in two slots exactly where the entry
// does, gives distinct entities distinct texts, and names no entity
// whose text is a term the plan holds outside its slots.
func (sp *splice) terms(ents []qcache.Binding) ([]rdf.Term, bool) {
	if len(ents) != len(sp.slotOf) {
		return nil, false
	}
	terms := make([]rdf.Term, len(sp.slots))
	for i, b := range ents {
		n := sp.slotOf[i]
		if terms[n] == (rdf.Term{}) {
			terms[n] = b.Term
		} else if terms[n] != b.Term {
			return nil, false
		}
	}
	for i, t := range terms {
		text := t.Local()
		if _, fixed := slices.BinarySearch(sp.fixed, text); fixed {
			return nil, false
		}
		for _, u := range terms[:i] {
			if u == t || u.Local() == text {
				return nil, false
			}
		}
	}
	return terms, true
}

// slotTexts returns each slot entity's text in the named dialect.
func slotTexts(backend string, terms []rdf.Term) []string {
	texts := make([]string, len(terms))
	for i, t := range terms {
		texts[i] = emit.SlotText(backend, t)
	}
	return texts
}

// splice writes the rendering with the slot texts of its dialect, texts,
// and the rebound's patterns.
func (rt *renderingTemplate) splice(texts []string, pats []splicedPattern) *emit.Rendering {
	s := rt.sentinel
	r := &emit.Rendering{Backend: s.Backend, Query: rt.query.Splice(texts), Clauses: s.Clauses, Notes: s.Notes}
	if len(s.Clauses) > 0 {
		r.Clauses = make([]emit.Clause, len(s.Clauses))
		for i, c := range s.Clauses {
			p := &pats[i]
			c.Pattern, c.Fragment, c.Source = p.triple, p.triple, p.source
			if rt.fragments != nil {
				c.Fragment = rt.fragments[i].Splice(texts)
			}
			r.Clauses[i] = c
		}
	}
	if rt.notes != nil {
		r.Notes = make([]string, len(rt.notes))
		for i, n := range rt.notes {
			r.Notes[i] = n.Splice(texts)
		}
	}
	return r
}
