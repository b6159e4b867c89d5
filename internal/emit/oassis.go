package emit

import (
	"nl2cm/internal/oassisql"
)

// OassisBackend renders plans in OASSIS-QL, the paper's crowd-mining
// language. It is the system's reference dialect: the only backend that
// expresses every part of a plan (crowd clauses included), and the
// single OASSIS-QL emitter in the codebase — both the pipeline's
// final query and this backend's rendering go through oassisql.Printer,
// so they are byte-identical by construction.
type OassisBackend struct{}

// Name implements Backend.
func (OassisBackend) Name() string { return "oassisql" }

// Caps implements Backend: OASSIS-QL expresses everything a plan can
// hold.
func (OassisBackend) Caps() Caps {
	return Caps{Crowd: true, Joins: true, Filters: true, VarPredicates: true, Aggregates: true}
}

// OassisQuery builds the structural OASSIS-QL query a plan denotes. The
// mapping is exact: general patterns become the WHERE clause, the
// analytic part becomes the language's aggregation extension, and crowd
// clauses become SATISFYING subclauses with their significance criteria.
func OassisQuery(p *Plan) *oassisql.Query {
	q := &oassisql.Query{
		Select: oassisql.SelectClause{All: p.Select.All, Vars: p.Select.Vars},
		Where:  oassisql.Pattern{Triples: p.WhereTriples()},
	}
	if p.Agg != nil {
		q.Agg = &oassisql.Aggregation{
			GroupBy: p.Agg.GroupBy,
			Aggs:    p.Agg.Aggs,
			OrderBy: p.Agg.OrderBy,
			Limit:   p.Agg.Limit,
		}
	}
	for _, cc := range p.Crowd {
		var sc oassisql.Subclause
		for _, pat := range cc.Patterns {
			sc.Pattern.Triples = append(sc.Pattern.Triples, pat.Triple)
		}
		if cc.Significance.TopK > 0 {
			sc.TopK = &oassisql.TopK{K: cc.Significance.TopK, Desc: cc.Significance.Desc}
		} else {
			th := cc.Significance.Threshold
			sc.Threshold = &th
		}
		q.Satisfying = append(q.Satisfying, sc)
	}
	return q
}

// Emit implements Backend.
func (OassisBackend) Emit(p *Plan) *Rendering {
	return OassisRendering(p, OassisQuery(p))
}

// OassisRendering is the OASSIS-QL rendering of a plan whose query q
// (OassisQuery(p)) the caller already holds: q's text, and one clause
// per pattern.
func OassisRendering(p *Plan, q *oassisql.Query) *Rendering {
	n := len(p.Where)
	for _, cc := range p.Crowd {
		n += len(cc.Patterns)
	}
	r := &Rendering{Backend: "oassisql", Query: q.String(), Clauses: make([]Clause, 0, n)}
	add := func(pat Pattern, clause string, sub int) {
		// The fragment is the pattern's neutral form: one text for both.
		text := oassisql.TripleString(pat.Triple)
		r.Clauses = append(r.Clauses, Clause{
			Fragment:  text,
			Pattern:   text,
			Clause:    clause,
			Subclause: sub,
			Tokens:    pat.Tokens,
			Source:    pat.Source,
		})
	}
	for _, pat := range p.Where {
		add(pat, ClauseWhere, -1)
	}
	for si, cc := range p.Crowd {
		for _, pat := range cc.Patterns {
			add(pat, ClauseSatisfying, si)
		}
	}
	return r
}
