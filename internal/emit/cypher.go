package emit

import (
	"fmt"
	"strings"

	"nl2cm/internal/oassisql"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// CypherBackend renders the general part of a plan in a Cypher-like
// graph dialect: every triple pattern becomes one MATCH pattern, with
// variables as bare node identifiers, entities as `(:Resource {id:
// '...'})` nodes, literals as `(:Literal {value: '...'})` nodes and
// predicates as relationship types:
//
//	MATCH (x)-[:instanceOf]->(:Resource {id: 'Place'}),
//	      (x)-[:near]->(:Resource {id: 'Forest_Hotel,_Buffalo,_NY'})
//	RETURN x
//
// A variable predicate renders as an untyped relationship binding
// (`-[p]->`). An aggregated plan uses Cypher's implicit grouping: the
// grouping keys and aggregate calls share one projection (`RETURN city,
// count(a) AS cnt ORDER BY cnt DESC LIMIT 1`), and a projection narrower
// than them inserts a WITH stage before the final RETURN. Crowd clauses
// are dropped with a note.
type CypherBackend struct{}

// Name implements Backend.
func (CypherBackend) Name() string { return "cypher" }

// Caps implements Backend.
func (CypherBackend) Caps() Caps {
	return Caps{Joins: true, VarPredicates: true, Aggregates: true}
}

// cypherNode renders a term as a node pattern.
func cypherNode(t rdf.Term) string {
	switch {
	case t.IsVar() && IsAnonVar(t.Value()):
		return "()"
	case t.IsVar():
		return "(" + ident(t.Value()) + ")"
	case t.IsLiteral():
		return "(:Literal {value: " + cypherString(t.Value()) + "})"
	case t.IsBlank():
		return "()"
	default:
		return "(:Resource {id: " + cypherString(t.Local()) + "})"
	}
}

// cypherRel renders a predicate as a relationship pattern.
func cypherRel(t rdf.Term) string {
	if t.IsVar() {
		if IsAnonVar(t.Value()) {
			return "-[]->"
		}
		return "-[" + ident(t.Value()) + "]->"
	}
	name := surface(t)
	if name != ident(name) {
		return "-[:`" + strings.ReplaceAll(name, "`", "``") + "`]->"
	}
	return "-[:" + name + "]->"
}

// Emit implements Backend.
func (CypherBackend) Emit(p *Plan) *Rendering {
	r := &Rendering{Backend: "cypher"}
	if n := len(p.Crowd); n > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"dropped %d crowd-mining (SATISFYING) subclause(s): the graph dialect has no crowd counterpart", n))
	}

	bound := map[string]bool{}
	var varOrder []string
	frags := make([]string, len(p.Where))
	for i, pat := range p.Where {
		t := pat.Triple
		frags[i] = cypherNode(t.S) + cypherRel(t.P) + cypherNode(t.O)
		t.EachVar(func(v string) {
			if !bound[v] && !IsAnonVar(v) {
				bound[v] = true
				varOrder = append(varOrder, v)
			}
		})
	}

	var b strings.Builder
	for i, f := range frags {
		switch {
		case i == 0:
			b.WriteString("MATCH ")
		default:
			b.WriteString(",\n      ")
		}
		b.WriteString(f)
	}
	if len(frags) > 0 {
		b.WriteString("\n")
	}
	if p.Aggregated() {
		cypherAggTail(&b, p, bound, r)
	} else {
		sel := varOrder
		if !p.Select.All {
			sel = nil
			for _, v := range p.Select.Vars {
				if bound[v] {
					sel = append(sel, v)
				} else {
					r.Notes = append(r.Notes, fmt.Sprintf(
						"variable $%s is bound only in a crowd clause; not returnable", v))
				}
			}
		}
		if len(sel) == 0 {
			b.WriteString("RETURN 1")
			if len(p.Where) == 0 {
				r.Notes = append(r.Notes, "empty general selection")
			}
		} else {
			b.WriteString("RETURN ")
			for i, v := range sel {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(ident(v))
			}
		}
	}

	r.Query = b.String()
	for i, pat := range p.Where {
		r.Clauses = append(r.Clauses, Clause{
			Fragment:  frags[i],
			Pattern:   oassisql.TripleString(pat.Triple),
			Clause:    ClauseWhere,
			Subclause: -1,
			Tokens:    pat.Tokens,
			Source:    pat.Source,
		})
	}
	return r
}

// cypherAgg renders one count in Cypher's lower-case spelling; ok=false
// when its argument is not bound by the general part.
func cypherAgg(a sparql.Aggregate, bound map[string]bool) (string, bool) {
	if !bound[a.Var] {
		return "", false
	}
	return "count(" + ident(a.Var) + ")", true
}

// cypherAggTail writes the analytic projection after the MATCH patterns.
// Cypher groups implicitly — every non-aggregate projection item is a
// grouping key — so the grouping variables and aggregate calls share one
// item list. A projection narrower than that list needs Cypher's WITH …
// RETURN staging: the WITH stage groups, the RETURN narrows.
func cypherAggTail(b *strings.Builder, p *Plan, bound map[string]bool, r *Rendering) {
	var items []string // "city" / "count(a) AS cnt", grouping order
	emitted := map[string]bool{}
	for _, v := range p.Agg.GroupBy {
		if !bound[v] {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"grouping variable $%s is bound only in a crowd clause; dropped from grouping", v))
			continue
		}
		items = append(items, ident(v))
		emitted[v] = true
	}
	for _, a := range p.Agg.Aggs {
		call, ok := cypherAgg(a, bound)
		if !ok {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"aggregate argument $%s is bound only in a crowd clause; %s dropped", a.Var, a))
			continue
		}
		items = append(items, call+" AS "+ident(a.As))
		emitted[a.As] = true
	}
	var proj []string
	for _, v := range aggProjection(p) {
		if emitted[v] {
			proj = append(proj, v)
		} else {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"variable $%s is not part of the grouped result; not returnable", v))
		}
	}
	// Single-stage RETURN only when the projection covers every grouping
	// key and aggregate — otherwise the narrower final projection would
	// silently change the implicit grouping.
	if len(proj) != len(items) {
		b.WriteString("WITH " + strings.Join(items, ", ") + "\nRETURN ")
		for i, v := range proj {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ident(v))
		}
		if len(proj) == 0 {
			b.WriteString("1")
		}
	} else {
		// Emit the items in projection order; sets are equal, so this is
		// a reordering, not a regrouping.
		ordered := make([]string, 0, len(items))
		for _, v := range proj {
			if a, ok := aggregateByAlias(p.Agg.Aggs, v); ok {
				call, _ := cypherAgg(a, bound)
				ordered = append(ordered, call+" AS "+ident(a.As))
			} else {
				ordered = append(ordered, ident(v))
			}
		}
		if len(ordered) == 0 {
			ordered = []string{"1"}
		}
		b.WriteString("RETURN " + strings.Join(ordered, ", "))
	}
	var keys []string
	for _, k := range p.Agg.OrderBy {
		if !emitted[k.Var] {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"sort key $%s is not part of the grouped result; dropped from ORDER BY", k.Var))
			continue
		}
		key := ident(k.Var)
		if k.Desc {
			key += " DESC"
		}
		keys = append(keys, key)
	}
	if len(keys) > 0 {
		b.WriteString("\nORDER BY " + strings.Join(keys, ", "))
	}
	if p.Agg.Limit > 0 {
		fmt.Fprintf(b, "\nLIMIT %d", p.Agg.Limit)
	}
}
