package emit

import (
	"fmt"
	"strings"

	"nl2cm/internal/oassisql"
)

// MongoBackend renders the general part of a plan as a MongoDB-style
// document filter in JSON. The data model is one document per subject —
// `{_id: <subject>, <predicate>: <object>, ...}` — so each subject
// (variable or entity) of the plan becomes one filter document keyed by
// its predicates:
//
//	{"filter": {
//	  "x": {"instanceOf": "Place", "near": "Forest_Hotel,_Buffalo,_NY"}
//	}}
//
// A variable in object position renders as {"$var": "y"}; when that
// variable is itself a filtered subject, the link is a cross-document
// join the dialect cannot evaluate natively, which emission notes. A
// predicate repeated within one document wraps its values in {"$all":
// [...]}. An aggregated plan adds an "aggregate" key holding a
// $group-style pipeline — $group with one accumulator per aggregate,
// $sort and $limit for the result window — which runs over the filter's
// solution rows materialized as documents (noted, since that
// materialization is application-side). Crowd clauses are dropped with a
// note.
type MongoBackend struct{}

// Name implements Backend.
func (MongoBackend) Name() string { return "mongodb" }

// Caps implements Backend.
func (MongoBackend) Caps() Caps { return Caps{Aggregates: true} }

// mongoGroup is one subject's filter document under construction.
type mongoGroup struct {
	key   string   // subject key: variable name or entity surface form
	order []string // predicate keys in first-appearance order
	vals  map[string][]string
}

// Emit implements Backend.
func (MongoBackend) Emit(p *Plan) *Rendering {
	r := &Rendering{Backend: "mongodb"}
	if n := len(p.Crowd); n > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"dropped %d crowd-mining (SATISFYING) subclause(s): the document dialect has no crowd counterpart", n))
	}

	groups := map[string]*mongoGroup{}
	var groupOrder []string
	group := func(key string) *mongoGroup {
		g, ok := groups[key]
		if !ok {
			g = &mongoGroup{key: key, vals: map[string][]string{}}
			groups[key] = g
			groupOrder = append(groupOrder, key)
		}
		return g
	}
	type clauseRef struct {
		pat  Pattern
		frag string
	}
	var clauses []clauseRef
	var objectVars []string
	for _, pat := range p.Where {
		t := pat.Triple
		key := surface(t.S)
		if t.S.IsVar() {
			key = t.S.Value()
		}
		pred := surface(t.P)
		var val string
		if t.O.IsVar() {
			val = `{"$var": ` + jsonString(t.O.Value()) + `}`
			objectVars = append(objectVars, t.O.Value())
		} else {
			val = jsonString(surface(t.O))
		}
		g := group(key)
		if _, seen := g.vals[pred]; !seen {
			g.order = append(g.order, pred)
		}
		g.vals[pred] = append(g.vals[pred], val)
		clauses = append(clauses, clauseRef{pat: pat, frag: jsonString(pred) + ": " + val})
	}
	for _, v := range objectVars {
		if _, ok := groups[v]; ok {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"cross-document join on $%s requires application-side resolution", v))
		}
	}

	// Render with deterministic (first-appearance) key order.
	var b strings.Builder
	b.WriteString("{\"filter\": {")
	for gi, key := range groupOrder {
		if gi > 0 {
			b.WriteString(",")
		}
		g := groups[key]
		b.WriteString("\n  " + jsonString(key) + ": {")
		for pi, pred := range g.order {
			if pi > 0 {
				b.WriteString(", ")
			}
			vals := g.vals[pred]
			b.WriteString(jsonString(pred) + ": ")
			if len(vals) == 1 {
				b.WriteString(vals[0])
			} else {
				b.WriteString(`{"$all": [` + strings.Join(vals, ", ") + `]}`)
			}
		}
		b.WriteString("}")
	}
	if len(groupOrder) > 0 {
		b.WriteString("\n")
	}
	b.WriteString("}")
	if !p.Select.All && len(p.Select.Vars) > 0 {
		b.WriteString(", \"project\": [")
		for i, v := range p.Select.Vars {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(jsonString(v))
		}
		b.WriteString("]")
	}
	if p.Aggregated() {
		b.WriteString(", \"aggregate\": " + mongoPipeline(p))
		r.Notes = append(r.Notes, "aggregation pipeline runs over the filter's solution rows materialized as documents (application-side join resolution)")
	}
	b.WriteString("}")

	r.Query = b.String()
	for _, c := range clauses {
		r.Clauses = append(r.Clauses, Clause{
			Fragment:  c.frag,
			Pattern:   oassisql.TripleString(c.pat.Triple),
			Clause:    ClauseWhere,
			Subclause: -1,
			Tokens:    c.pat.Tokens,
			Source:    c.pat.Source,
		})
	}
	return r
}

// mongoPipeline renders the analytic part as a $group-style pipeline:
// one $group stage keyed by the grouping variables, each count a
// {"$sum": 1} accumulator, then $sort and $limit for the result window.
func mongoPipeline(p *Plan) string {
	var b strings.Builder
	b.WriteString(`[{"$group": {"_id": `)
	if len(p.Agg.GroupBy) == 0 {
		b.WriteString("null")
	} else {
		b.WriteString("{")
		for i, v := range p.Agg.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(jsonString(v) + `: "$` + v + `"`)
		}
		b.WriteString("}")
	}
	for _, a := range p.Agg.Aggs {
		b.WriteString(", " + jsonString(a.As) + `: {"$sum": 1}`)
	}
	b.WriteString("}}")
	if len(p.Agg.OrderBy) > 0 {
		b.WriteString(`, {"$sort": {`)
		for i, k := range p.Agg.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			dir := "1"
			if k.Desc {
				dir = "-1"
			}
			b.WriteString(jsonString(k.Var) + ": " + dir)
		}
		b.WriteString("}}")
	}
	if p.Agg.Limit > 0 {
		fmt.Fprintf(&b, `, {"$limit": %d}`, p.Agg.Limit)
	}
	b.WriteString("]")
	return b.String()
}
