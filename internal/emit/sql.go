package emit

import (
	"fmt"
	"strings"

	"nl2cm/internal/oassisql"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// SQLBackend renders the general part of a plan as one SELECT over a
// self-joined triple table: schema `triples(s, p, o)`, one alias per
// pattern, variable co-occurrence becoming join conditions and concrete
// terms becoming WHERE conjuncts. The first pattern's alias is the hub
// every later alias joins back to, star-fashion.
//
// An aggregated plan renders its analytic part natively: aggregate
// functions over the bound column references in the SELECT list, GROUP
// BY over the grouping variables' columns, and ORDER BY/LIMIT for the
// result window — so a superlative plan becomes GROUP BY … ORDER BY cnt
// DESC LIMIT 1.
//
// Capability fallbacks: crowd-mining clauses have no SQL counterpart and
// are dropped with a note; a projected variable bound only in a crowd
// clause is likewise noted.
type SQLBackend struct{}

// Name implements Backend.
func (SQLBackend) Name() string { return "sql" }

// Caps implements Backend. A variable predicate is expressible — the
// predicate is just the p column.
func (SQLBackend) Caps() Caps {
	return Caps{Joins: true, VarPredicates: true, Aggregates: true}
}

// sqlCol maps a triple position to its column name.
var sqlCol = [3]string{"s", "p", "o"}

// Emit implements Backend.
func (SQLBackend) Emit(p *Plan) *Rendering {
	r := &Rendering{Backend: "sql"}
	if n := len(p.Crowd); n > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"dropped %d crowd-mining (SATISFYING) subclause(s): SQL has no crowd dialect", n))
	}

	// Walk the patterns once: first occurrence of a variable binds it to
	// a column reference, later occurrences become join conditions,
	// concrete terms become WHERE conjuncts.
	bound := map[string]string{} // variable -> first column reference
	var varOrder []string        // named variables in first-appearance order
	type patSQL struct {
		alias string
		conds []string // concrete-term conjuncts (WHERE)
		joins []string // shared-variable conjuncts (ON)
	}
	pats := make([]patSQL, len(p.Where))
	for i, pat := range p.Where {
		ps := patSQL{alias: fmt.Sprintf("t%d", i)}
		for pos, term := range []rdf.Term{pat.Triple.S, pat.Triple.P, pat.Triple.O} {
			ref := ps.alias + "." + sqlCol[pos]
			if term.IsVar() {
				name := term.Value()
				if first, ok := bound[name]; ok {
					ps.joins = append(ps.joins, ref+" = "+first)
				} else {
					bound[name] = ref
					if !IsAnonVar(name) {
						varOrder = append(varOrder, name)
					}
				}
				continue
			}
			ps.conds = append(ps.conds, ref+" = "+sqlString(surface(term)))
		}
		pats[i] = ps
	}

	// aggSQL renders one count over the bound column refs; ok=false when
	// its argument is not bound by the general part.
	aggSQL := func(a sparql.Aggregate) (string, bool) {
		col, ok := bound[a.Var]
		if !ok {
			return "", false
		}
		return "COUNT(" + col + ")", true
	}

	// SELECT list. An aggregated plan projects group variables and
	// aggregate expressions; a plain one projects the variables the
	// general part binds.
	var selParts []string
	if p.Aggregated() {
		for _, v := range aggProjection(p) {
			if a, ok := aggregateByAlias(p.Agg.Aggs, v); ok {
				expr, ok := aggSQL(a)
				if !ok {
					r.Notes = append(r.Notes, fmt.Sprintf(
						"aggregate argument $%s is bound only in a crowd clause; %s dropped", a.Var, a))
					continue
				}
				selParts = append(selParts, expr+" AS "+ident(v))
				continue
			}
			if col, ok := bound[v]; ok {
				selParts = append(selParts, col+" AS "+ident(v))
			} else {
				r.Notes = append(r.Notes, fmt.Sprintf(
					"variable $%s is bound only in a crowd clause; not selectable in SQL", v))
			}
		}
	} else {
		sel := varOrder
		if !p.Select.All {
			sel = nil
			for _, v := range p.Select.Vars {
				if _, ok := bound[v]; ok {
					sel = append(sel, v)
				} else {
					r.Notes = append(r.Notes, fmt.Sprintf(
						"variable $%s is bound only in a crowd clause; not selectable in SQL", v))
				}
			}
		}
		for _, v := range sel {
			selParts = append(selParts, bound[v]+" AS "+ident(v))
		}
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(selParts) == 0 {
		b.WriteString("1")
		if len(p.Where) == 0 {
			r.Notes = append(r.Notes, "empty general selection")
		}
	} else {
		b.WriteString(strings.Join(selParts, ", "))
	}

	// FROM/JOIN: the hub alias plus one join per further pattern. Each
	// pattern's concrete-term conjuncts stay grouped on one WHERE line.
	var whereGroups []string
	for i, ps := range pats {
		if i == 0 {
			fmt.Fprintf(&b, "\nFROM triples AS %s", ps.alias)
		} else {
			on := ps.joins
			if len(on) == 0 {
				on = []string{"1 = 1"} // cartesian: no shared variable
			}
			fmt.Fprintf(&b, "\nJOIN triples AS %s ON %s", ps.alias, strings.Join(on, " AND "))
		}
		if len(ps.conds) > 0 {
			whereGroups = append(whereGroups, strings.Join(ps.conds, " AND "))
		}
	}
	for i, g := range whereGroups {
		if i == 0 {
			b.WriteString("\nWHERE ")
		} else {
			b.WriteString("\n  AND ")
		}
		b.WriteString(g)
	}

	// Analytic tail: GROUP BY over the grouping columns, then the result
	// window.
	if p.Aggregated() {
		var groupCols []string
		for _, v := range p.Agg.GroupBy {
			if col, ok := bound[v]; ok {
				groupCols = append(groupCols, col)
			} else {
				r.Notes = append(r.Notes, fmt.Sprintf(
					"grouping variable $%s is bound only in a crowd clause; dropped from GROUP BY", v))
			}
		}
		if len(groupCols) > 0 {
			b.WriteString("\nGROUP BY " + strings.Join(groupCols, ", "))
		}
		if keys := sqlOrderKeys(p, bound, aggSQL, r); len(keys) > 0 {
			b.WriteString("\nORDER BY " + strings.Join(keys, ", "))
		}
		if p.Agg.Limit > 0 {
			fmt.Fprintf(&b, "\nLIMIT %d", p.Agg.Limit)
		}
	}

	r.Query = b.String()
	for i, pat := range p.Where {
		frag := strings.Join(append(append([]string{}, pats[i].conds...), pats[i].joins...), " AND ")
		if frag == "" {
			frag = pats[i].alias + " unconstrained"
		}
		r.Clauses = append(r.Clauses, Clause{
			Fragment:  frag,
			Pattern:   oassisql.TripleString(pat.Triple),
			Clause:    ClauseWhere,
			Subclause: -1,
			Tokens:    pat.Tokens,
			Source:    pat.Source,
		})
	}
	return r
}

// sqlOrderKeys renders the analytic ORDER BY keys: an aggregate alias
// orders by its aggregate expression (portable across dialects that do
// not allow alias references there), a grouping variable by its column.
// A key the general part cannot express is noted and skipped.
func sqlOrderKeys(p *Plan, bound map[string]string, aggSQL func(sparql.Aggregate) (string, bool), r *Rendering) []string {
	var keys []string
	for _, k := range p.Agg.OrderBy {
		var expr string
		if a, ok := aggregateByAlias(p.Agg.Aggs, k.Var); ok {
			s, sok := aggSQL(a)
			if !sok {
				r.Notes = append(r.Notes, fmt.Sprintf(
					"sort key $%s aggregates a crowd-bound variable; dropped from ORDER BY", k.Var))
				continue
			}
			expr = s
		} else if col, ok := bound[k.Var]; ok {
			expr = col
		} else {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"sort key $%s is bound only in a crowd clause; dropped from ORDER BY", k.Var))
			continue
		}
		if k.Desc {
			expr += " DESC"
		}
		keys = append(keys, expr)
	}
	return keys
}
