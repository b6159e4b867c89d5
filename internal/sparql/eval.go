package sparql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nl2cm/internal/rdf"
)

// Source is any triple collection that can enumerate and count the
// matches of a pattern (variables act as wildcards). *rdf.ShardedStore
// and its Snapshots implement it. CountMatch is the join planner's
// cardinality estimate, which the store answers from posting-list
// lengths.
type Source interface {
	MatchFunc(pattern rdf.Triple, fn func(rdf.Triple) bool)
	CountMatch(pattern rdf.Triple) int
}

// pin resolves a mutable source to an immutable point-in-time view when
// the source supports it (*rdf.ShardedStore does). Eval pins once at
// query start, so planning and every join step of one query see a
// single epoch even while write batches publish concurrently; mid-query
// reads never mix epochs.
func pin(src Source) Source {
	if s, ok := src.(interface{ Snapshot() *rdf.Snapshot }); ok {
		return s.Snapshot()
	}
	return src
}

// Eval evaluates the query against the source and returns the solution
// bindings, projected, filtered, ordered and limited per the query.
//
// Internally rows are slot-indexed term slices that share storage with
// their parent row until a join step binds a new variable; the map-form
// Binding is only materialized at this API boundary. Basic graph
// patterns stream depth-first through the planned join order without
// materializing per-pattern intermediate row sets, and filters whose
// variables are all bound by the main pattern run inside the join,
// pruning rows before they fan out. Row order before ORDER BY is
// unspecified.
func Eval(q *Query, src Source, env *Env) ([]Binding, error) {
	if src == nil {
		return nil, fmt.Errorf("sparql: nil source")
	}
	src = pin(src)
	spec, err := aggregationSpec(q)
	if err != nil {
		return nil, err
	}
	c := compileQuery(q, spec)
	e := &exec{c: c, src: src, env: env, view: rowView{c: c}}

	// Main basic graph pattern: plan once, attach every filter whose
	// variables are certainly bound by it, stream the join from the nil
	// row, which binds nothing; a row is allocated on its first binding.
	plan := planBGP(q.Where, nil, src)
	steps, postFilters := attachFilters(plan, q.Filters, c)
	rows := e.extend(nil, steps, 0, nil)
	if len(q.Where) == 0 {
		rows = [][]rdf.Term{make([]rdf.Term, len(c.names))} // the empty BGP's one solution
	}

	// Union blocks: each block extends the rows through any of its
	// alternative patterns (bag semantics: a row reached through two
	// alternatives appears twice). mayBind tracks which variables earlier
	// parts may have bound, informing the planner; it is only needed when
	// there is anything beyond the main pattern to plan.
	var mayBind map[string]bool
	markVars := func(patterns []rdf.Triple) {
		for _, p := range patterns {
			p.EachVar(func(v string) { mayBind[v] = true })
		}
	}
	if len(q.Unions) > 0 || len(q.Optionals) > 0 {
		mayBind = map[string]bool{}
		markVars(q.Where)
	}
	for _, block := range q.Unions {
		var merged [][]rdf.Term
		for _, alt := range block {
			altSteps := toSteps(planBGP(alt, mayBind, src))
			for _, r := range rows {
				merged = e.extend(r, altSteps, 0, merged)
			}
		}
		for _, alt := range block {
			markVars(alt)
		}
		rows = merged
		if len(rows) == 0 {
			break
		}
	}

	// Optional groups: left join — a row without a match survives
	// unchanged. Each group is planned once, not once per row.
	for _, opt := range q.Optionals {
		optSteps := toSteps(planBGP(opt, mayBind, src))
		joined := make([][]rdf.Term, 0, len(rows))
		for _, r := range rows {
			n := len(joined)
			joined = e.extend(r, optSteps, 0, joined)
			if len(joined) == n {
				joined = append(joined, r)
			}
		}
		markVars(opt)
		rows = joined
	}

	// Filters that could not run inside the main join (variables bound
	// only by OPTIONAL/UNION parts, or not at all).
	if len(postFilters) > 0 {
		kept := rows[:0]
		for _, r := range rows {
			if e.filtersPass(postFilters, r) {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	return e.finish(q, spec, rows), nil
}

// finish applies the query's solution modifiers to the rows, in SPARQL
// order: grouping, aggregates and HAVING; ORDER BY; projection;
// DISTINCT; OFFSET/LIMIT. It materializes the surviving rows as
// Bindings. It rewrites rows in place, so the caller must not reuse
// them.
func (e *exec) finish(q *Query, spec *aggSpec, rows [][]rdf.Term) []Binding {
	c := e.c
	// Grouping and aggregation: collapse rows into per-group rows binding
	// the GROUP BY variables and aggregate aliases, then apply HAVING.
	if spec != nil {
		rows = e.aggregateRows(spec, rows)
	}

	// Order. Per SPARQL ordering semantics, an unbound sort variable
	// sorts before any bound value (so under DESC it sorts last); two
	// unbound values compare equal and fall through to the next key.
	if len(q.OrderBy) > 0 {
		keys := make([]struct {
			slot int
			has  bool
			desc bool
		}, len(q.OrderBy))
		for i, k := range q.OrderBy {
			keys[i].slot, keys[i].has = c.slots[k.Var]
			keys[i].desc = k.Desc
		}
		sort.SliceStable(rows, func(i, j int) bool {
			for _, k := range keys {
				if !k.has {
					continue // variable no row can bind: all equal
				}
				ti, tj := rows[i][k.slot], rows[j][k.slot]
				iok, jok := ti != unbound, tj != unbound
				if !iok || !jok {
					if iok == jok {
						continue
					}
					less := !iok // unbound before bound
					if k.desc {
						return !less
					}
					return less
				}
				c := ti.Compare(tj)
				if c == 0 {
					continue
				}
				if k.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	// Projection clears the dropped slots, which hides them from
	// DISTINCT and from materialization. Clearing in place is safe
	// because rows that share storage hold identical terms.
	if len(q.Vars) > 0 {
		keep := make([]bool, len(c.names))
		for _, v := range q.Vars {
			if slot, ok := c.slots[v]; ok {
				keep[slot] = true
			}
		}
		for _, r := range rows {
			for slot, k := range keep {
				if !k {
					r[slot] = unbound
				}
			}
		}
	}

	// Distinct.
	if q.Distinct {
		seen := map[string]bool{}
		kept := rows[:0]
		var sb strings.Builder
		for _, r := range rows {
			sb.Reset()
			writeRowKey(&sb, r)
			key := sb.String()
			if !seen[key] {
				seen[key] = true
				kept = append(kept, r)
			}
		}
		rows = kept
	}

	// Offset / limit.
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}

	// Materialize map-form bindings at the API boundary. The output is
	// freshly allocated, so OFFSET/LIMIT windows never pin a larger
	// backing array.
	out := make([]Binding, len(rows))
	for i, r := range rows {
		b := make(Binding)
		for slot, name := range c.names {
			if r[slot] != unbound {
				b[name] = r[slot]
			}
		}
		out[i] = b
	}
	return out
}

// A row is one solution during evaluation: terms indexed by compiled
// slot, where unbound, the zero Term, marks an unbound slot. No source
// yields the zero Term (rdf.ShardedStore refuses to store it), so it
// never stands for data. Extending a row copies the slice once
// (copy-on-write); rows that bind nothing new share their parent's
// storage.
var unbound rdf.Term

// rowView adapts a row to the Vars interface for filter evaluation; one
// view per execution is re-pointed between rows to avoid allocating an
// adapter per filter call.
type rowView struct {
	c *compiled
	r []rdf.Term
}

// Get implements Vars.
func (v *rowView) Get(name string) (rdf.Term, bool) {
	slot, ok := v.c.slots[name]
	if !ok || v.r[slot] == unbound {
		return rdf.Term{}, false
	}
	return v.r[slot], true
}

// planStep is one joined pattern plus the filters that become decidable
// once its variables are bound.
type planStep struct {
	pat     rdf.Triple
	filters []Expr
}

func toSteps(plan []rdf.Triple) []planStep {
	steps := make([]planStep, len(plan))
	for i, p := range plan {
		steps[i].pat = p
	}
	return steps
}

// attachFilters assigns each filter to the earliest step of the main
// plan at which all its variables are bound. Filters referencing
// variables outside the plan (or expression types the variable walker
// does not know) are returned for post-join evaluation. Pushing a filter
// into the join is sound because variables bind exactly once — later
// OPTIONAL/UNION extensions cannot change a slot the main pattern bound
// — and Env functions and sets are assumed pure.
func attachFilters(plan []rdf.Triple, filters []Expr, c *compiled) ([]planStep, []Expr) {
	steps := toSteps(plan)
	var post []Expr
	for _, f := range filters {
		vars := map[string]bool{}
		if !exprVars(f, vars) {
			post = append(post, f)
			continue
		}
		at := -1
		if len(steps) > 0 {
			need := len(vars)
			have := map[string]bool{}
			for i, st := range steps {
				st.pat.EachVar(func(v string) {
					if vars[v] {
						have[v] = true
					}
				})
				if len(have) == need {
					at = i
					break
				}
			}
		}
		if at < 0 {
			post = append(post, f)
			continue
		}
		steps[at].filters = append(steps[at].filters, f)
	}
	return steps, post
}

// exec carries the per-Eval state shared by the join recursion.
type exec struct {
	c    *compiled
	src  Source
	env  *Env
	view rowView
}

// extend streams r depth-first through steps[depth:], appending every
// complete solution to out. Pattern matches flow straight into the next
// join level; no per-level row set is materialized.
func (e *exec) extend(r []rdf.Term, steps []planStep, depth int, out [][]rdf.Term) [][]rdf.Term {
	if depth == len(steps) {
		return append(out, r)
	}
	st := steps[depth]
	concrete := e.substituteRow(st.pat, r)
	e.src.MatchFunc(concrete, func(t rdf.Triple) bool {
		nr, ok := e.unifyRow(concrete, t, r)
		if !ok {
			return true
		}
		if len(st.filters) > 0 && !e.filtersPass(st.filters, nr) {
			return true
		}
		out = e.extend(nr, steps, depth+1, out)
		return true
	})
	return out
}

// substituteRow replaces variables the row binds with their terms.
func (e *exec) substituteRow(p rdf.Triple, r []rdf.Term) rdf.Triple {
	if r == nil {
		return p
	}
	sub := func(t rdf.Term) rdf.Term {
		if t.IsVar() {
			if bt := r[e.c.slots[t.Value()]]; bt != unbound {
				return bt
			}
		}
		return t
	}
	return rdf.T(sub(p.S), sub(p.P), sub(p.O))
}

// unifyRow extends r with the variable assignments implied by matching
// pattern p against ground triple t. The term slice is copied at most
// once, on the first new binding (the nil row gets a fresh one); a
// repeated variable must take the same value in all positions.
func (e *exec) unifyRow(p rdf.Triple, t rdf.Triple, r []rdf.Term) ([]rdf.Term, bool) {
	nr := r
	copied := false
	if nr == nil {
		nr, copied = make([]rdf.Term, len(e.c.names)), true
	}
	bind := func(pt, gt rdf.Term) bool {
		if !pt.IsVar() {
			return pt.Equal(gt)
		}
		slot := e.c.slots[pt.Value()]
		if prev := nr[slot]; prev != unbound {
			return prev.Equal(gt)
		}
		if !copied {
			nr = make([]rdf.Term, len(r))
			copy(nr, r)
			copied = true
		}
		nr[slot] = gt
		return true
	}
	if !bind(p.S, t.S) || !bind(p.P, t.P) || !bind(p.O, t.O) {
		return nil, false
	}
	return nr, true
}

// filtersPass reports whether the row satisfies every filter; an
// erroring filter removes the row, per SPARQL semantics for type errors.
func (e *exec) filtersPass(filters []Expr, r []rdf.Term) bool {
	e.view.r = r
	for _, f := range filters {
		v, err := f.Eval(&e.view, e.env)
		if err != nil || !v.Truthy() {
			return false
		}
	}
	return true
}

// BindingKey returns a canonical, collision-free key for a binding's
// (variable, term) set, suitable for DISTINCT-style deduplication. Every
// variable-length component is length-prefixed, so no choice of variable
// names or term contents can make two distinct bindings collide.
func BindingKey(b Binding) string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(strconv.Itoa(len(k)))
		sb.WriteByte(':')
		sb.WriteString(k)
		writeTermKey(&sb, b[k])
	}
	return sb.String()
}

// writeRowKey writes the collision-free key of a row's bound slots. The
// slot table is fixed for the whole query, so the slot index substitutes
// for the variable name.
func writeRowKey(sb *strings.Builder, r []rdf.Term) {
	for slot, t := range r {
		if t == unbound {
			continue
		}
		sb.WriteString(strconv.Itoa(slot))
		writeTermKey(sb, t)
	}
}

// writeTermKey writes a length-prefixed encoding of every term field.
func writeTermKey(sb *strings.Builder, t rdf.Term) {
	sb.WriteByte(byte('0' + t.Kind()))
	for _, part := range [3]string{t.Value(), t.Datatype(), t.Lang()} {
		sb.WriteString(strconv.Itoa(len(part)))
		sb.WriteByte(':')
		sb.WriteString(part)
	}
}
