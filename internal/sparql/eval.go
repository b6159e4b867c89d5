package sparql

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nl2cm/internal/rdf"
)

// Source is any triple collection that can enumerate and count the
// matches of a pattern (variables act as wildcards). *rdf.Snapshot
// implements it, so one Eval reads one epoch of a store. CountMatch is
// the join planner's cardinality estimate, which a snapshot answers from
// posting-list lengths.
type Source interface {
	MatchFunc(pattern rdf.Triple, fn func(rdf.Triple) bool)
	CountMatch(pattern rdf.Triple) int
}

// Eval evaluates the query against the source and returns the solution
// bindings, filtered, grouped, ordered and limited per the query. The
// caller pins the source: a store's reader passes one rdf.Snapshot, so
// planning and every join step see a single epoch even while write
// batches publish. The query is one its host validated: a filter that
// errors on a row (a function call, a named vocabulary, an unbound
// variable) drops the row, per SPARQL semantics for type errors.
//
// Internally rows are slot-indexed term slices that share storage with
// their parent row until a join step binds a new variable; the map-form
// Binding is only materialized at this API boundary. The basic graph
// pattern streams depth-first through the planned join order without
// materializing per-pattern intermediate row sets, and filters whose
// variables are all bound by the pattern run inside the join, pruning
// rows before they fan out. Row order before ORDER BY is unspecified.
//
// The join looks at ctx once every cancelStride candidate matches; once
// ctx is done, Eval stops and returns ctx.Err().
func Eval(ctx context.Context, q *Query, src Source) ([]Binding, error) {
	if src == nil {
		return nil, fmt.Errorf("sparql: nil source")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := compileQuery(q)
	e := &exec{c: c, src: src, view: rowView{c: c}, ctx: ctx}

	// Plan once, attach every filter whose variables the pattern binds,
	// and stream the join from the nil row, which binds nothing; a row is
	// allocated on its first binding.
	steps, postFilters := attachFilters(planBGP(q.Where, src), q.Filters, c)
	rows := e.extend(nil, steps, 0, nil)
	if e.err != nil {
		return nil, e.err
	}
	if len(q.Where) == 0 {
		rows = [][]rdf.Term{make([]rdf.Term, len(c.names))} // the empty BGP's one solution
	}

	// Filters that could not run inside the join: variables the pattern
	// never binds, or no pattern at all.
	if len(postFilters) > 0 {
		kept := rows[:0]
		for _, r := range rows {
			if e.filtersPass(postFilters, r) {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	return e.finish(q, rows), nil
}

// finish applies the query's solution modifiers to the rows, in SPARQL
// order: grouping and counts; ORDER BY; LIMIT. It materializes the
// surviving rows as Bindings. It rewrites rows in place, so the caller
// must not reuse them.
func (e *exec) finish(q *Query, rows [][]rdf.Term) []Binding {
	c := e.c
	// Grouping: collapse rows into per-group rows binding the GROUP BY
	// variables and count aliases.
	if q.Aggregated() {
		rows = e.aggregateRows(q, rows)
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

	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}

	// Materialize map-form bindings at the API boundary. The output is
	// freshly allocated, so a LIMIT window never pins a larger backing
	// array.
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

// attachFilters assigns each filter to the earliest step of the plan at
// which all its variables are bound. Filters referencing variables
// outside the plan are returned for post-join evaluation. Pushing a
// filter into the join is sound because variables bind exactly once and
// every operator is pure.
func attachFilters(plan []rdf.Triple, filters []Expr, c *compiled) ([]planStep, []Expr) {
	steps := make([]planStep, len(plan))
	for i, p := range plan {
		steps[i].pat = p
	}
	var post []Expr
	for _, f := range filters {
		vars := map[string]bool{}
		Walk(f, func(x Expr) {
			if v, ok := x.(*VarExpr); ok {
				vars[v.Name] = true
			}
		})
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

// cancelStride is the number of candidate matches the join takes
// between two looks at its context. A look costs a lock and no
// allocation; a stride is about a millisecond of join work even when
// every candidate runs a filter.
const cancelStride = 1024

// exec carries the per-Eval state shared by the join recursion.
type exec struct {
	c    *compiled
	src  Source
	view rowView
	// ctx is looked at once every cancelStride candidate matches, which
	// candidates counts; err is ctx's error once the join stopped for it.
	ctx        context.Context
	candidates int
	err        error
}

// extend streams r depth-first through steps[depth:], appending every
// complete solution to out. Pattern matches flow straight into the next
// join level; no per-level row set is materialized. Once the context is
// done, every level stops matching and e.err is set.
func (e *exec) extend(r []rdf.Term, steps []planStep, depth int, out [][]rdf.Term) [][]rdf.Term {
	if depth == len(steps) {
		return append(out, r)
	}
	st := steps[depth]
	concrete := e.substituteRow(st.pat, r)
	e.src.MatchFunc(concrete, func(t rdf.Triple) bool {
		if e.candidates++; e.candidates%cancelStride == 0 {
			e.err = e.ctx.Err()
		}
		if e.err != nil {
			return false
		}
		nr, ok := e.unifyRow(concrete, t, r)
		if !ok {
			return true
		}
		if len(st.filters) > 0 && !e.filtersPass(st.filters, nr) {
			return true
		}
		out = e.extend(nr, steps, depth+1, out)
		return e.err == nil
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
		v, err := f.Eval(&e.view)
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
	var sb strings.Builder
	for _, k := range b.vars() {
		sb.WriteString(strconv.Itoa(len(k)))
		sb.WriteByte(':')
		sb.WriteString(k)
		writeTermKey(&sb, b[k])
	}
	return sb.String()
}

// String prints the binding as the command-line tools and the daemon
// show it: "$v = Local" for each variable in name order, as BindingKey
// orders them, joined by ", ", so a row prints the same on every run.
func (b Binding) String() string {
	var sb strings.Builder
	for i, k := range b.vars() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("$" + k + " = " + b[k].Local())
	}
	return sb.String()
}

// vars returns the binding's variable names, sorted.
func (b Binding) vars() []string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
