package sparql

import (
	"fmt"
	"sort"

	"nl2cm/internal/rdf"
)

// EvalReference is the naive reference evaluator: map-backed bindings
// cloned on every unification, join order chosen by counting unbound
// variables, filters applied after the whole join, and its own grouping
// (refAggregate) and ordering (SortBindings) over map rows. It computes
// the same solution multiset as Eval and is the oracle of the
// differential property tests that pin Eval's and AggregateBindings'
// semantics.
func EvalReference(q *Query, src Source) ([]Binding, error) {
	rows, err := refEvalBGP(q.Where, src)
	if err != nil {
		return nil, err
	}
	// Filters.
	if len(q.Filters) > 0 {
		var kept []Binding
		for _, b := range rows {
			ok := true
			for _, f := range q.Filters {
				v, err := f.Eval(b)
				if err != nil {
					// An erroring filter removes the row, per SPARQL
					// semantics for type errors.
					ok = false
					break
				}
				if !v.Truthy() {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, b)
			}
		}
		rows = kept
	}
	// Grouping and counts before ordering.
	if q.Aggregated() {
		rows = refAggregate(q, rows)
	}
	// Order. Per SPARQL ordering semantics, an unbound sort variable
	// sorts before any bound value (so under DESC it sorts last); two
	// unbound values compare equal and fall through to the next key.
	SortBindings(rows, q.OrderBy)
	// Limit. The retained window is copied so the full result's backing
	// array does not outlive the slice handed to the caller.
	if q.Limit >= 0 && q.Limit < len(rows) {
		out := make([]Binding, q.Limit)
		copy(out, rows)
		rows = out
	}
	return rows, nil
}

// refEvalBGP joins the triple patterns left-to-right, at each step
// choosing the most selective remaining pattern (fewest unbound
// variables).
func refEvalBGP(patterns []rdf.Triple, src Source) ([]Binding, error) {
	if src == nil {
		return nil, fmt.Errorf("sparql: nil source")
	}
	remaining := make([]rdf.Triple, len(patterns))
	copy(remaining, patterns)
	rows := []Binding{{}}
	bound := map[string]bool{}
	for len(remaining) > 0 {
		// Pick the pattern with the fewest unbound variables.
		best, bestScore := 0, -1
		for i, p := range remaining {
			score := 0
			for _, v := range p.Vars() {
				if !bound[v] {
					score++
				}
			}
			if bestScore == -1 || score < bestScore {
				best, bestScore = i, score
			}
		}
		p := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		for _, v := range p.Vars() {
			bound[v] = true
		}
		var next []Binding
		for _, b := range rows {
			concrete := substitute(p, b)
			src.MatchFunc(concrete, func(t rdf.Triple) bool {
				nb, ok := unify(concrete, t, b)
				if ok {
					next = append(next, nb)
				}
				return true
			})
		}
		rows = next
		if len(rows) == 0 {
			return nil, nil
		}
	}
	return rows, nil
}

// substitute replaces bound variables in the pattern with their terms.
func substitute(p rdf.Triple, b Binding) rdf.Triple {
	sub := func(t rdf.Term) rdf.Term {
		if t.IsVar() {
			if bt, ok := b[t.Value()]; ok {
				return bt
			}
		}
		return t
	}
	return rdf.T(sub(p.S), sub(p.P), sub(p.O))
}

// unify extends binding b with the variable assignments implied by
// matching pattern p against ground triple t. A repeated variable must
// take the same value in all positions.
func unify(p rdf.Triple, t rdf.Triple, b Binding) (Binding, bool) {
	nb := b.Clone()
	bind := func(pt, gt rdf.Term) bool {
		if !pt.IsVar() {
			return pt.Equal(gt)
		}
		if prev, ok := nb[pt.Value()]; ok {
			return prev.Equal(gt)
		}
		nb[pt.Value()] = gt
		return true
	}
	if !bind(p.S, t.S) || !bind(p.P, t.P) || !bind(p.O, t.O) {
		return nil, false
	}
	return nb, true
}

// refAggregate is the reference evaluator's grouping step over map-form
// bindings, sharing no code with aggregateRows: a group is keyed by the
// BindingKey of its GROUP BY variables' terms, and each count tallies
// the group's rows that bind the counted variable. Groups emit in
// first-appearance order; with no GROUP BY there is one group, even over
// no rows.
func refAggregate(q *Query, rows []Binding) []Binding {
	var order []string
	reps := map[string]Binding{}
	counts := map[string][]int64{}
	group := func(b Binding) string {
		rep := Binding{}
		for _, v := range q.GroupBy {
			if t, ok := b[v]; ok {
				rep[v] = t
			}
		}
		key := BindingKey(rep)
		if _, ok := reps[key]; !ok {
			order = append(order, key)
			reps[key], counts[key] = rep, make([]int64, len(q.Aggs))
		}
		return key
	}
	for _, b := range rows {
		key := group(b)
		for i, a := range q.Aggs {
			if _, ok := b[a.Var]; ok {
				counts[key][i]++
			}
		}
	}
	if len(q.GroupBy) == 0 && len(order) == 0 {
		group(Binding{})
	}
	out := make([]Binding, len(order))
	for i, key := range order {
		out[i] = reps[key]
		for j, a := range q.Aggs {
			out[i][a.As] = rdf.NewIntLiteral(counts[key][j])
		}
	}
	return out
}

// SortBindings orders map-form solution rows in place under the SPARQL
// ordering semantics both evaluators share: an unbound sort variable
// sorts before any bound value (so under DESC it sorts last), two
// unbound values compare equal and fall through to the next key, and
// bound terms compare under the typed rdf.Term.Compare ordering.
func SortBindings(rows []Binding, keys []OrderKey) {
	if len(keys) == 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			ti, iok := rows[i][k.Var]
			tj, jok := rows[j][k.Var]
			if !iok || !jok {
				if iok == jok {
					continue
				}
				less := !iok // unbound before bound
				if k.Desc {
					return !less
				}
				return less
			}
			c := ti.Compare(tj)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}
