package rdf

import (
	"fmt"
	"sort"
)

// Triple is a single RDF statement. Any position may hold a variable when
// the triple is used as a query pattern; triples stored in a
// ShardedStore must be ground.
type Triple struct {
	S, P, O Term
}

// T is shorthand for constructing a Triple.
func T(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// IsGround reports whether no position holds a variable.
func (t Triple) IsGround() bool {
	return t.S.IsConcrete() && t.P.IsConcrete() && t.O.IsConcrete()
}

// Vars returns the names of the variables appearing in the triple, in
// subject-predicate-object order, without duplicates.
func (t Triple) Vars() []string {
	var out []string
	t.EachVar(func(v string) { out = append(out, v) })
	return out
}

// EachVar calls fn for each distinct variable name in the triple, in
// subject-predicate-object order, without allocating. Query planning and
// compilation walk pattern variables in inner loops, where the slice
// Vars builds per call is measurable.
func (t Triple) EachVar(fn func(string)) {
	sv := t.S.IsVar()
	pv := t.P.IsVar()
	if sv {
		fn(t.S.Value())
	}
	if pv && !(sv && t.P.Value() == t.S.Value()) {
		fn(t.P.Value())
	}
	if t.O.IsVar() &&
		!(sv && t.O.Value() == t.S.Value()) &&
		!(pv && t.O.Value() == t.P.Value()) {
		fn(t.O.Value())
	}
}

// Compare orders triples lexicographically by S, P, O.
func (t Triple) Compare(o Triple) int {
	if c := t.S.Compare(o.S); c != 0 {
		return c
	}
	if c := t.P.Compare(o.P); c != 0 {
		return c
	}
	return t.O.Compare(o.O)
}

func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}

// SortTriples sorts a slice of triples in place in S, P, O order.
func SortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}
