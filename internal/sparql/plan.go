package sparql

import (
	"math"

	"nl2cm/internal/rdf"
)

// planBGP orders the triple patterns of a basic graph pattern for a
// left-deep streaming join. The input slice is not modified.
//
// The plan is greedy by estimated result size: at each step the
// cheapest remaining pattern is picked, where a pattern's base estimate
// is the source's count with only its concrete positions bound,
// discounted for every already-bound variable position (a bound
// variable turns an enumeration into a per-row lookup). Patterns
// disconnected from the bound set are penalized so cartesian products
// run last. Ties resolve by input position, keeping plans
// deterministic. The IX matcher (internal/ix) orders a detection
// pattern's triples the same way, so that each anchor keeps the same
// first row; its oracle tests compare the two.
func planBGP(patterns []rdf.Triple, src Source) []rdf.Triple {
	if len(patterns) <= 1 {
		return patterns
	}
	isBound := map[string]bool{}
	remaining := make([]rdf.Triple, len(patterns))
	copy(remaining, patterns)
	plan := make([]rdf.Triple, 0, len(patterns))
	for len(remaining) > 0 {
		best, bestCost := 0, math.Inf(1)
		for i, p := range remaining {
			if cost := estimateCost(p, isBound, src); cost < bestCost {
				best, bestCost = i, cost
			}
		}
		p := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		plan = append(plan, p)
		p.EachVar(func(v string) { isBound[v] = true })
	}
	return plan
}

// estimateCost scores one pattern against the current bound-variable
// set. The base is the index cardinality with concrete positions only;
// each bound variable divides it (the join key makes the per-row match
// far smaller than the whole posting list), and a pattern sharing no
// bound variable at all is pushed behind connected ones by a large
// cartesian-product penalty.
func estimateCost(p rdf.Triple, bound map[string]bool, src Source) float64 {
	wildcard := func(t rdf.Term, name string) rdf.Term {
		if t.IsVar() {
			return rdf.NewVar(name)
		}
		return t
	}
	base := float64(src.CountMatch(rdf.T(
		wildcard(p.S, "s"), wildcard(p.P, "p"), wildcard(p.O, "o"))))
	boundVars, unboundVars := 0, 0
	p.EachVar(func(v string) {
		if bound[v] {
			boundVars++
		} else {
			unboundVars++
		}
	})
	cost := base
	for i := 0; i < boundVars; i++ {
		// Each bound position acts as an equality selection. The divisor
		// is a fixed selectivity guess; exact per-value counts are
		// unknown at plan time because the join value differs per row.
		cost /= 16
	}
	if boundVars == 0 && unboundVars > 0 && len(bound) > 0 {
		// Disconnected from everything bound so far: a cartesian
		// product multiplies the intermediate result by this pattern's
		// full cardinality. Schedule after connected patterns.
		cost = cost*1e6 + 1e6
	}
	return cost
}

// compiled is the per-query slot table: a dense slot for every variable
// that the query's triple patterns can bind, then for every count alias
// (and, in AggregateBindings, for every variable the input rows bind).
type compiled struct {
	slots map[string]int
	names []string
}

// slot returns the variable's slot, assigning the next one on first
// sight.
func (c *compiled) slot(name string) int {
	s, ok := c.slots[name]
	if !ok {
		s = len(c.names)
		c.slots[name] = s
		c.names = append(c.names, name)
	}
	return s
}

// compileQuery assigns slots in first-appearance order. Count aliases
// get slots of their own so that ORDER BY addresses them like pattern
// variables.
func compileQuery(q *Query) *compiled {
	c := &compiled{slots: map[string]int{}}
	for _, p := range q.Where {
		p.EachVar(func(v string) { c.slot(v) })
	}
	for _, a := range q.Aggs {
		c.slot(a.As)
	}
	return c
}

// Walk calls fn for e and then for each of its operands, depth first
// and left to right: the walk that Eval's filter placement, OASSIS-QL's
// filter rules and a host's rewriting of constants share.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	switch x := e.(type) {
	case *NotExpr:
		Walk(x.X, fn)
	case *BinExpr:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *CallExpr:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	case *InExpr:
		Walk(x.X, fn)
		for _, it := range x.List {
			Walk(it, fn)
		}
	}
}
