// Package sparql is the pattern engine under NL2CM's two query texts,
// OASSIS-QL (package oassisql, paper §2.1) and the IX detection pattern
// language (package ix, §2.3). Both embed the same SPARQL-like syntax,
// which this package reads through a shared Lexer and a PatternParser:
// group patterns of triples and FILTERs, COUNT calls and ORDER BY keys.
// Neither host has optional or union groups.
//
// Eval evaluates an OASSIS-QL WHERE clause against one snapshot of the
// general-knowledge ontology: a basic graph pattern with filters,
// streamed through a planned join, then the analytic extension's
// grouping and counts, ORDER BY and LIMIT. Its filters are comparisons,
// &&, ||, !, + and -, and IN lists. AggregateBindings runs the grouping
// step over rows computed elsewhere (the crowd engine's crowd-filtered
// bindings). Package ix compiles the parsed detection patterns into a
// matcher over the dependency graph that keeps the semantics of
// Expr.Eval's operators and adds node functions (POS, LEMMA …) and
// vocabulary membership, which only the matcher evaluates.
package sparql

import "nl2cm/internal/rdf"

// Query is what Eval evaluates: a basic graph pattern with filters and
// the solution modifiers of OASSIS-QL's analytic extension. Hosts build
// it from their own syntax trees.
type Query struct {
	// Where is the basic graph pattern: triples that may contain
	// variables.
	Where []rdf.Triple
	// Filters are the FILTER constraints, all of which must hold.
	Filters []Expr
	// GroupBy lists the grouping variable names. Empty with non-empty
	// Aggs means one global group over all solutions.
	GroupBy []string
	// Aggs are the counts evaluated per group. Their aliases become
	// ordinary output variables, usable in ORDER BY like pattern
	// variables.
	Aggs []Aggregate
	// OrderBy lists sort keys applied in order.
	OrderBy []OrderKey
	// Limit caps the number of rows; negative means unlimited.
	Limit int
}

// OrderKey is one ORDER BY sort key.
type OrderKey struct {
	Var  string
	Desc bool
}

// Aggregate is one count, COUNT($Var): the number of a group's rows that
// bind Var, bound to the alias As in the output rows. It is the one
// aggregate of OASSIS-QL's analytic extension, the one Query Composition
// builds.
type Aggregate struct {
	Var string // the counted variable
	As  string // output alias, bound in every group row
}

// Aggregated reports whether the query has a grouping/aggregation step.
func (q *Query) Aggregated() bool { return len(q.GroupBy) > 0 || len(q.Aggs) > 0 }

func (a Aggregate) String() string { return "COUNT($" + a.Var + ") AS $" + a.As }

// Binding is one solution row: variable name to bound term.
type Binding map[string]rdf.Term

// Clone copies the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// Get returns the term bound to the variable, with ok reporting presence.
func (b Binding) Get(name string) (rdf.Term, bool) {
	t, ok := b[name]
	return t, ok
}
