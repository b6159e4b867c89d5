// Package sparql implements the SPARQL subset that NL2CM depends on: a
// parser and evaluator for SELECT queries with basic graph patterns,
// FILTER expressions, DISTINCT, ORDER BY, LIMIT and OFFSET.
//
// The engine evaluates the WHERE clause of OASSIS-QL queries against the
// general-knowledge ontology. Its parser and filter expressions also
// serve the IX detection pattern language (paper §2.3): package ix
// compiles the parsed patterns into a matcher over the dependency graph
// that keeps the semantics of Expr.Eval, with functions and vocabulary
// membership tests like those an Env provides.
package sparql

import (
	"fmt"
	"strings"

	"nl2cm/internal/rdf"
)

// Query is a parsed SELECT query.
type Query struct {
	// Vars lists the projected variable names; empty means "*" (all).
	Vars []string
	// Distinct removes duplicate rows.
	Distinct bool
	// Where is the basic graph pattern: triples that may contain
	// variables.
	Where []rdf.Triple
	// Optionals are OPTIONAL groups, each left-joined to the main
	// pattern: rows keep their bindings even when a group has no match.
	Optionals [][]rdf.Triple
	// Unions are union blocks; each block holds alternative basic graph
	// patterns whose solutions are combined.
	Unions [][][]rdf.Triple
	// Filters are the FILTER constraints, all of which must hold.
	Filters []Expr
	// GroupBy lists the grouping variable names. Empty with non-empty
	// Aggs means one global group over all solutions.
	GroupBy []string
	// Aggs are the aggregate computations evaluated per group. Their
	// aliases become ordinary output variables, usable in ORDER BY and
	// projected like pattern variables.
	Aggs []Aggregate
	// Having are post-grouping constraints over group variables and
	// aggregate aliases; rows of groups failing any constraint are
	// dropped (an erroring constraint drops the group, like FILTER).
	Having []Expr
	// OrderBy lists sort keys applied in order.
	OrderBy []OrderKey
	// Limit caps the number of rows; negative means unlimited.
	Limit int
	// Offset skips rows after ordering.
	Offset int
}

// OrderKey is one ORDER BY sort key.
type OrderKey struct {
	Var  string
	Desc bool
}

// Aggregate is one aggregate computation: Func applied to Var within each
// group, bound to the alias As in the output rows. An empty Var means "*"
// and is only valid for COUNT.
type Aggregate struct {
	Func string // COUNT, SUM, AVG, MIN or MAX (upper-case)
	Var  string // argument variable; empty means * (COUNT only)
	As   string // output alias, bound in every group row
}

// AggFuncs names the supported aggregate functions.
var AggFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// Aggregated reports whether the query has a grouping/aggregation step.
func (q *Query) Aggregated() bool { return len(q.GroupBy) > 0 || len(q.Aggs) > 0 }

func (a Aggregate) String() string {
	arg := "*"
	if a.Var != "" {
		arg = "$" + a.Var
	}
	return fmt.Sprintf("%s(%s) AS $%s", a.Func, arg, a.As)
}

// Validate checks the structural invariants every successfully parsed
// query satisfies: projected and sort variables are named, subjects and
// predicates are IRIs or variables (literals only bind in object
// position), variable terms carry names, filter expressions are present
// and the offset is non-negative. Fuzzing asserts it on parser output.
func (q *Query) Validate() error {
	for _, v := range q.Vars {
		if v == "" {
			return fmt.Errorf("sparql: empty projected variable name")
		}
	}
	groups := [][]rdf.Triple{q.Where}
	groups = append(groups, q.Optionals...)
	for _, block := range q.Unions {
		groups = append(groups, block...)
	}
	for _, g := range groups {
		for _, t := range g {
			if k := t.S.Kind(); k != rdf.KindIRI && k != rdf.KindVariable && k != rdf.KindBlank {
				return fmt.Errorf("sparql: subject of %s is a %s", t, k)
			}
			if k := t.P.Kind(); k != rdf.KindIRI && k != rdf.KindVariable {
				return fmt.Errorf("sparql: predicate of %s is a %s", t, k)
			}
			for _, term := range []rdf.Term{t.S, t.P, t.O} {
				if term.Kind() == rdf.KindVariable && term.Value() == "" {
					return fmt.Errorf("sparql: unnamed variable in %s", t)
				}
			}
		}
	}
	for _, f := range q.Filters {
		if f == nil {
			return fmt.Errorf("sparql: nil filter expression")
		}
	}
	if err := q.validateAggregation(groups); err != nil {
		return err
	}
	for _, k := range q.OrderBy {
		if k.Var == "" {
			return fmt.Errorf("sparql: empty ORDER BY variable")
		}
	}
	if q.Offset < 0 {
		return fmt.Errorf("sparql: negative offset %d", q.Offset)
	}
	return nil
}

// validateAggregation checks the grouping invariants: GROUP BY variables
// are defined by some pattern, aggregate functions are known, aliases are
// named, unique and distinct from pattern variables, HAVING only appears
// on aggregated queries, and — when aggregating — every projected
// variable is a group variable or an aggregate alias (other pattern
// variables have no single value per group).
func (q *Query) validateAggregation(groups [][]rdf.Triple) error {
	if !q.Aggregated() {
		if len(q.Having) > 0 {
			return fmt.Errorf("sparql: HAVING without GROUP BY or aggregates")
		}
		return nil
	}
	patternVars := map[string]bool{}
	for _, g := range groups {
		for _, t := range g {
			t.EachVar(func(v string) { patternVars[v] = true })
		}
	}
	grouped := map[string]bool{}
	for _, v := range q.GroupBy {
		if v == "" {
			return fmt.Errorf("sparql: empty GROUP BY variable")
		}
		if !patternVars[v] {
			return fmt.Errorf("sparql: GROUP BY of undefined variable $%s", v)
		}
		grouped[v] = true
	}
	aliases := map[string]bool{}
	for _, a := range q.Aggs {
		if !AggFuncs[a.Func] {
			return fmt.Errorf("sparql: unknown aggregate function %s()", a.Func)
		}
		if a.Var == "" && a.Func != "COUNT" {
			return fmt.Errorf("sparql: %s(*) is not valid; only COUNT takes *", a.Func)
		}
		if a.As == "" {
			return fmt.Errorf("sparql: aggregate %s has no output alias", a.Func)
		}
		if patternVars[a.As] {
			return fmt.Errorf("sparql: aggregate alias $%s collides with a pattern variable", a.As)
		}
		if aliases[a.As] {
			return fmt.Errorf("sparql: duplicate aggregate alias $%s", a.As)
		}
		aliases[a.As] = true
	}
	for _, v := range q.Vars {
		if !grouped[v] && !aliases[v] {
			return fmt.Errorf("sparql: projected variable $%s is neither grouped nor an aggregate alias", v)
		}
	}
	for _, h := range q.Having {
		if h == nil {
			return fmt.Errorf("sparql: nil HAVING expression")
		}
	}
	return nil
}

// String reconstructs a textual form of the query.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	if len(q.Vars) == 0 {
		b.WriteString("*")
	} else {
		byAlias := map[string]Aggregate{}
		for _, a := range q.Aggs {
			byAlias[a.As] = a
		}
		for i, v := range q.Vars {
			if i > 0 {
				b.WriteByte(' ')
			}
			if a, ok := byAlias[v]; ok {
				b.WriteString(a.String())
			} else {
				b.WriteString("$" + v)
			}
		}
	}
	b.WriteString("\nWHERE {\n")
	for _, t := range q.Where {
		fmt.Fprintf(&b, "  %s %s %s .\n", termStr(t.S), termStr(t.P), termStr(t.O))
	}
	for _, block := range q.Unions {
		for i, alt := range block {
			if i > 0 {
				b.WriteString("  UNION\n")
			}
			b.WriteString("  {\n")
			for _, t := range alt {
				fmt.Fprintf(&b, "    %s %s %s .\n", termStr(t.S), termStr(t.P), termStr(t.O))
			}
			b.WriteString("  }\n")
		}
	}
	for _, opt := range q.Optionals {
		b.WriteString("  OPTIONAL {\n")
		for _, t := range opt {
			fmt.Fprintf(&b, "    %s %s %s .\n", termStr(t.S), termStr(t.P), termStr(t.O))
		}
		b.WriteString("  }\n")
	}
	for _, f := range q.Filters {
		fmt.Fprintf(&b, "  FILTER(%s)\n", f)
	}
	b.WriteString("}")
	if len(q.GroupBy) > 0 {
		b.WriteString("\nGROUP BY")
		for _, v := range q.GroupBy {
			b.WriteString(" $" + v)
		}
	}
	for _, h := range q.Having {
		fmt.Fprintf(&b, "\nHAVING(%s)", h)
	}
	for _, k := range q.OrderBy {
		dir := "ASC"
		if k.Desc {
			dir = "DESC"
		}
		fmt.Fprintf(&b, "\nORDER BY %s($%s)", dir, k.Var)
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, "\nLIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&b, "\nOFFSET %d", q.Offset)
	}
	return b.String()
}

// termStr renders a term in query syntax: bare local names for IRIs in
// the default namespace would require context, so IRIs print in angle
// brackets and variables with "$".
func termStr(t rdf.Term) string { return t.String() }

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
