// Package oassisql defines the OASSIS-QL crowd-mining query language of
// Amsterdamer et al. (SIGMOD 2014), which NL2CM targets: the AST, a
// parser, a printer that reproduces the paper's concrete syntax
// (Figure 1), and structural validation.
//
// An OASSIS-QL query has three parts (paper §2.1):
//
//   - SELECT: which variable bindings the query returns;
//   - WHERE: a SPARQL-like selection over the general-knowledge ontology;
//   - SATISFYING: data patterns to be mined from the crowd, split into
//     subclauses, each holding one semantic event/property and carrying
//     either a support threshold or a top/bottom-k selection. A query
//     without it is a plain ontology query.
//
// The paper's language has no aggregates. This package adds one analytic
// extension, the one Query Composition builds for counting questions:
// COUNT($v) [AS $a] in the SELECT clause, and GROUP BY, ORDER BY and
// LIMIT between the WHERE pattern and SATISFYING. WHERE filters are the
// ones the ontology's evaluator runs. Parse refuses every other
// aggregate form (HAVING, SUM, AVG, MIN, MAX, COUNT(*)), a filter
// function call, a named vocabulary (IN V_name) and a filter variable no
// WHERE triple binds, and every other query Validate refuses, with the
// line it found the fault at.
package oassisql

import (
	"fmt"
	"slices"
	"strings"

	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// Pattern is a basic graph pattern with optional filters. Only the WHERE
// clause takes filters: a SATISFYING subclause is a data pattern posed
// to the crowd. A filter is what the ontology's evaluator runs
// (sparql.Eval): comparisons, &&, ||, !, + and -, and IN (…) lists over
// constants and variables the pattern's triples bind.
type Pattern struct {
	Triples []rdf.Triple
	Filters []sparql.Expr
}

// Vars returns the named (non-anonymous) variables of the pattern in
// first-appearance order.
func (p Pattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range p.Triples {
		for _, v := range t.Vars() {
			if !seen[v] && !IsAnonVar(v) {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Clone deep-copies the pattern's triple slice (filters are immutable).
func (p Pattern) Clone() Pattern {
	c := Pattern{Filters: append([]sparql.Expr(nil), p.Filters...)}
	c.Triples = append([]rdf.Triple(nil), p.Triples...)
	return c
}

// IsAnonVar reports whether a variable name denotes an anonymous "[]"
// term ("anything/anyone"), which the printer renders back as [].
func IsAnonVar(name string) bool { return strings.HasPrefix(name, "_anon") }

// TopK is the ORDER BY …(SUPPORT) LIMIT k form of significance selection.
type TopK struct {
	K int
	// Desc selects the k highest-support patterns; false selects the
	// lowest.
	Desc bool
}

// Subclause is one crowd-mining data pattern of the SATISFYING clause.
// Exactly one of TopK and Threshold must be set.
type Subclause struct {
	Pattern Pattern
	// TopK selects the k highest/lowest-support bindings.
	TopK *TopK
	// Threshold is the minimal support in [0,1]; nil when TopK is used.
	Threshold *float64
}

// SelectClause defines the query output.
type SelectClause struct {
	// All corresponds to "SELECT VARIABLES": return bindings of all
	// variables that yield significant patterns.
	All bool
	// Vars lists the projected variables when All is false.
	Vars []string
}

// Aggregation is the analytic extension to the paper's language:
// grouping and counts over the query's rows, with a result window. The
// printer renders counts SPARQL-style inside the SELECT clause (`SELECT
// $city COUNT($a) AS $cnt`) and the grouping modifiers between the WHERE
// pattern and SATISFYING, so a superlative question prints as GROUP BY
// + ORDER BY DESC + LIMIT 1.
type Aggregation struct {
	// GroupBy lists the grouping variables; empty means one global group.
	GroupBy []string
	// Aggs lists the counts; aliases act as output variables.
	Aggs []sparql.Aggregate
	// OrderBy sorts the results (aliases are sortable).
	OrderBy []sparql.OrderKey
	// Limit caps the results; 0 means no limit.
	Limit int
}

// Query is a parsed OASSIS-QL query.
type Query struct {
	Select     SelectClause
	Where      Pattern
	Satisfying []Subclause
	// Agg is the analytic (GROUP BY / COUNT) extension; nil for queries
	// in the paper's core language.
	Agg *Aggregation
}

// Vars returns every named variable in the query in first-appearance
// order (WHERE first, then SATISFYING subclauses).
func (q *Query) Vars() []string {
	var out []string
	seen := map[string]bool{}
	add := func(vs []string) {
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	add(q.Where.Vars())
	for _, sc := range q.Satisfying {
		add(sc.Pattern.Vars())
	}
	return out
}

// Validate checks structural well-formedness: the WHERE filters are ones
// the evaluator runs (Pattern.validateFilters), every SATISFYING
// subclause is valid (Subclause.validate), projected variables occur in
// the query, and the analytic extension keeps its rules
// (validateAggregation). An empty SATISFYING clause is valid: the query
// is a plain ontology query. Parse ends with Validate.
func (q *Query) Validate() error {
	if err := q.Where.validateFilters(); err != nil {
		return err
	}
	for i, sc := range q.Satisfying {
		if err := sc.validate(i + 1); err != nil {
			return err
		}
	}
	if err := q.validateAggregation(); err != nil {
		return err
	}
	if !q.Select.All {
		if len(q.Select.Vars) == 0 {
			return fmt.Errorf("oassisql: SELECT projects no variables")
		}
		known := map[string]bool{}
		for _, v := range q.Vars() {
			known[v] = true
		}
		if q.Agg != nil {
			for _, a := range q.Agg.Aggs {
				known[a.As] = true
			}
		}
		for _, v := range q.Select.Vars {
			if !known[v] {
				return fmt.Errorf("oassisql: SELECT variable $%s not used in query", v)
			}
		}
	}
	return nil
}

// validateFilters refuses the WHERE filters the evaluator cannot run,
// which would fail on every row and so match nothing: a function call
// and a named vocabulary (IN V_name), both of which only IX detection
// patterns know, and a variable no triple of the pattern binds.
func (p Pattern) validateFilters() error {
	if len(p.Filters) == 0 {
		return nil
	}
	bound := map[string]bool{}
	for _, t := range p.Triples {
		t.EachVar(func(v string) { bound[v] = true })
	}
	var err error
	for _, f := range p.Filters {
		sparql.Walk(f, func(e sparql.Expr) {
			if err != nil {
				return
			}
			switch x := e.(type) {
			case *sparql.CallExpr:
				err = fmt.Errorf("oassisql: FILTER calls %s(); OASSIS-QL filters take no functions", x.Name)
			case *sparql.InExpr:
				if x.SetName != "" {
					err = fmt.Errorf("oassisql: FILTER tests vocabulary %s; OASSIS-QL filters take IN (…) lists only", x.SetName)
				}
			case *sparql.VarExpr:
				if !bound[x.Name] {
					err = fmt.Errorf("oassisql: FILTER variable $%s is not bound by any WHERE triple", x.Name)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// validate checks the ith subclause (1-based): triples and no FILTER,
// since it is a data pattern posed to the crowd, and exactly one
// significance criterion, a threshold within [0,1] or a positive k.
func (sc Subclause) validate(i int) error {
	switch {
	case sc.TopK == nil && sc.Threshold == nil:
		return fmt.Errorf("oassisql: subclause %d has neither LIMIT nor THRESHOLD", i)
	case sc.TopK != nil && sc.Threshold != nil:
		return fmt.Errorf("oassisql: subclause %d has both LIMIT and THRESHOLD", i)
	case sc.TopK != nil && sc.TopK.K <= 0:
		return fmt.Errorf("oassisql: subclause %d has non-positive k %d", i, sc.TopK.K)
	case sc.Threshold != nil && (*sc.Threshold < 0 || *sc.Threshold > 1):
		return fmt.Errorf("oassisql: subclause %d threshold %g outside [0,1]", i, *sc.Threshold)
	case len(sc.Pattern.Triples) == 0:
		return fmt.Errorf("oassisql: subclause %d has no triples", i)
	case len(sc.Pattern.Filters) > 0:
		return fmt.Errorf("oassisql: subclause %d has a FILTER; only WHERE takes filters", i)
	}
	return nil
}

// validateAggregation checks the analytic extension: counts over
// variables the query binds, fresh non-colliding aliases, and grouping
// variables and sort keys that occur in the query. A grouped query's
// rows hold only its grouping variables and count aliases, so an
// explicit projection lists every count alias and nothing else beside
// grouping variables, and it sorts by nothing else either.
func (q *Query) validateAggregation() error {
	if q.Agg == nil {
		return nil
	}
	pv := map[string]bool{}
	for _, v := range q.Vars() {
		pv[v] = true
	}
	if len(q.Agg.GroupBy) == 0 && len(q.Agg.Aggs) == 0 && len(q.Agg.OrderBy) == 0 && q.Agg.Limit == 0 {
		return fmt.Errorf("oassisql: empty aggregation extension (use Agg = nil)")
	}
	for _, v := range q.Agg.GroupBy {
		if !pv[v] {
			return fmt.Errorf("oassisql: GROUP BY of undefined variable $%s", v)
		}
	}
	aliases := map[string]bool{}
	for _, a := range q.Agg.Aggs {
		if !pv[a.Var] {
			return fmt.Errorf("oassisql: aggregate over undefined variable $%s", a.Var)
		}
		switch {
		case a.As == "":
			return fmt.Errorf("oassisql: COUNT($%s) has no output alias", a.Var)
		case pv[a.As]:
			return fmt.Errorf("oassisql: aggregate alias $%s collides with a query variable", a.As)
		case aliases[a.As]:
			return fmt.Errorf("oassisql: duplicate aggregate alias $%s", a.As)
		}
		aliases[a.As] = true
	}
	grouped := len(q.Agg.GroupBy) > 0 || len(q.Agg.Aggs) > 0
	// ungrouped reports a name a grouped query's rows do not bind.
	ungrouped := func(v string) bool {
		return grouped && !aliases[v] && !slices.Contains(q.Agg.GroupBy, v)
	}
	// A projected name is a variable or an alias, not both: SELECT $n
	// COUNT($x) AS $n would print as two aggregate calls.
	projected := map[string]bool{}
	for _, v := range q.Select.Vars {
		if aliases[v] && projected[v] {
			return fmt.Errorf("oassisql: aggregate alias $%s collides with a projected variable", v)
		}
		if ungrouped(v) {
			return fmt.Errorf("oassisql: projected variable $%s is neither grouped nor a count", v)
		}
		projected[v] = true
	}
	if !q.Select.All {
		for _, a := range q.Agg.Aggs {
			if !projected[a.As] {
				return fmt.Errorf("oassisql: COUNT($%s) AS $%s is not projected", a.Var, a.As)
			}
		}
	}
	for _, k := range q.Agg.OrderBy {
		switch {
		case !pv[k.Var] && !aliases[k.Var]:
			return fmt.Errorf("oassisql: ORDER BY of undefined variable $%s", k.Var)
		case ungrouped(k.Var):
			return fmt.Errorf("oassisql: ORDER BY $%s, which is neither grouped nor a count", k.Var)
		}
	}
	if q.Agg.Limit < 0 {
		return fmt.Errorf("oassisql: negative LIMIT %d", q.Agg.Limit)
	}
	return nil
}
