package oassisql

import (
	"fmt"
	"strconv"
	"strings"

	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// Clause names used by Printer.Annotate (and by provenance records) to
// locate a triple in the query.
const (
	ClauseWhere      = "where"
	ClauseSatisfying = "satisfying"
)

// Printer renders a Query in the paper's concrete syntax, optionally
// annotating each data-pattern triple with a trailing comment. The zero
// Printer reproduces Query.String byte for byte; with Annotate set, each
// triple line whose callback returns a non-empty comment gains a
// trailing " # <comment>" (the lexer skips comments, so annotated output
// still parses).
type Printer struct {
	// Annotate returns the comment body (without the leading "# ") for
	// the triple at the given position, or "" for none. clause is
	// ClauseWhere or ClauseSatisfying; sub is the SATISFYING subclause
	// index (-1 for WHERE); i is the triple's index within its pattern.
	Annotate func(clause string, sub, i int, t rdf.Triple) string
}

// String renders the query in the paper's concrete syntax. For the
// running example it reproduces Figure 1 line for line:
//
//	SELECT VARIABLES
//	WHERE
//	{$x instanceOf Place.
//	$x near Forest_Hotel,_Buffalo,_NY}
//	SATISFYING
//	{$x hasLabel "interesting"}
//	ORDER BY DESC(SUPPORT)
//	LIMIT 5
//	AND
//	{[] visit $x.
//	[] in Fall}
//	WITH SUPPORT THRESHOLD = 0.1
func (q *Query) String() string { return Printer{}.Print(q) }

// Print renders the query, consulting the printer's Annotate callback
// for per-triple source comments.
func (p Printer) Print(q *Query) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	byAlias := map[string]sparql.Aggregate{}
	if q.Agg != nil {
		for _, a := range q.Agg.Aggs {
			byAlias[a.As] = a
		}
	}
	if q.Select.All {
		b.WriteString("VARIABLES")
		if q.Agg != nil {
			for _, a := range q.Agg.Aggs {
				b.WriteByte(' ')
				b.WriteString(a.String())
			}
		}
	} else {
		for i, v := range q.Select.Vars {
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
	b.WriteString("\nWHERE\n")
	p.writePattern(&b, q.Where.Triples, q.Where.Filters, ClauseWhere, -1)
	writeAggregation(&b, q.Agg)
	if len(q.Satisfying) == 0 {
		return b.String()
	}
	b.WriteString("\nSATISFYING")
	for i, sc := range q.Satisfying {
		if i > 0 {
			b.WriteString("\nAND")
		}
		b.WriteByte('\n')
		p.writePattern(&b, sc.Pattern.Triples, nil, ClauseSatisfying, i)
		switch {
		case sc.TopK != nil:
			dir := "DESC"
			if !sc.TopK.Desc {
				dir = "ASC"
			}
			fmt.Fprintf(&b, "\nORDER BY %s(SUPPORT)\nLIMIT %d", dir, sc.TopK.K)
		case sc.Threshold != nil:
			fmt.Fprintf(&b, "\nWITH SUPPORT THRESHOLD = %s", formatThreshold(*sc.Threshold))
		}
	}
	return b.String()
}

// writeAggregation renders the analytic extension's modifiers between
// the WHERE pattern and SATISFYING: GROUP BY, query-level ORDER BY and
// LIMIT. Counts themselves render in the SELECT clause.
func writeAggregation(b *strings.Builder, agg *Aggregation) {
	if agg == nil {
		return
	}
	if len(agg.GroupBy) > 0 {
		b.WriteString("\nGROUP BY")
		for _, v := range agg.GroupBy {
			b.WriteString(" $" + v)
		}
	}
	if len(agg.OrderBy) > 0 {
		b.WriteString("\nORDER BY")
		for _, k := range agg.OrderBy {
			dir := "ASC"
			if k.Desc {
				dir = "DESC"
			}
			fmt.Fprintf(b, " %s($%s)", dir, k.Var)
		}
	}
	if agg.Limit > 0 {
		fmt.Fprintf(b, "\nLIMIT %d", agg.Limit)
	}
}

func formatThreshold(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	// The paper writes thresholds with a decimal point (0.1).
	if !strings.ContainsAny(s, ".e") {
		s += ".0"
	}
	return s
}

// writePattern renders a braced pattern. Only WHERE passes filters: a
// subclause takes none (Subclause.validate).
func (p Printer) writePattern(b *strings.Builder, triples []rdf.Triple, filters []sparql.Expr, clause string, sub int) {
	b.WriteByte('{')
	lastComment := false
	for i, t := range triples {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(TripleString(t))
		if i < len(triples)-1 {
			b.WriteByte('.')
		}
		lastComment = false
		if p.Annotate != nil {
			if c := p.Annotate(clause, sub, i, t); c != "" {
				b.WriteString(" # ")
				b.WriteString(strings.ReplaceAll(c, "\n", " "))
				lastComment = true
			}
		}
	}
	for _, f := range filters {
		b.WriteString("\nFILTER(")
		b.WriteString(f.String())
		b.WriteByte(')')
		lastComment = false
	}
	if lastComment {
		// A trailing comment runs to end of line; break it so the
		// closing brace survives re-parsing.
		b.WriteByte('\n')
	}
	b.WriteByte('}')
}

// TripleString renders a triple in OASSIS-QL concrete syntax, without a
// trailing separator: `$x instanceOf Place`.
func TripleString(t rdf.Triple) string {
	return TermString(t.S) + " " + TermString(t.P) + " " + TermString(t.O)
}

// TermString renders a term in OASSIS-QL surface syntax: bare local
// names for IRIs, "$x" for variables, "[]" for anonymous variables and
// quoted strings for literals.
func TermString(t rdf.Term) string {
	switch t.Kind() {
	case rdf.KindVariable:
		if IsAnonVar(t.Value()) {
			return "[]"
		}
		return "$" + t.Value()
	case rdf.KindIRI:
		return t.Local()
	case rdf.KindLiteral:
		return strconv.Quote(t.Value())
	case rdf.KindBlank:
		return "[]"
	default:
		return t.String()
	}
}
