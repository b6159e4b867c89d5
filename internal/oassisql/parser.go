package oassisql

import (
	"fmt"
	"strings"

	"nl2cm/internal/sparql"
)

// Parse parses an OASSIS-QL query in the paper's concrete syntax and
// validates it (Query.Validate). A query may end after its WHERE clause
// and analytic modifiers: with no SATISFYING clause it is a plain
// ontology query, as the pipeline prints for a question with no
// individual part. Every error names the line it was found at; a WHERE
// filter the evaluator cannot run is reported at the line its pattern
// starts on.
func Parse(input string) (*Query, error) {
	lx, err := sparql.NewLexer(input)
	if err != nil {
		return nil, fmt.Errorf("oassisql: %w", err)
	}
	p := &parser{lx: lx, pat: sparql.NewPatternParser(lx, nil)}
	q, err := p.query()
	if err != nil {
		return nil, fmt.Errorf("oassisql: %w", err)
	}
	if t := lx.Peek(); t.Kind != sparql.TokEOF {
		return nil, fmt.Errorf("oassisql: %v", lx.Errf("trailing input %q", t.Text))
	}
	return q, nil
}

// MustParse parses a query and panics on error; for tests and embedded
// fixtures.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	lx  *sparql.Lexer
	pat *sparql.PatternParser
}

func (p *parser) keyword(words ...string) bool {
	t := p.lx.Peek()
	if t.Kind != sparql.TokIdent {
		return false
	}
	for _, w := range words {
		if strings.EqualFold(t.Text, w) {
			p.lx.Next()
			return true
		}
	}
	return false
}

func (p *parser) expectKeyword(w string) error {
	if !p.keyword(w) {
		return p.lx.Errf("expected %s, found %q", w, p.lx.Peek().Text)
	}
	return nil
}

func (p *parser) query() (*Query, error) {
	q := &Query{}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if p.keyword("VARIABLES") {
		q.Select.All = true
		if err := p.selectAggregates(q, false); err != nil {
			return nil, err
		}
	} else {
		if err := p.selectAggregates(q, true); err != nil {
			return nil, err
		}
		if len(q.Select.Vars) == 0 {
			return nil, p.lx.Errf("expected VARIABLES or variable list after SELECT")
		}
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	whereStart := p.lx.Peek()
	triples, filters, err := p.pat.GroupPattern()
	if err != nil {
		return nil, err
	}
	q.Where = Pattern{Triples: triples, Filters: filters}
	if err := q.Where.validateFilters(); err != nil {
		return nil, p.lx.ErrAt(whereStart, "%s", strings.TrimPrefix(err.Error(), "oassisql: "))
	}
	if err := p.aggregation(q); err != nil {
		return nil, err
	}
	// Most rules need the whole query: a count, GROUP BY or ORDER BY may
	// name a variable only a SATISFYING subclause binds, and a derived
	// alias must avoid every query variable. Validate checks them once it
	// is read, and a violation is reported where the analytic modifiers
	// end; a subclause's own rules are checked, and reported, at the
	// subclause.
	aggEnd := p.lx.Peek()
	if aggEnd.Kind != sparql.TokEOF {
		if err := p.expectKeyword("SATISFYING"); err != nil {
			return nil, err
		}
		for {
			sc, err := p.subclause(len(q.Satisfying) + 1)
			if err != nil {
				return nil, err
			}
			q.Satisfying = append(q.Satisfying, sc)
			if !p.keyword("AND") {
				break
			}
		}
	}
	if q.Agg != nil {
		deriveAliases(q)
	}
	if err := q.Validate(); err != nil {
		return nil, p.lx.ErrAt(aggEnd, "%s", strings.TrimPrefix(err.Error(), "oassisql: "))
	}
	return q, nil
}

// deriveAliases names, in order, the counts written without AS: each
// takes the first name FreshAlias derives that no query variable,
// projected variable or other alias uses. A projected count's empty
// SELECT slot gets its alias.
func deriveAliases(q *Query) {
	taken := map[string]bool{}
	for _, v := range q.Vars() {
		taken[v] = true
	}
	for _, v := range q.Select.Vars {
		taken[v] = true
	}
	for _, a := range q.Agg.Aggs {
		taken[a.As] = true
	}
	var derived []string
	for i := range q.Agg.Aggs {
		a := &q.Agg.Aggs[i]
		if a.As == "" {
			a.As = sparql.FreshAlias(a.Var, func(name string) bool { return taken[name] })
			taken[a.As] = true
			derived = append(derived, a.As)
		}
	}
	for i, v := range q.Select.Vars {
		if v == "" {
			q.Select.Vars[i], derived = derived[0], derived[1:]
		}
	}
}

// ensureAgg lazily allocates the query's aggregation extension.
func (p *parser) ensureAgg(q *Query) *Aggregation {
	if q.Agg == nil {
		q.Agg = &Aggregation{}
	}
	return q.Agg
}

// selectAggregates consumes the SELECT list: counts (which join both
// the projection and the aggregation extension), and — when vars is set
// — plain projected variables interleaved with them. A count without AS
// keeps an empty alias, and an empty projection slot, until
// deriveAliases names it.
func (p *parser) selectAggregates(q *Query, vars bool) error {
	for {
		if vars && p.lx.Peek().Kind == sparql.TokVar {
			q.Select.Vars = append(q.Select.Vars, p.lx.Next().Text)
			continue
		}
		a, ok, err := p.pat.AggregateCall()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		p.ensureAgg(q).Aggs = append(q.Agg.Aggs, a)
		if vars {
			q.Select.Vars = append(q.Select.Vars, a.As)
		}
	}
}

// aggregation consumes the analytic modifiers between the WHERE pattern
// and SATISFYING: GROUP BY, query-level ORDER BY and LIMIT. Their rules
// are checked once the whole query is read (query).
func (p *parser) aggregation(q *Query) error {
	for {
		switch {
		case p.keyword("GROUP"):
			if err := p.expectKeyword("BY"); err != nil {
				return err
			}
			agg := p.ensureAgg(q)
			for p.lx.Peek().Kind == sparql.TokVar {
				agg.GroupBy = append(agg.GroupBy, p.lx.Next().Text)
			}
			if len(agg.GroupBy) == 0 {
				return p.lx.Errf("expected variables after GROUP BY")
			}
		case p.keyword("ORDER"):
			if err := p.expectKeyword("BY"); err != nil {
				return err
			}
			keys, err := p.pat.OrderKeys()
			if err != nil {
				return err
			}
			p.ensureAgg(q).OrderBy = append(q.Agg.OrderBy, keys...)
		case p.keyword("LIMIT"):
			n := p.lx.Next()
			if n.Kind != sparql.TokNumber {
				return p.lx.Errf("expected number after LIMIT")
			}
			p.ensureAgg(q).Limit = int(n.Num)
		default:
			return nil
		}
	}
}

// subclause reads the ith subclause (1-based) and checks its rules,
// reporting a violation at the line the subclause starts on.
func (p *parser) subclause(i int) (Subclause, error) {
	start := p.lx.Peek()
	triples, filters, err := p.pat.GroupPattern()
	if err != nil {
		return Subclause{}, err
	}
	sc := Subclause{Pattern: Pattern{Triples: triples, Filters: filters}}
	switch {
	case p.keyword("ORDER"):
		if err := p.expectKeyword("BY"); err != nil {
			return Subclause{}, err
		}
		desc := false
		switch {
		case p.keyword("DESC"):
			desc = true
		case p.keyword("ASC"):
		default:
			return Subclause{}, p.lx.Errf("expected ASC or DESC after ORDER BY")
		}
		if t := p.lx.Next(); !(t.Kind == sparql.TokPunct && t.Text == "(") {
			return Subclause{}, p.lx.Errf("expected ( after %s", map[bool]string{true: "DESC", false: "ASC"}[desc])
		}
		if err := p.expectKeyword("SUPPORT"); err != nil {
			return Subclause{}, err
		}
		if t := p.lx.Next(); !(t.Kind == sparql.TokPunct && t.Text == ")") {
			return Subclause{}, p.lx.Errf("expected ) after SUPPORT")
		}
		if err := p.expectKeyword("LIMIT"); err != nil {
			return Subclause{}, err
		}
		n := p.lx.Next()
		if n.Kind != sparql.TokNumber {
			return Subclause{}, p.lx.Errf("expected number after LIMIT")
		}
		sc.TopK = &TopK{K: int(n.Num), Desc: desc}
	case p.keyword("WITH"):
		if err := p.expectKeyword("SUPPORT"); err != nil {
			return Subclause{}, err
		}
		if err := p.expectKeyword("THRESHOLD"); err != nil {
			return Subclause{}, err
		}
		if t := p.lx.Next(); !(t.Kind == sparql.TokOp && (t.Text == "=" || t.Text == "==")) {
			return Subclause{}, p.lx.Errf("expected = after THRESHOLD")
		}
		n := p.lx.Next()
		if n.Kind != sparql.TokNumber {
			return Subclause{}, p.lx.Errf("expected number after THRESHOLD =")
		}
		v := n.Num
		sc.Threshold = &v
	default:
		return Subclause{}, p.lx.Errf("subclause needs ORDER BY ...(SUPPORT) LIMIT k or WITH SUPPORT THRESHOLD = t")
	}
	if err := sc.validate(i); err != nil {
		return Subclause{}, p.lx.ErrAt(start, "%s", strings.TrimPrefix(err.Error(), "oassisql: "))
	}
	return sc, nil
}
