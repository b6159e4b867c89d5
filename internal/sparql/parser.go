package sparql

import (
	"fmt"
	"strings"

	"nl2cm/internal/rdf"
)

// PatternParser reads the pattern grammar over a lexer it shares with a
// host language (OASSIS-QL, the IX detection pattern language), so that
// the host can interleave its own keywords with pattern parsing: group
// patterns of triples and FILTERs, COUNT calls and ORDER BY keys.
type PatternParser struct {
	lx *Lexer
	// resolve maps a bare identifier to its term; nil makes it an IRI
	// whose value is the identifier, the OASSIS-QL surface syntax.
	resolve func(ident string) rdf.Term
	anon    int
}

// NewPatternParser wraps a lexer for embedded pattern parsing. resolve
// maps bare identifiers to terms; when nil, an identifier becomes an IRI
// whose value is the identifier.
func NewPatternParser(lx *Lexer, resolve func(ident string) rdf.Term) *PatternParser {
	return &PatternParser{lx: lx, resolve: resolve}
}

func (p *PatternParser) ident(name string) rdf.Term {
	if p.resolve != nil {
		return p.resolve(name)
	}
	return rdf.NewIRI(name)
}

func (p *PatternParser) expectPunct(s string) error {
	t := p.lx.Peek()
	if t.Kind == TokPunct && t.Text == s {
		p.lx.Next()
		return nil
	}
	return p.lx.Errf("expected %q, found %q", s, t.Text)
}

// GroupPattern parses "{ triples and FILTERs }" at the current lexer
// position. A dot after a triple or FILTER is optional.
func (p *PatternParser) GroupPattern() ([]rdf.Triple, []Expr, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, nil, err
	}
	var triples []rdf.Triple
	var filters []Expr
	for {
		switch t := p.lx.Peek(); {
		case t.Kind == TokPunct && t.Text == "}":
			p.lx.Next()
			return triples, filters, nil
		case t.Kind == TokEOF:
			return nil, nil, p.lx.Errf("unterminated group pattern")
		case t.Kind == TokIdent && strings.EqualFold(t.Text, "FILTER"):
			p.lx.Next()
			if err := p.expectPunct("("); err != nil {
				return nil, nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, nil, err
			}
			filters = append(filters, e)
		default:
			tr, err := p.triple()
			if err != nil {
				return nil, nil, err
			}
			triples = append(triples, tr)
		}
		if t := p.lx.Peek(); t.Kind == TokPunct && t.Text == "." {
			p.lx.Next()
		}
	}
}

// AggregateCall parses one count, COUNT($v) optionally followed by AS
// $alias, when the lexer sits on COUNT followed by "(". It reports
// ok=false without consuming input otherwise. A call without AS keeps an
// empty alias: the host derives one with FreshAlias once it has read the
// whole query and knows every name in use. Host languages (OASSIS-QL)
// embed this to accept counts in their SELECT clauses.
func (p *PatternParser) AggregateCall() (Aggregate, bool, error) {
	if !p.atCount() {
		return Aggregate{}, false, nil
	}
	p.lx.Next() // COUNT
	p.lx.Next() // "("
	v := p.lx.Peek()
	if v.Kind != TokVar {
		return Aggregate{}, true, p.lx.Errf("expected variable in COUNT(), found %q", v.Text)
	}
	p.lx.Next()
	if err := p.expectPunct(")"); err != nil {
		return Aggregate{}, true, err
	}
	a := Aggregate{Var: v.Text}
	if n := p.lx.Peek(); n.Kind == TokIdent && strings.EqualFold(n.Text, "AS") {
		p.lx.Next()
		v := p.lx.Next()
		if v.Kind != TokVar {
			return Aggregate{}, true, p.lx.Errf("expected variable after AS")
		}
		a.As = v.Text
	}
	return a, true, nil
}

// atCount reports whether the lexer sits on a COUNT call.
func (p *PatternParser) atCount() bool {
	t, n := p.lx.Peek(), p.lx.PeekAhead(1)
	return t.Kind == TokIdent && strings.EqualFold(t.Text, "COUNT") && n.Kind == TokPunct && n.Text == "("
}

// OrderKeys parses ORDER BY sort keys — "$v", "ASC($v)", "DESC($v)" — at
// the current position (after the ORDER BY keywords themselves).
func (p *PatternParser) OrderKeys() ([]OrderKey, error) {
	var keys []OrderKey
	for {
		t := p.lx.Peek()
		switch {
		case t.Kind == TokIdent && (strings.EqualFold(t.Text, "ASC") || strings.EqualFold(t.Text, "DESC")):
			desc := strings.EqualFold(t.Text, "DESC")
			p.lx.Next()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			v := p.lx.Next()
			if v.Kind != TokVar {
				return nil, p.lx.Errf("expected variable in ORDER BY")
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			keys = append(keys, OrderKey{Var: v.Text, Desc: desc})
		case t.Kind == TokVar:
			p.lx.Next()
			keys = append(keys, OrderKey{Var: t.Text})
		default:
			if len(keys) == 0 {
				return nil, p.lx.Errf("expected sort key in ORDER BY")
			}
			return keys, nil
		}
	}
}

func (p *PatternParser) triple() (rdf.Triple, error) {
	s, err := p.term(false)
	if err != nil {
		return rdf.Triple{}, err
	}
	pr, err := p.term(false)
	if err != nil {
		return rdf.Triple{}, err
	}
	o, err := p.term(true)
	if err != nil {
		return rdf.Triple{}, err
	}
	return rdf.T(s, pr, o), nil
}

// term parses one triple component. Literals are only allowed in object
// position.
func (p *PatternParser) term(object bool) (rdf.Term, error) {
	t := p.lx.Peek()
	switch t.Kind {
	case TokVar:
		p.lx.Next()
		return rdf.NewVar(t.Text), nil
	case TokIRI:
		p.lx.Next()
		return rdf.NewIRI(t.Text), nil
	case TokIdent:
		p.lx.Next()
		return p.ident(t.Text), nil
	case TokAnon:
		p.lx.Next()
		p.anon++
		return rdf.NewVar(fmt.Sprintf("_anon%d", p.anon)), nil
	case TokString:
		if !object {
			return rdf.Term{}, p.lx.Errf("literal %q only allowed in object position", t.Text)
		}
		p.lx.Next()
		return rdf.NewLiteral(t.Text), nil
	case TokNumber:
		if !object {
			return rdf.Term{}, p.lx.Errf("number only allowed in object position")
		}
		p.lx.Next()
		if t.Num == float64(int64(t.Num)) && !strings.Contains(t.Text, ".") {
			return rdf.NewIntLiteral(int64(t.Num)), nil
		}
		return rdf.NewFloatLiteral(t.Num), nil
	default:
		return rdf.Term{}, p.lx.Errf("expected term, found %q", t.Text)
	}
}

// ---- filter expression parsing (precedence climbing) ----

func (p *PatternParser) expr() (Expr, error) { return p.orExpr() }

func (p *PatternParser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.lx.Peek()
		if t.Kind == TokOp && t.Text == "||" {
			p.lx.Next()
			r, err := p.andExpr()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: "||", L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *PatternParser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.lx.Peek()
		if t.Kind == TokOp && t.Text == "&&" {
			p.lx.Next()
			r, err := p.cmpExpr()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: "&&", L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *PatternParser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.lx.Peek()
	if t.Kind == TokOp {
		switch t.Text {
		case "=", "==", "!=", "<", "<=", ">", ">=":
			p.lx.Next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &BinExpr{Op: t.Text, L: l, R: r}, nil
		}
	}
	// IN / NOT IN
	if t.Kind == TokIdent && (strings.EqualFold(t.Text, "IN") || strings.EqualFold(t.Text, "NOT")) {
		negated := false
		if strings.EqualFold(t.Text, "NOT") {
			if n := p.lx.PeekAhead(1); !(n.Kind == TokIdent && strings.EqualFold(n.Text, "IN")) {
				return l, nil
			}
			p.lx.Next()
			negated = true
		}
		p.lx.Next() // IN
		nt := p.lx.Peek()
		if nt.Kind == TokIdent {
			p.lx.Next()
			return &InExpr{X: l, SetName: nt.Text, Negated: negated}, nil
		}
		if nt.Kind == TokPunct && nt.Text == "(" {
			p.lx.Next()
			var list []Expr
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				sep := p.lx.Peek()
				if sep.Kind == TokPunct && sep.Text == "," {
					p.lx.Next()
					continue
				}
				break
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &InExpr{X: l, List: list, Negated: negated}, nil
		}
		return nil, p.lx.Errf("expected vocabulary name or list after IN")
	}
	return l, nil
}

func (p *PatternParser) addExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.lx.Peek()
		if t.Kind == TokOp && (t.Text == "+" || t.Text == "-") {
			p.lx.Next()
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: t.Text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *PatternParser) unary() (Expr, error) {
	t := p.lx.Peek()
	if t.Kind == TokOp && t.Text == "!" {
		p.lx.Next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &NotExpr{X: x}, nil
	}
	return p.primary()
}

func (p *PatternParser) primary() (Expr, error) {
	t := p.lx.Peek()
	switch t.Kind {
	case TokVar:
		p.lx.Next()
		return &VarExpr{Name: t.Text}, nil
	case TokString:
		p.lx.Next()
		return &LitExpr{Val: StrVal(t.Text)}, nil
	case TokNumber:
		p.lx.Next()
		return &LitExpr{Val: NumVal(t.Num)}, nil
	case TokIRI:
		p.lx.Next()
		return &LitExpr{Val: TermVal(rdf.NewIRI(t.Text))}, nil
	case TokPunct:
		if t.Text == "(" {
			p.lx.Next()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case TokIdent:
		switch {
		case strings.EqualFold(t.Text, "true"):
			p.lx.Next()
			return &LitExpr{Val: BoolVal(true)}, nil
		case strings.EqualFold(t.Text, "false"):
			p.lx.Next()
			return &LitExpr{Val: BoolVal(false)}, nil
		case p.atCount():
			// A count belongs to the SELECT list; a FILTER runs before
			// grouping, where no count exists yet.
			return nil, p.lx.Errf("aggregate COUNT() is only allowed in SELECT")
		}
		// function call?
		if n := p.lx.PeekAhead(1); n.Kind == TokPunct && n.Text == "(" {
			p.lx.Next()
			p.lx.Next()
			var args []Expr
			if pt := p.lx.Peek(); !(pt.Kind == TokPunct && pt.Text == ")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					sep := p.lx.Peek()
					if sep.Kind == TokPunct && sep.Text == "," {
						p.lx.Next()
						continue
					}
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &CallExpr{Name: t.Text, Args: args}, nil
		}
		// bare identifier: a constant term
		p.lx.Next()
		return &LitExpr{Val: TermVal(p.ident(t.Text))}, nil
	}
	return nil, p.lx.Errf("expected expression, found %q", t.Text)
}
