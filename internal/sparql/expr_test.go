package sparql

import (
	"strconv"
	"strings"
	"testing"

	"nl2cm/internal/rdf"
)

// filterExpr parses src as the one FILTER of a group pattern.
func filterExpr(t *testing.T, src string) Expr {
	t.Helper()
	_, filters, err := parsePattern(`{ $x p $y . FILTER(` + src + `) }`)
	if err != nil {
		t.Fatalf("parsePattern(%s): %v", src, err)
	}
	return filters[0]
}

func evalExpr(t *testing.T, src string, b Binding) Value {
	t.Helper()
	v, err := filterExpr(t, src).Eval(b)
	if err != nil {
		t.Fatalf("Eval(%s): %v", src, err)
	}
	return v
}

func TestExprArithmetic(t *testing.T) {
	b := Binding{}
	if v := evalExpr(t, "1 + 2 = 3", b); !v.Bool {
		t.Error("1+2=3 false")
	}
	if v := evalExpr(t, "5 - 2 > 2", b); !v.Bool {
		t.Error("5-2>2 false")
	}
	if v := evalExpr(t, `1 + 2 - 1 = 2`, b); !v.Bool {
		t.Error("chained arithmetic failed")
	}
}

func TestExprArithmeticTypeError(t *testing.T) {
	if _, err := filterExpr(t, `"abc" + 1 = 2`).Eval(Binding{}); err == nil {
		t.Error("string arithmetic succeeded")
	}
}

func TestExprNot(t *testing.T) {
	if v := evalExpr(t, "!false", Binding{}); !v.Bool {
		t.Error("!false = false")
	}
	if v := evalExpr(t, "!(1 = 1)", Binding{}); v.Bool {
		t.Error("!(1=1) = true")
	}
}

func TestExprBooleanShortCircuit(t *testing.T) {
	// The right operand of && is not evaluated when the left is false:
	// an unbound variable there must not error.
	v, err := filterExpr(t, `false && $nope = 1`).Eval(Binding{})
	if err != nil || v.Bool {
		t.Errorf("short circuit failed: %v %v", v, err)
	}
	v2, err := filterExpr(t, `true || $nope = 1`).Eval(Binding{})
	if err != nil || !v2.Bool {
		t.Errorf("or short circuit failed: %v %v", v2, err)
	}
}

func TestExprUnboundVariableErrors(t *testing.T) {
	if _, err := filterExpr(t, `$zzz = 1`).Eval(Binding{}); err == nil {
		t.Error("unbound variable evaluated")
	}
}

func TestExprStringComparisons(t *testing.T) {
	b := Binding{"x": rdf.NewLiteral("apple"), "y": rdf.NewLiteral("banana")}
	if v := evalExpr(t, "$x < $y", b); !v.Bool {
		t.Error("apple < banana false")
	}
	if v := evalExpr(t, `$x >= "apple"`, b); !v.Bool {
		t.Error("apple >= apple false")
	}
	if v := evalExpr(t, `$x != $y`, b); !v.Bool {
		t.Error("apple != banana false")
	}
}

func TestExprTermEquality(t *testing.T) {
	b := Binding{"x": rdf.NewIRI("a"), "y": rdf.NewIRI("a")}
	if v := evalExpr(t, "$x = $y", b); !v.Bool {
		t.Error("same IRIs unequal")
	}
}

func TestExprStrings(t *testing.T) {
	s := filterExpr(t, `!($x = 1) && POS($x) IN ("VB", "NN") || $y NOT IN V_set && true`).String()
	for _, want := range []string{"!", "POS(", "IN (", "NOT IN V_set", "&&", "||", "true"} {
		if !strings.Contains(s, want) {
			t.Errorf("expression string %q missing %q", s, want)
		}
	}
	// Literal string rendering quotes properly.
	if lit := filterExpr(t, `$x = "a\"b"`); !strings.Contains(lit.String(), `"a\"b"`) {
		t.Errorf("string literal rendering: %s", lit)
	}
}

func TestBindingGetAndClone(t *testing.T) {
	b := Binding{"x": rdf.NewIRI("a")}
	if v, ok := b.Get("x"); !ok || v != rdf.NewIRI("a") {
		t.Error("Get(x) wrong")
	}
	if _, ok := b.Get("y"); ok {
		t.Error("Get(y) ok")
	}
	c := b.Clone()
	c["x"] = rdf.NewIRI("b")
	if b["x"] != rdf.NewIRI("a") {
		t.Error("Clone shares storage")
	}
}

func TestValueTextViews(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{StrVal("s"), "s"},
		{TermVal(rdf.NewIRI("iri")), "iri"},
		{NumVal(2.5), "2.5"},
		{BoolVal(true), "true"},
	}
	for _, c := range cases {
		if got := c.v.text(); got != c.want {
			t.Errorf("text(%+v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	lx, err := NewLexer(`"a\nb\tc\\d\"e"`)
	if err != nil {
		t.Fatal(err)
	}
	tok := lx.Next()
	if tok.Kind != TokString || tok.Text != "a\nb\tc\\d\"e" {
		t.Errorf("lexed %q", tok.Text)
	}
	// Every literal strconv.Quote prints (the printers' quoting) lexes
	// back to its value, invalid UTF-8 and control bytes included.
	for _, v := range []string{"\xae", "\r\a\x00", "\u0080é", "plain"} {
		lx, err := NewLexer(strconv.Quote(v))
		if err != nil {
			t.Errorf("NewLexer(%s): %v", strconv.Quote(v), err)
		} else if got := lx.Next().Text; got != v {
			t.Errorf("NewLexer(%s) lexed %q", strconv.Quote(v), got)
		}
	}
	// Bad escapes and unterminated strings error.
	for _, bad := range []string{`"dangling\`, `"bad\q"`, `"unterminated`} {
		if _, err := NewLexer(bad); err == nil {
			t.Errorf("NewLexer(%q) succeeded", bad)
		}
	}
}

func TestLexerPeekAheadAndErrf(t *testing.T) {
	lx, err := NewLexer("SELECT $x\nWHERE")
	if err != nil {
		t.Fatal(err)
	}
	if lx.PeekAhead(2).Kind != TokIdent {
		t.Error("PeekAhead(2) wrong")
	}
	lx.Next()
	lx.Next()
	e := lx.Errf("boom")
	if !strings.Contains(e.Error(), "line 2") {
		t.Errorf("Errf = %v, want line 2", e)
	}
}

func TestParsePatternStandalone(t *testing.T) {
	triples, filters, err := parsePattern(`{$x nsubj $y . FILTER($x != $y)}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 1 || len(filters) != 1 {
		t.Errorf("triples=%d filters=%d", len(triples), len(filters))
	}
	if _, _, err := parsePattern(`{$x nsubj $y} extra`); err == nil {
		t.Error("trailing input accepted")
	}
	if _, _, err := parsePattern(`{$x`); err == nil {
		t.Error("unterminated pattern accepted")
	}
}

func TestParseTermErrors(t *testing.T) {
	// numbers and literals in subject or predicate position
	for _, in := range []string{`{ 5 p $y }`, `{ $x 5 $y }`, `{ $x "p" $y }`} {
		if _, _, err := parsePattern(in); err == nil {
			t.Errorf("parsePattern(%q) accepted a literal subject or predicate", in)
		}
	}
	// a bare sort key ascends; a key must be a variable
	pp, _ := newPatternParser(t, `$x`)
	if keys, err := pp.OrderKeys(); err != nil || len(keys) != 1 || keys[0].Desc {
		t.Errorf("bare order key = %+v, %v", keys, err)
	}
	for _, in := range []string{``, `DESC(x)`, `ASC($x`} {
		pp, _ := newPatternParser(t, in)
		if keys, err := pp.OrderKeys(); err == nil {
			t.Errorf("OrderKeys(%q) = %+v, want error", in, keys)
		}
	}
}
