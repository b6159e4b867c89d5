package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"nl2cm/internal/rdf"
)

// ValueKind discriminates filter-expression values.
type ValueKind int

// Value kinds.
const (
	VTerm ValueKind = iota
	VBool
	VNum
	VStr
)

// Value is the result of evaluating a filter expression.
type Value struct {
	Kind ValueKind
	Term rdf.Term
	Bool bool
	Num  float64
	Str  string
}

// BoolVal, NumVal, StrVal and TermVal construct values.
func BoolVal(b bool) Value     { return Value{Kind: VBool, Bool: b} }
func NumVal(f float64) Value   { return Value{Kind: VNum, Num: f} }
func StrVal(s string) Value    { return Value{Kind: VStr, Str: s} }
func TermVal(t rdf.Term) Value { return Value{Kind: VTerm, Term: t} }

// Truthy reports the boolean interpretation of the value.
func (v Value) Truthy() bool {
	switch v.Kind {
	case VBool:
		return v.Bool
	case VNum:
		return v.Num != 0
	case VStr:
		return v.Str != ""
	case VTerm:
		return v.Term.Value() != ""
	}
	return false
}

// text returns a string view used by string comparisons.
func (v Value) text() string {
	switch v.Kind {
	case VStr:
		return v.Str
	case VTerm:
		return v.Term.Value()
	case VNum:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case VBool:
		return strconv.FormatBool(v.Bool)
	}
	return ""
}

// num returns a numeric view, with ok=false for non-numeric values.
func (v Value) num() (float64, bool) {
	switch v.Kind {
	case VNum:
		return v.Num, true
	case VStr:
		f, err := strconv.ParseFloat(v.Str, 64)
		return f, err == nil
	case VTerm:
		return v.Term.Float()
	}
	return 0, false
}

// Vars is the read-only variable environment a filter expression
// evaluates against. Binding satisfies it through its Get method, and
// the optimized evaluator passes a view over its slot-indexed rows
// without building a map.
type Vars interface {
	Get(name string) (rdf.Term, bool)
}

// Expr is a filter expression.
type Expr interface {
	// Eval evaluates the expression under a variable environment.
	Eval(b Vars) (Value, error)
	fmt.Stringer
}

// VarExpr references a variable.
type VarExpr struct{ Name string }

// Eval implements Expr.
func (e *VarExpr) Eval(b Vars) (Value, error) {
	t, ok := b.Get(e.Name)
	if !ok {
		return Value{}, fmt.Errorf("sparql: unbound variable $%s in filter", e.Name)
	}
	return TermVal(t), nil
}

func (e *VarExpr) String() string { return "$" + e.Name }

// LitExpr is a constant.
type LitExpr struct{ Val Value }

// Eval implements Expr.
func (e *LitExpr) Eval(Vars) (Value, error) { return e.Val, nil }

func (e *LitExpr) String() string {
	switch e.Val.Kind {
	case VStr:
		return strconv.Quote(e.Val.Str)
	case VNum:
		return strconv.FormatFloat(e.Val.Num, 'g', -1, 64)
	case VBool:
		return strconv.FormatBool(e.Val.Bool)
	default:
		return e.Val.Term.String()
	}
}

// CallExpr is a function call. OASSIS-QL refuses it; package ix
// compiles the node functions of its detection patterns (POS, LEMMA …)
// into its own matcher, so Eval has no function to run and errors, which
// drops the row.
type CallExpr struct {
	Name string
	Args []Expr
}

// Eval implements Expr.
func (e *CallExpr) Eval(Vars) (Value, error) {
	return Value{}, fmt.Errorf("sparql: function %s() is not evaluated here", e.Name)
}

func (e *CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// NotExpr negates its operand.
type NotExpr struct{ X Expr }

// Eval implements Expr.
func (e *NotExpr) Eval(b Vars) (Value, error) {
	v, err := e.X.Eval(b)
	if err != nil {
		return Value{}, err
	}
	return BoolVal(!v.Truthy()), nil
}

func (e *NotExpr) String() string { return "!" + e.X.String() }

// BinExpr is a binary operation: && || = != < <= > >= + -.
type BinExpr struct {
	Op   string
	L, R Expr
}

// Eval implements Expr.
func (e *BinExpr) Eval(b Vars) (Value, error) {
	switch e.Op {
	case "&&":
		l, err := e.L.Eval(b)
		if err != nil {
			return Value{}, err
		}
		if !l.Truthy() {
			return BoolVal(false), nil
		}
		r, err := e.R.Eval(b)
		if err != nil {
			return Value{}, err
		}
		return BoolVal(r.Truthy()), nil
	case "||":
		l, err := e.L.Eval(b)
		if err != nil {
			return Value{}, err
		}
		if l.Truthy() {
			return BoolVal(true), nil
		}
		r, err := e.R.Eval(b)
		if err != nil {
			return Value{}, err
		}
		return BoolVal(r.Truthy()), nil
	}
	l, err := e.L.Eval(b)
	if err != nil {
		return Value{}, err
	}
	r, err := e.R.Eval(b)
	if err != nil {
		return Value{}, err
	}
	switch e.Op {
	case "=", "==":
		return BoolVal(equalValues(l, r)), nil
	case "!=":
		return BoolVal(!equalValues(l, r)), nil
	case "<", "<=", ">", ">=":
		c, err := compareValues(l, r)
		if err != nil {
			return Value{}, err
		}
		switch e.Op {
		case "<":
			return BoolVal(c < 0), nil
		case "<=":
			return BoolVal(c <= 0), nil
		case ">":
			return BoolVal(c > 0), nil
		default:
			return BoolVal(c >= 0), nil
		}
	case "+", "-":
		ln, lok := l.num()
		rn, rok := r.num()
		if !lok || !rok {
			return Value{}, fmt.Errorf("sparql: arithmetic on non-numeric values")
		}
		if e.Op == "+" {
			return NumVal(ln + rn), nil
		}
		return NumVal(ln - rn), nil
	}
	return Value{}, fmt.Errorf("sparql: unknown operator %q", e.Op)
}

func (e *BinExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

// InExpr tests membership of a value in an explicit list, e.g.
// `$x IN (Delaware_Park, Buffalo_Zoo)`, or in a named vocabulary, e.g.
// `$y IN V_participant`. Only package ix knows vocabularies: it compiles
// the named form into its matcher, OASSIS-QL refuses it, and Eval
// errors on it, which drops the row.
type InExpr struct {
	X Expr
	// SetName is the vocabulary name; empty when List is used.
	SetName string
	List    []Expr
	Negated bool
}

// Eval implements Expr.
func (e *InExpr) Eval(b Vars) (Value, error) {
	if e.SetName != "" {
		return Value{}, fmt.Errorf("sparql: vocabulary %s is not evaluated here", e.SetName)
	}
	v, err := e.X.Eval(b)
	if err != nil {
		return Value{}, err
	}
	in := false
	for _, item := range e.List {
		iv, err := item.Eval(b)
		if err != nil {
			return Value{}, err
		}
		if equalValues(v, iv) {
			in = true
			break
		}
	}
	if e.Negated {
		in = !in
	}
	return BoolVal(in), nil
}

func (e *InExpr) String() string {
	op := "IN"
	if e.Negated {
		op = "NOT IN"
	}
	if e.SetName != "" {
		return e.X.String() + " " + op + " " + e.SetName
	}
	parts := make([]string, len(e.List))
	for i, it := range e.List {
		parts[i] = it.String()
	}
	return e.X.String() + " " + op + " (" + strings.Join(parts, ", ") + ")"
}

// equalValues compares two values, numerically when both are numeric,
// otherwise textually.
func equalValues(l, r Value) bool {
	if ln, ok := l.num(); ok {
		if rn, ok := r.num(); ok {
			return ln == rn
		}
	}
	if l.Kind == VTerm && r.Kind == VTerm {
		return l.Term.Equal(r.Term)
	}
	return l.text() == r.text()
}

// compareValues orders two values, numerically when possible. Two bound
// terms are ordered by rdf.Term.Compare — the same typed comparator ORDER
// BY uses — so FILTER comparisons over numeric literals never fall back
// to string comparison.
func compareValues(l, r Value) (int, error) {
	if ln, lok := l.num(); lok {
		if rn, rok := r.num(); rok {
			switch {
			case ln < rn:
				return -1, nil
			case ln > rn:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if l.Kind == VTerm && r.Kind == VTerm {
		return l.Term.Compare(r.Term), nil
	}
	lt, rt := l.text(), r.text()
	switch {
	case lt < rt:
		return -1, nil
	case lt > rt:
		return 1, nil
	default:
		return 0, nil
	}
}
