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

// Env provides the evaluation context for filter expressions: functions
// (e.g. POS, LEMMA over dependency nodes) and named vocabularies for the
// IN operator (e.g. V_participant in the paper's example pattern).
type Env struct {
	// Funcs maps upper-cased function names to implementations.
	Funcs map[string]func(args []Value) (Value, error)
	// Sets maps vocabulary names to membership predicates.
	Sets map[string]func(Value) bool
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
	Eval(b Vars, env *Env) (Value, error)
	fmt.Stringer
}

// VarExpr references a variable.
type VarExpr struct{ Name string }

// Eval implements Expr.
func (e *VarExpr) Eval(b Vars, _ *Env) (Value, error) {
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
func (e *LitExpr) Eval(Vars, *Env) (Value, error) { return e.Val, nil }

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

// CallExpr invokes a registered function.
type CallExpr struct {
	Name string
	Args []Expr
}

// Eval implements Expr.
func (e *CallExpr) Eval(b Vars, env *Env) (Value, error) {
	if env == nil || env.Funcs == nil {
		return Value{}, fmt.Errorf("sparql: no function environment for %s()", e.Name)
	}
	fn, ok := env.Funcs[strings.ToUpper(e.Name)]
	if !ok {
		return Value{}, fmt.Errorf("sparql: unknown function %s()", e.Name)
	}
	args := make([]Value, len(e.Args))
	for i, a := range e.Args {
		v, err := a.Eval(b, env)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return fn(args)
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
func (e *NotExpr) Eval(b Vars, env *Env) (Value, error) {
	v, err := e.X.Eval(b, env)
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
func (e *BinExpr) Eval(b Vars, env *Env) (Value, error) {
	switch e.Op {
	case "&&":
		l, err := e.L.Eval(b, env)
		if err != nil {
			return Value{}, err
		}
		if !l.Truthy() {
			return BoolVal(false), nil
		}
		r, err := e.R.Eval(b, env)
		if err != nil {
			return Value{}, err
		}
		return BoolVal(r.Truthy()), nil
	case "||":
		l, err := e.L.Eval(b, env)
		if err != nil {
			return Value{}, err
		}
		if l.Truthy() {
			return BoolVal(true), nil
		}
		r, err := e.R.Eval(b, env)
		if err != nil {
			return Value{}, err
		}
		return BoolVal(r.Truthy()), nil
	}
	l, err := e.L.Eval(b, env)
	if err != nil {
		return Value{}, err
	}
	r, err := e.R.Eval(b, env)
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

// InExpr tests membership of a value in a named vocabulary or an explicit
// list, e.g. `$y IN V_participant` or `POS($x) IN ("VB", "VBP")`.
type InExpr struct {
	X Expr
	// SetName is the registered vocabulary name; empty when List is used.
	SetName string
	List    []Expr
	Negated bool
}

// Eval implements Expr.
func (e *InExpr) Eval(b Vars, env *Env) (Value, error) {
	v, err := e.X.Eval(b, env)
	if err != nil {
		return Value{}, err
	}
	in := false
	if e.SetName != "" {
		if env == nil || env.Sets == nil {
			return Value{}, fmt.Errorf("sparql: no vocabulary environment for %s", e.SetName)
		}
		pred, ok := env.Sets[e.SetName]
		if !ok {
			return Value{}, fmt.Errorf("sparql: unknown vocabulary %s", e.SetName)
		}
		in = pred(v)
	} else {
		for _, item := range e.List {
			iv, err := item.Eval(b, env)
			if err != nil {
				return Value{}, err
			}
			if equalValues(v, iv) {
				in = true
				break
			}
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
