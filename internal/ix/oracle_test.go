package ix

// The oracle for the compiled matcher: the dependency graph exposed as
// RDF triples (blank node "n<i>" per token, one IRI per relation), every
// pattern's triples joined as a SPARQL basic graph pattern by
// sparql.Eval, which is how Find matched patterns before they were
// compiled, and its filters run by a small interpreter over each row.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nl2cm/internal/nlp"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// findOracle is Find evaluated through sparql.Eval over a GraphSource:
// Eval joins a pattern's triples, and the rows whose filters the graph's
// interpreter accepts are kept. Filtering after the join keeps Eval's
// row order, because its planner never looks at filters.
func (d *Detector) findOracle(ctx context.Context, g *nlp.DepGraph) ([]Match, error) {
	src := NewGraphSource(g)
	env := src.Env(d.Vocabs)
	var out []Match
	for _, p := range d.Patterns {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		q := &sparql.Query{Where: p.Triples, Limit: -1}
		rows, err := sparql.Eval(ctx, q, src)
		if err != nil {
			return nil, fmt.Errorf("ix: matching pattern %s: %w", p.Name, err)
		}
		seen := map[int]bool{}
		for _, b := range rows {
			if !env.accepts(p.Filters, b) {
				continue
			}
			at, ok := b[p.Anchor]
			if !ok {
				continue
			}
			anchor, ok := NodeIndex(at)
			if !ok {
				continue
			}
			if seen[anchor] {
				continue // one match per anchor per pattern
			}
			seen[anchor] = true
			m := Match{Pattern: p, Anchor: anchor}
			nodeSet := map[int]bool{}
			for _, t := range b {
				if i, ok := NodeIndex(t); ok {
					nodeSet[i] = true
				}
			}
			for i := range nodeSet {
				m.Nodes = append(m.Nodes, i)
			}
			sort.Ints(m.Nodes)
			out = append(out, m)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Anchor < out[j].Anchor })
	return out, nil
}

// NodeTerm encodes dependency-graph node i as an RDF term so that
// detection patterns can bind variables to nodes.
func NodeTerm(i int) rdf.Term { return rdf.NewBlank("n" + strconv.Itoa(i)) }

// NodeIndex decodes a term produced by NodeTerm; ok is false for foreign
// terms.
func NodeIndex(t rdf.Term) (int, bool) {
	if !t.IsBlank() {
		return 0, false
	}
	v := t.Value()
	if len(v) < 2 || v[0] != 'n' {
		return 0, false
	}
	i, err := strconv.Atoi(v[1:])
	if err != nil {
		return 0, false
	}
	return i, true
}

// GraphSource exposes a dependency graph as a triple source for the
// SPARQL pattern matcher: one triple (head, relation, dependent) per
// dependency edge, including the Extra gap-filling edges. Detection
// patterns almost always fix the relation, so edges are also indexed by
// predicate.
type GraphSource struct {
	G     *nlp.DepGraph
	edges []rdf.Triple
	byRel map[rdf.Term][]rdf.Triple
}

// NewGraphSource builds the adapter.
func NewGraphSource(g *nlp.DepGraph) *GraphSource {
	src := &GraphSource{G: g, byRel: map[rdf.Term][]rdf.Triple{}}
	for _, e := range g.Edges() {
		t := rdf.T(NodeTerm(e.Head), rdf.NewIRI(e.Rel), NodeTerm(e.Dep))
		src.edges = append(src.edges, t)
		src.byRel[t.P] = append(src.byRel[t.P], t)
	}
	return src
}

// candidates returns the narrowest edge list for the pattern: the
// per-relation bucket when the predicate is concrete, else every edge.
func (s *GraphSource) candidates(pattern rdf.Triple) []rdf.Triple {
	if pattern.P.IsConcrete() {
		return s.byRel[pattern.P]
	}
	return s.edges
}

// MatchFunc implements sparql.Source. Graphs are sentence-sized, so a
// scan of the relation bucket (or, for variable predicates, the whole
// edge list) is appropriate.
func (s *GraphSource) MatchFunc(pattern rdf.Triple, fn func(rdf.Triple) bool) {
	match := func(p, g rdf.Term) bool { return p.IsVar() || p.Equal(g) }
	for _, e := range s.candidates(pattern) {
		if match(pattern.S, e.S) && match(pattern.P, e.P) && match(pattern.O, e.O) {
			if !fn(e) {
				return
			}
		}
	}
}

// CountMatch implements sparql.Source with exact counts, so pattern
// joins over the graph are ordered most-selective-first. Exact counting
// is affordable here because a dependency graph has at most a few dozen
// edges.
func (s *GraphSource) CountMatch(pattern rdf.Triple) int {
	match := func(p, g rdf.Term) bool { return p.IsVar() || p.Equal(g) }
	n := 0
	for _, e := range s.candidates(pattern) {
		if match(pattern.S, e.S) && match(pattern.P, e.P) && match(pattern.O, e.O) {
			n++
		}
	}
	return n
}

// graphEnv interprets IX filters over the rows of one graph. It
// evaluates what only the matcher knows itself: the node functions
// POS($x) coarse category, TAG($x) Penn tag, LEMMA($x), WORD($x)
// lower-cased surface form and INDEX($x) token position, and vocabulary
// tests, which match a node's lemma or surface form, so "V_participant"
// matches both "we" and "us". Every operator goes to sparql's own
// Expr.Eval, so the oracle holds the matcher to sparql's value
// semantics.
type graphEnv struct {
	g      *nlp.DepGraph
	vocabs *Vocabularies
}

// Env returns the filter interpreter over the graph.
func (s *GraphSource) Env(vocabs *Vocabularies) *graphEnv {
	return &graphEnv{g: s.G, vocabs: vocabs}
}

// accepts reports whether every filter holds on the row; an erroring
// filter drops the row, as it does in Eval.
func (e *graphEnv) accepts(filters []sparql.Expr, row sparql.Binding) bool {
	for _, f := range filters {
		if v, err := e.eval(f, row); err != nil || !v.Truthy() {
			return false
		}
	}
	return true
}

func (e *graphEnv) eval(x sparql.Expr, row sparql.Vars) (sparql.Value, error) {
	switch x := x.(type) {
	case *sparql.CallExpr:
		return e.call(x, row)
	case *sparql.InExpr:
		if x.SetName != "" {
			return e.inVocab(x, row)
		}
		list := make([]sparql.Expr, len(x.List))
		for i, it := range x.List {
			list[i] = operand{e, it}
		}
		return (&sparql.InExpr{X: operand{e, x.X}, List: list, Negated: x.Negated}).Eval(row)
	case *sparql.NotExpr:
		return (&sparql.NotExpr{X: operand{e, x.X}}).Eval(row)
	case *sparql.BinExpr:
		return (&sparql.BinExpr{Op: x.Op, L: operand{e, x.L}, R: operand{e, x.R}}).Eval(row)
	}
	return x.Eval(row) // a variable or a constant
}

// operand hands a subexpression to sparql's operators while the
// interpreter evaluates it, when and if the operator does: && and ||
// short-circuit as they do in Eval.
type operand struct {
	e *graphEnv
	x sparql.Expr
}

func (o operand) Eval(row sparql.Vars) (sparql.Value, error) { return o.e.eval(o.x, row) }
func (o operand) String() string                             { return o.x.String() }

func (e *graphEnv) call(x *sparql.CallExpr, row sparql.Vars) (sparql.Value, error) {
	if len(x.Args) != 1 {
		return sparql.Value{}, fmt.Errorf("ix: %s() wants 1 argument, got %d", x.Name, len(x.Args))
	}
	v, err := e.eval(x.Args[0], row)
	if err != nil {
		return sparql.Value{}, err
	}
	n, err := e.node(v)
	if err != nil {
		return sparql.Value{}, err
	}
	switch strings.ToUpper(x.Name) {
	case "POS":
		return sparql.StrVal(coarsePOS(n.POS)), nil
	case "TAG":
		return sparql.StrVal(n.POS), nil
	case "LEMMA":
		return sparql.StrVal(n.Lemma), nil
	case "WORD":
		return sparql.StrVal(n.Lower), nil
	case "INDEX":
		return sparql.NumVal(float64(n.Index)), nil
	}
	return sparql.Value{}, fmt.Errorf("ix: unknown function %s()", x.Name)
}

// inVocab tests a node's lemma and surface form; any other value tests
// its text.
func (e *graphEnv) inVocab(x *sparql.InExpr, row sparql.Vars) (sparql.Value, error) {
	v, err := e.eval(x.X, row)
	if err != nil {
		return sparql.Value{}, err
	}
	if e.vocabs == nil {
		return sparql.Value{}, fmt.Errorf("ix: no vocabularies for %s", x.SetName)
	}
	voc, ok := e.vocabs.Get(x.SetName)
	if !ok {
		return sparql.Value{}, fmt.Errorf("ix: unknown vocabulary %s", x.SetName)
	}
	var in bool
	if n, err := e.node(v); err == nil {
		in = voc.Contains(n.Lemma) || voc.Contains(n.Lower)
	} else {
		in = voc.Contains(valText(v))
	}
	return sparql.BoolVal(in != x.Negated), nil
}

// node resolves a value to the graph node whose term it is.
func (e *graphEnv) node(v sparql.Value) (*nlp.Node, error) {
	if v.Kind != sparql.VTerm {
		return nil, fmt.Errorf("ix: expected a graph node, got %+v", v)
	}
	i, ok := NodeIndex(v.Term)
	if !ok || i < 0 || i >= len(e.g.Nodes) {
		return nil, fmt.Errorf("ix: term %v is not a graph node", v.Term)
	}
	return &e.g.Nodes[i], nil
}

func valText(v sparql.Value) string {
	switch v.Kind {
	case sparql.VStr:
		return v.Str
	case sparql.VTerm:
		return v.Term.Value()
	default:
		return ""
	}
}

func TestNodeTermRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, 42, 1000} {
		j, ok := NodeIndex(NodeTerm(i))
		if !ok || j != i {
			t.Errorf("NodeIndex(NodeTerm(%d)) = %d, %v", i, j, ok)
		}
	}
	if _, ok := NodeIndex(NodeTerm(3)); !ok {
		t.Error("round trip failed")
	}
}

func TestGraphSourceMatch(t *testing.T) {
	g := parse(t, "We visit parks.")
	src := NewGraphSource(g)
	count := 0
	src.MatchFunc(rdf.T(rdf.NewVar("h"), rdf.NewIRI("nsubj"), rdf.NewVar("d")),
		func(tr rdf.Triple) bool { count++; return true })
	if count != 1 {
		t.Errorf("nsubj edges = %d, want 1", count)
	}
	// Early stop.
	count = 0
	src.MatchFunc(rdf.T(rdf.NewVar("h"), rdf.NewVar("r"), rdf.NewVar("d")),
		func(tr rdf.Triple) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d edges", count)
	}
}

func TestGraphSourceEnvFunctions(t *testing.T) {
	g := parse(t, "We visit parks.")
	env := NewGraphSource(g).Env(DefaultVocabularies())
	visitIdx := -1
	for i := range g.Nodes {
		if g.Nodes[i].Text == "visit" {
			visitIdx = i
		}
	}
	row := sparql.Binding{"x": NodeTerm(visitIdx)}
	call := func(fn string, args ...sparql.Expr) (sparql.Value, error) {
		return env.eval(&sparql.CallExpr{Name: fn, Args: args}, row)
	}
	x := &sparql.VarExpr{Name: "x"}
	cases := []struct{ fn, want string }{
		{"POS", "verb"},
		{"TAG", "VBP"},
		{"LEMMA", "visit"},
		{"WORD", "visit"},
	}
	for _, c := range cases {
		got, err := call(c.fn, x)
		if err != nil {
			t.Fatalf("%s: %v", c.fn, err)
		}
		if got.Str != c.want {
			t.Errorf("%s(visit) = %q, want %q", c.fn, got.Str, c.want)
		}
	}
	// INDEX returns the position.
	idx, err := call("INDEX", x)
	if err != nil || idx.Num != float64(visitIdx) {
		t.Errorf("INDEX = %v, %v", idx, err)
	}
	// Errors: wrong arity and non-node argument.
	if _, err := call("POS"); err == nil {
		t.Error("POS() with no args succeeded")
	}
	if _, err := call("POS", &sparql.LitExpr{Val: sparql.StrVal("x")}); err == nil {
		t.Error("POS(non-node) succeeded")
	}
	// The operators around a call are sparql's, short-circuit included.
	for _, c := range []struct {
		filter string
		want   bool
	}{
		{`POS($x) = "verb" && $x IN V_participant`, false},
		{`POS($x) = "verb" && $x NOT IN V_participant`, true},
		{`POS($x) IN ("noun", "verb")`, true},
		{`INDEX($x) + 1 > 1`, true},
		{`true || NOPE($x)`, true},
	} {
		lx, err := sparql.NewLexer("{ FILTER(" + c.filter + ") }")
		if err != nil {
			t.Fatal(err)
		}
		_, filters, err := sparql.NewPatternParser(lx, nil).GroupPattern()
		if err != nil {
			t.Fatalf("%s: %v", c.filter, err)
		}
		if got := env.accepts(filters, row); got != c.want {
			t.Errorf("FILTER(%s) = %v, want %v", c.filter, got, c.want)
		}
	}
}
