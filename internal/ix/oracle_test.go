package ix

// The oracle for the compiled matcher: the dependency graph exposed as
// RDF triples (blank node "n<i>" per token, one IRI per relation) and
// every pattern evaluated as a SPARQL basic graph pattern by sparql.Eval,
// which is how Find matched patterns before they were compiled.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"testing"

	"nl2cm/internal/nlp"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// findOracle is Find evaluated through sparql.Eval over a GraphSource.
func (d *Detector) findOracle(ctx context.Context, g *nlp.DepGraph) ([]Match, error) {
	src := NewGraphSource(g)
	env := src.Env(d.Vocabs)
	var out []Match
	for _, p := range d.Patterns {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		q := &sparql.Query{Where: p.Triples, Filters: p.Filters, Limit: -1}
		rows, err := sparql.Eval(ctx, q, src, env)
		if err != nil {
			return nil, fmt.Errorf("ix: matching pattern %s: %w", p.Name, err)
		}
		seen := map[int]bool{}
		for _, b := range rows {
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

// Env builds the sparql evaluation environment for IX patterns over the
// graph: node functions and vocabulary membership sets.
//
// Functions: POS($x) coarse category, TAG($x) Penn tag, LEMMA($x),
// WORD($x) lower-cased surface form, INDEX($x) token position.
//
// Vocabulary sets test a node's lemma and surface form against the word
// list, so "V_participant" matches both "we" and "us".
func (s *GraphSource) Env(vocabs *Vocabularies) *sparql.Env {
	node := func(v sparql.Value) (*nlp.Node, error) {
		if v.Kind != sparql.VTerm {
			return nil, fmt.Errorf("ix: expected a graph node, got %+v", v)
		}
		i, ok := NodeIndex(v.Term)
		if !ok || i < 0 || i >= len(s.G.Nodes) {
			return nil, fmt.Errorf("ix: term %v is not a graph node", v.Term)
		}
		return &s.G.Nodes[i], nil
	}
	unary := func(get func(*nlp.Node) string) func([]sparql.Value) (sparql.Value, error) {
		return func(args []sparql.Value) (sparql.Value, error) {
			if len(args) != 1 {
				return sparql.Value{}, fmt.Errorf("ix: node function wants 1 argument, got %d", len(args))
			}
			n, err := node(args[0])
			if err != nil {
				return sparql.Value{}, err
			}
			return sparql.StrVal(get(n)), nil
		}
	}
	env := &sparql.Env{
		Funcs: map[string]func([]sparql.Value) (sparql.Value, error){
			"POS":   unary(func(n *nlp.Node) string { return coarsePOS(n.POS) }),
			"TAG":   unary(func(n *nlp.Node) string { return n.POS }),
			"LEMMA": unary(func(n *nlp.Node) string { return n.Lemma }),
			"WORD":  unary(func(n *nlp.Node) string { return n.Lower }),
			"INDEX": func(args []sparql.Value) (sparql.Value, error) {
				if len(args) != 1 {
					return sparql.Value{}, fmt.Errorf("ix: INDEX wants 1 argument")
				}
				n, err := node(args[0])
				if err != nil {
					return sparql.Value{}, err
				}
				return sparql.NumVal(float64(n.Index)), nil
			},
		},
		Sets: map[string]func(sparql.Value) bool{},
	}
	if vocabs != nil {
		for _, name := range vocabs.Names() {
			v, _ := vocabs.Get(name)
			voc := v
			env.Sets[name] = func(val sparql.Value) bool {
				n, err := node(val)
				if err != nil {
					// Non-node values test their text form.
					return voc.Contains(valText(val))
				}
				return voc.Contains(n.Lemma) || voc.Contains(n.Lower)
			}
		}
	}
	return env
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
	src := NewGraphSource(g)
	env := src.Env(DefaultVocabularies())
	visitIdx := -1
	for i := range g.Nodes {
		if g.Nodes[i].Text == "visit" {
			visitIdx = i
		}
	}
	val := sparql.TermVal(NodeTerm(visitIdx))
	cases := []struct{ fn, want string }{
		{"POS", "verb"},
		{"TAG", "VBP"},
		{"LEMMA", "visit"},
		{"WORD", "visit"},
	}
	for _, c := range cases {
		got, err := env.Funcs[c.fn]([]sparql.Value{val})
		if err != nil {
			t.Fatalf("%s: %v", c.fn, err)
		}
		if got.Str != c.want {
			t.Errorf("%s(visit) = %q, want %q", c.fn, got.Str, c.want)
		}
	}
	// INDEX returns the position.
	idx, err := env.Funcs["INDEX"]([]sparql.Value{val})
	if err != nil || idx.Num != float64(visitIdx) {
		t.Errorf("INDEX = %v, %v", idx, err)
	}
	// Errors: wrong arity and non-node argument.
	if _, err := env.Funcs["POS"](nil); err == nil {
		t.Error("POS() with no args succeeded")
	}
	if _, err := env.Funcs["POS"]([]sparql.Value{sparql.StrVal("x")}); err == nil {
		t.Error("POS(non-node) succeeded")
	}
}
