package nlp

import (
	"fmt"
	"strings"
	"testing"

	"nl2cm/internal/corpus"
)

func mustParse(t *testing.T, s string) *DepGraph {
	t.Helper()
	g, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphLenAndEdges(t *testing.T) {
	g := mustParse(t, "We visit parks.")
	if g.Len() != 4 {
		t.Errorf("Len = %d, want 4", g.Len())
	}
	edges := g.Edges()
	// every non-root node yields one tree edge
	if len(edges) != g.Len()-1 {
		t.Errorf("edges = %d, want %d", len(edges), g.Len()-1)
	}
	for _, e := range edges {
		if e.Head < 0 || e.Head >= g.Len() || e.Dep < 0 || e.Dep >= g.Len() || e.Rel == "" {
			t.Errorf("malformed edge %+v", e)
		}
	}
}

func TestGraphEdgesIncludeExtra(t *testing.T) {
	g := mustParse(t, "What are the best places to visit?")
	tree := 0
	for i := range g.Nodes {
		if g.Nodes[i].Head >= 0 {
			tree++
		}
	}
	if len(g.Extra) == 0 {
		t.Fatal("expected a gap-filling extra edge")
	}
	if got := len(g.Edges()); got != tree+len(g.Extra) {
		t.Errorf("Edges() = %d, want %d", got, tree+len(g.Extra))
	}
}

func TestDependentsAllMergesExtra(t *testing.T) {
	g := mustParse(t, "What are the best places to visit?")
	visit := -1
	for i := range g.Nodes {
		if g.Nodes[i].Text == "visit" {
			visit = i
		}
	}
	tree := g.Dependents(visit, RelDObj)
	all := g.DependentsAll(visit, RelDObj)
	if len(all) <= len(tree) {
		t.Errorf("DependentsAll = %v, tree = %v; want extra edge included", all, tree)
	}
	// no filter: all dependents
	if len(g.DependentsAll(visit)) < len(g.Dependents(visit)) {
		t.Error("unfiltered DependentsAll lost tree dependents")
	}
}

func TestGraphStringFormat(t *testing.T) {
	g := mustParse(t, "We visit parks.")
	s := g.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("String has %d lines:\n%s", len(lines), s)
	}
	// CoNLL-ish: index, form, lemma, pos, head, rel
	first := strings.Split(lines[0], "\t")
	if len(first) != 6 || first[0] != "1" || first[1] != "We" {
		t.Errorf("first line fields = %v", first)
	}
	// extra edges are annotated
	g2 := mustParse(t, "What are the best places to visit?")
	if !strings.Contains(g2.String(), "#extra") {
		t.Errorf("extra edge not rendered:\n%s", g2)
	}
}

func TestPunctTagVariants(t *testing.T) {
	cases := map[string]string{
		",": ",", ".": ".", "?": ".", "!": ".", ";": ":", ":": ":",
		"(": "-LRB-", ")": "-RRB-", "[": "-LRB-", "]": "-RRB-",
		"\"": "''", "…": ":",
	}
	for in, want := range cases {
		if got := punctTag(in); got != want {
			t.Errorf("punctTag(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNounLemmaVariants(t *testing.T) {
	cases := map[string]string{
		"boxes": "box", "churches": "church", "wishes": "wish",
		"classes": "class", "quizzes": "quizz", "glass": "glass",
		"as": "as",
	}
	for in, want := range cases {
		if got := nounLemma(in); got != want {
			t.Errorf("nounLemma(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLooksLikeNameNeighbors(t *testing.T) {
	toks := Tokenize("visit Forest Hotel today")
	Tag(toks)
	if toks[1].POS != "NNP" || toks[2].POS != "NNP" {
		t.Errorf("Forest Hotel tags = %s %s", toks[1].POS, toks[2].POS)
	}
}

func TestSubtreeOrdered(t *testing.T) {
	g := mustParse(t, "We visit parks in the fall.")
	root := g.Root()
	sub := g.Subtree(root)
	for i := 1; i < len(sub); i++ {
		if sub[i] <= sub[i-1] {
			t.Fatalf("Subtree not ascending: %v", sub)
		}
	}
	if len(sub) != g.Len() {
		t.Errorf("root subtree covers %d of %d nodes", len(sub), g.Len())
	}
}

// fprintfString is DepGraph.String as it was first written, one
// fmt.Fprintf per row; it is the oracle of TestStringMatchesFprintf.
func fprintfString(g *DepGraph) string {
	var b strings.Builder
	for i := range g.Nodes {
		n := &g.Nodes[i]
		fmt.Fprintf(&b, "%d\t%s\t%s\t%s\t%d\t%s\n", i+1, n.Text, n.Lemma, n.POS, n.Head+1, n.Rel)
	}
	for _, e := range g.Extra {
		fmt.Fprintf(&b, "#extra\t%s(%s-%d, %s-%d)\n",
			e.Rel, g.Nodes[e.Head].Text, e.Head+1, g.Nodes[e.Dep].Text, e.Dep+1)
	}
	return b.String()
}

// TestStringMatchesFprintf: the CoNLL table of every corpus question's
// graph, and of a hand-made graph with extra edges, non-ASCII text and a
// two-digit node count, is byte for byte the Fprintf form's, built in
// one allocation.
func TestStringMatchesFprintf(t *testing.T) {
	graphs := []*DepGraph{{}}
	for _, q := range corpus.All() {
		graphs = append(graphs, mustParse(t, q.Text))
	}
	long := mustParse(t, "Which cafés near the old harbour, the market and the museum do locals and tourists that visit often recommend?")
	long.Extra = append(long.Extra, Edge{Head: 0, Dep: len(long.Nodes) - 1, Rel: "dobj"}, Edge{Head: 3, Dep: 1, Rel: ""})
	graphs = append(graphs, long)
	extras := 0
	for _, g := range graphs {
		extras += len(g.Extra)
		if got, want := g.String(), fprintfString(g); got != want {
			t.Errorf("String of %q:\n%s\nFprintf form:\n%s", g.Source, got, want)
		}
	}
	if extras < 2 {
		t.Errorf("only %d extra edges rendered", extras)
	}
	if n := testing.AllocsPerRun(50, func() { _ = long.String() }); n != 1 {
		t.Errorf("String made %v allocations, want 1", n)
	}
}
