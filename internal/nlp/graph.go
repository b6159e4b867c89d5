package nlp

import (
	"fmt"
	"strconv"
	"strings"

	"nl2cm/internal/prov"
)

// Dependency relation labels emitted by the parser. They follow the
// Stanford typed-dependency naming used by the paper's NL Parser module.
const (
	RelRoot      = "root"
	RelNSubj     = "nsubj"     // nominal subject
	RelNSubjPass = "nsubjpass" // passive nominal subject
	RelDObj      = "dobj"      // direct object
	RelIObj      = "iobj"      // indirect object
	RelAttr      = "attr"      // attributive wh-complement of a copula
	RelDet       = "det"       // determiner
	RelPredet    = "predet"    // predeterminer ("all the ...")
	RelAMod      = "amod"      // adjectival modifier
	RelAdvMod    = "advmod"    // adverbial modifier
	RelAux       = "aux"       // auxiliary or modal
	RelAuxPass   = "auxpass"   // passive auxiliary
	RelCop       = "cop"       // copula
	RelPrep      = "prep"      // preposition attached to head
	RelPObj      = "pobj"      // object of a preposition
	RelNN        = "nn"        // noun compound modifier
	RelNum       = "num"       // numeric modifier
	RelPoss      = "poss"      // possessive modifier
	RelRCMod     = "rcmod"     // relative clause modifier
	RelInfMod    = "infmod"    // infinitival modifier ("places to visit")
	RelXComp     = "xcomp"     // open clausal complement ("want to buy")
	RelConj      = "conj"      // conjunct
	RelCC        = "cc"        // coordination
	RelNeg       = "neg"       // negation
	RelExpl      = "expl"      // expletive "there"
	RelPrt       = "prt"       // verb particle
	RelAppos     = "appos"     // apposition
	RelMark      = "mark"      // clause marker ("that", "if")
	RelPunct     = "punct"     // punctuation
	RelDep       = "dep"       // unclassified dependency
	RelComplm    = "complm"    // complementizer
	RelRel       = "rel"       // relativizer word inside a relative clause
)

// Node is a token plus its position in the dependency tree.
type Node struct {
	Token
	// Head is the index of the head token, or -1 for the root.
	Head int
	// Rel is the typed relation between this node and its head
	// (RelRoot for the root).
	Rel string
}

// Edge is a labeled dependency edge from a head token to a dependent.
type Edge struct {
	Head, Dep int
	Rel       string
}

// DepGraph is a typed dependency graph. The Head/Rel fields of Nodes form
// a tree; Extra holds additional edges (e.g. the object role a relative
// clause verb assigns to the noun it modifies), which makes the full edge
// set a DAG, matching the paper's "directed acyclic graph (typically, a
// tree)".
type DepGraph struct {
	Nodes []Node
	Extra []Edge
	// Source is the original sentence the graph was parsed from. Token
	// byte spans index into it; Parse fills it.
	Source string
}

// Spans returns the byte spans of the given tokens in Source, nil when
// there are none. Indices out of range are skipped.
func (g *DepGraph) Spans(ids prov.TokenSet) []prov.Span {
	var out []prov.Span
	for _, id := range ids {
		if id < 0 || id >= len(g.Nodes) {
			continue
		}
		if out == nil {
			out = make([]prov.Span, 0, len(ids))
		}
		out = append(out, g.Nodes[id].Span())
	}
	return out
}

// Excerpt resolves a token set to a quotation of the source sentence,
// adjacent spans merged and gaps elided with "..." — e.g.
// `reach ... from Forest Hills`.
func (g *DepGraph) Excerpt(ids prov.TokenSet) string {
	return prov.Excerpt(g.Source, g.Spans(ids))
}

// Len returns the number of tokens.
func (g *DepGraph) Len() int { return len(g.Nodes) }

// Root returns the index of the root node, or -1 if the graph is empty or
// malformed.
func (g *DepGraph) Root() int {
	for i := range g.Nodes {
		if g.Nodes[i].Head == -1 && g.Nodes[i].Rel == RelRoot {
			return i
		}
	}
	return -1
}

// Edges returns every dependency edge: the tree edges (excluding the
// virtual root edge) followed by the extra edges.
func (g *DepGraph) Edges() []Edge {
	var out []Edge
	for i := range g.Nodes {
		if g.Nodes[i].Head >= 0 {
			out = append(out, Edge{Head: g.Nodes[i].Head, Dep: i, Rel: g.Nodes[i].Rel})
		}
	}
	out = append(out, g.Extra...)
	return out
}

// Dependents returns the indices of tree dependents of head with any of
// the given relations; with no relations given it returns all tree
// dependents. Extra edges are not included.
func (g *DepGraph) Dependents(head int, rels ...string) []int {
	var out []int
	for i := range g.Nodes {
		if g.Nodes[i].Head != head {
			continue
		}
		if len(rels) == 0 {
			out = append(out, i)
			continue
		}
		for _, r := range rels {
			if g.Nodes[i].Rel == r {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// DependentsAll is Dependents but also considers Extra edges.
func (g *DepGraph) DependentsAll(head int, rels ...string) []int {
	out := g.Dependents(head, rels...)
	for _, e := range g.Extra {
		if e.Head != head {
			continue
		}
		if len(rels) == 0 {
			out = append(out, e.Dep)
			continue
		}
		for _, r := range rels {
			if e.Rel == r {
				out = append(out, e.Dep)
				break
			}
		}
	}
	return out
}

// FirstDependent returns the first tree dependent with the relation, or
// -1.
func (g *DepGraph) FirstDependent(head int, rel string) int {
	deps := g.Dependents(head, rel)
	if len(deps) == 0 {
		return -1
	}
	return deps[0]
}

// Subtree returns the indices of the node and all its tree descendants in
// ascending token order.
func (g *DepGraph) Subtree(i int) []int {
	marked := make([]bool, len(g.Nodes))
	g.markSubtree(i, marked)
	var out []int
	for j, m := range marked {
		if m {
			out = append(out, j)
		}
	}
	return out
}

func (g *DepGraph) markSubtree(i int, marked []bool) {
	if marked[i] {
		return
	}
	marked[i] = true
	for j := range g.Nodes {
		if g.Nodes[j].Head == i {
			g.markSubtree(j, marked)
		}
	}
}

// Phrase renders the tokens at the given indices (sorted ascending by the
// caller) as a space-joined string.
func (g *DepGraph) Phrase(indices []int) string {
	parts := make([]string, 0, len(indices))
	for _, i := range indices {
		parts = append(parts, g.Nodes[i].Text)
	}
	return strings.Join(parts, " ")
}

// SubtreePhrase returns the surface text of the subtree rooted at i.
func (g *DepGraph) SubtreePhrase(i int) string {
	return g.Phrase(g.Subtree(i))
}

// String renders the graph in a CoNLL-like tabular format (used by the
// administrator mode to display the NL Parser's intermediate output).
func (g *DepGraph) String() string {
	// One builder, grown to fit every field plus each row's numbers and
	// separators.
	size := 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		size += len(n.Text) + len(n.Lemma) + len(n.POS) + len(n.Rel) + 32
	}
	for _, e := range g.Extra {
		size += len(e.Rel) + len(g.Nodes[e.Head].Text) + len(g.Nodes[e.Dep].Text) + 48
	}
	var b strings.Builder
	b.Grow(size)
	var num [20]byte
	writeInt := func(i int) { b.Write(strconv.AppendInt(num[:0], int64(i), 10)) }
	for i := range g.Nodes {
		n := &g.Nodes[i]
		writeInt(i + 1)
		b.WriteByte('\t')
		b.WriteString(n.Text)
		b.WriteByte('\t')
		b.WriteString(n.Lemma)
		b.WriteByte('\t')
		b.WriteString(n.POS)
		b.WriteByte('\t')
		writeInt(n.Head + 1)
		b.WriteByte('\t')
		b.WriteString(n.Rel)
		b.WriteByte('\n')
	}
	for _, e := range g.Extra {
		b.WriteString("#extra\t")
		b.WriteString(e.Rel)
		b.WriteByte('(')
		b.WriteString(g.Nodes[e.Head].Text)
		b.WriteByte('-')
		writeInt(e.Head + 1)
		b.WriteString(", ")
		b.WriteString(g.Nodes[e.Dep].Text)
		b.WriteByte('-')
		writeInt(e.Dep + 1)
		b.WriteString(")\n")
	}
	return b.String()
}

// Validate checks structural invariants: exactly one root, head indices in
// range, acyclic tree edges, and extra edges referencing valid nodes.
func (g *DepGraph) Validate() error {
	roots := 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Head == -1 {
			if n.Rel != RelRoot {
				return fmt.Errorf("nlp: node %d has no head but rel %q", i, n.Rel)
			}
			roots++
			continue
		}
		if n.Head < 0 || n.Head >= len(g.Nodes) {
			return fmt.Errorf("nlp: node %d has out-of-range head %d", i, n.Head)
		}
		if n.Head == i {
			return fmt.Errorf("nlp: node %d is its own head", i)
		}
	}
	if len(g.Nodes) > 0 && roots != 1 {
		return fmt.Errorf("nlp: graph has %d roots, want 1", roots)
	}
	// Cycle check: walking up from any node must terminate.
	for i := range g.Nodes {
		seen := map[int]bool{}
		for j := i; j >= 0; j = g.Nodes[j].Head {
			if seen[j] {
				return fmt.Errorf("nlp: cycle through node %d", j)
			}
			seen[j] = true
		}
	}
	for _, e := range g.Extra {
		if e.Head < 0 || e.Head >= len(g.Nodes) || e.Dep < 0 || e.Dep >= len(g.Nodes) {
			return fmt.Errorf("nlp: extra edge %v out of range", e)
		}
	}
	return nil
}
