package ix

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"nl2cm/internal/nlp"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// maxPatternVars bounds the variables of one pattern, so that a set of
// them fits in one machine word.
const maxPatternVars = 64

// matcher is a Pattern compiled for dependency graphs. ParsePatterns
// builds one per pattern and Find runs it straight over the graph:
// variables are integer slots, each triple walks the tree edges
// (Node.Head/Rel) and the Extra edges, and filters are a closure tree
// over nlp.Node fields. A matcher is immutable; all match-time state
// lives in the frame of one Find call.
//
// Matches are exactly those of joining the pattern's triples as a SPARQL
// basic graph pattern over the graph's edges with sparql.Eval, rows in
// the same order, and keeping the rows its filters accept: a graph's
// triples are joined in the order the sparql planner picks (exact edge
// counts, ÷16 per bound variable, the disconnected-pattern penalty, ties
// by declaration position) and edges are walked in DepGraph.Edges order.
// Filter operators follow sparql.Expr.Eval over nodes as blank terms
// "n<i>" and relations as IRIs. The node functions and vocabulary tests
// belong to the matcher alone (sparql evaluates neither); the tests'
// oracle interprets them the same way. An erroring filter drops the row.
type matcher struct {
	triples []mtriple // declaration order
	filters []mfilter
	nslots  int
	anchor  int // the anchor variable's slot
	// never is set when a triple has a constant subject or object: no
	// graph node equals a constant, so the pattern matches nothing.
	never bool
}

// mtriple is one compiled edge constraint ($s rel $o or $s $p $o).
type mtriple struct {
	s, o int
	p    int    // slot of a variable relation, or -1
	rel  string // the fixed relation when p < 0
	vars uint64 // the slots the triple binds
}

// mfilter is one compiled FILTER, with the slots it reads.
type mfilter struct {
	need uint64
	eval evalFn
}

// evalFn evaluates a filter (sub)expression against the frame's current
// row; ok is false where sparql.Expr.Eval would return an error, or a
// node function or vocabulary test cannot apply.
type evalFn func(f *frame) (v value, ok bool)

// What a slot binds; whether it is bound at all is the bound mask's
// business.
const (
	nodeSlot uint8 = iota + 1
	relSlot
)

// slotVal is the value of one variable slot: a graph node, or the
// relation a variable predicate bound.
type slotVal struct {
	rel  string
	node int
	kind uint8
}

// frame is the state of one Find call, shared by the patterns it runs
// one after another. Its fixed arrays back the slices of patterns of
// ordinary size, so matching allocates only the matches it returns.
type frame struct {
	g      *nlp.DepGraph
	vocabs *Vocabularies
	p      *Pattern
	start  int // index in out of the current pattern's first match
	out    []Match
	outCap int

	row    []slotVal
	order  []int
	rem    []int
	counts []int
	nodes  []int

	rowBuf   [8]slotVal
	orderBuf [8]int
	remBuf   [8]int
	countBuf [8]int
	nodeBuf  [8]int
}

func newFrame(g *nlp.DepGraph, vocabs *Vocabularies, patterns int) *frame {
	f := &frame{g: g, vocabs: vocabs, outCap: patterns}
	f.row, f.order, f.rem = f.rowBuf[:], f.orderBuf[:0], f.remBuf[:0]
	f.counts, f.nodes = f.countBuf[:0], f.nodeBuf[:0]
	return f
}

// run appends the pattern's matches over the frame's graph to f.out:
// one per anchor, built from the first row that binds it.
func (m *matcher) run(f *frame, p *Pattern) {
	if m.never {
		return
	}
	f.p, f.start = p, len(f.out)
	if cap(f.row) < m.nslots {
		f.row = make([]slotVal, m.nslots)
	}
	f.row = f.row[:m.nslots]
	m.walk(f, m.plan(f), 0, 0)
}

// plan orders the triples for this graph the way the sparql planner
// orders a basic graph pattern: greedily by estimated size, where a
// triple's base estimate is its exact edge count with only its relation
// fixed, divided by 16 per already bound variable, and a triple sharing
// no bound variable is pushed behind connected ones. Ties keep
// declaration order.
func (m *matcher) plan(f *frame) []int {
	order := f.order[:0]
	if len(m.triples) == 1 {
		order = append(order, 0)
		f.order = order
		return order
	}
	rem, counts := f.rem[:0], f.counts[:0]
	for i := range m.triples {
		rem = append(rem, i)
		counts = append(counts, f.countEdges(&m.triples[i]))
	}
	var bound uint64
	for len(rem) > 0 {
		best, bestCost := 0, math.Inf(1)
		for i, ti := range rem {
			t := &m.triples[ti]
			cost := float64(counts[ti])
			b, u := bits.OnesCount64(t.vars&bound), bits.OnesCount64(t.vars&^bound)
			for k := 0; k < b; k++ {
				cost /= 16
			}
			if b == 0 && u > 0 && bound != 0 {
				cost = cost*1e6 + 1e6
			}
			if cost < bestCost {
				best, bestCost = i, cost
			}
		}
		ti := rem[best]
		rem = append(rem[:best], rem[best+1:]...)
		order = append(order, ti)
		bound |= m.triples[ti].vars
	}
	f.order, f.rem, f.counts = order, rem, counts
	return order
}

// countEdges counts the graph's edges whose relation the triple admits.
func (f *frame) countEdges(t *mtriple) int {
	n := 0
	for i := range f.g.Nodes {
		if nd := &f.g.Nodes[i]; nd.Head >= 0 && (t.p >= 0 || nd.Rel == t.rel) {
			n++
		}
	}
	for _, e := range f.g.Extra {
		if t.p >= 0 || e.Rel == t.rel {
			n++
		}
	}
	return n
}

// walk extends the row, bound on the slots in bound, through the
// triples order[depth:], depth first, in DepGraph.Edges order: tree
// edges by dependent index, then Extra.
func (m *matcher) walk(f *frame, order []int, depth int, bound uint64) {
	if depth == len(order) {
		m.emit(f)
		return
	}
	t := &m.triples[order[depth]]
	g := f.g
	for i := range g.Nodes {
		if nd := &g.Nodes[i]; nd.Head >= 0 && (t.p >= 0 || nd.Rel == t.rel) {
			m.step(f, order, depth, bound, t, nd.Head, nd.Rel, i)
		}
	}
	for _, e := range g.Extra {
		if t.p >= 0 || e.Rel == t.rel {
			m.step(f, order, depth, bound, t, e.Head, e.Rel, e.Dep)
		}
	}
}

// step unifies triple t with the edge (head, rel, dep), runs the filters
// that become decidable at this depth, and recurses. Slots outside the
// bound mask hold stale values, so nothing needs undoing on return.
func (m *matcher) step(f *frame, order []int, depth int, bound uint64, t *mtriple, head int, rel string, dep int) {
	mask := bound
	if !f.bindNode(t.s, head, &mask) ||
		(t.p >= 0 && !f.bindRel(t.p, rel, &mask)) ||
		!f.bindNode(t.o, dep, &mask) {
		return
	}
	if a := uint64(1) << m.anchor; mask&^bound&a != 0 && f.anchorSeen(f.row[m.anchor]) {
		// Every row below would repeat an anchor already matched; pruning
		// here keeps a pattern with many rows per anchor from
		// enumerating them all.
		return
	}
	for i := range m.filters {
		fl := &m.filters[i]
		if fl.need&^mask != 0 || (fl.need&^bound == 0 && !(fl.need == 0 && depth == 0)) {
			continue // not yet decidable, or decided at an earlier depth
		}
		if v, ok := fl.eval(f); !ok || !v.truthy() {
			return
		}
	}
	m.walk(f, order, depth+1, mask)
}

func (f *frame) bindNode(slot, node int, mask *uint64) bool {
	bit := uint64(1) << slot
	if *mask&bit != 0 {
		b := &f.row[slot]
		return b.kind == nodeSlot && b.node == node
	}
	f.row[slot] = slotVal{kind: nodeSlot, node: node}
	*mask |= bit
	return true
}

func (f *frame) bindRel(slot int, rel string, mask *uint64) bool {
	bit := uint64(1) << slot
	if *mask&bit != 0 {
		b := &f.row[slot]
		return b.kind == relSlot && b.rel == rel
	}
	f.row[slot] = slotVal{kind: relSlot, rel: rel}
	*mask |= bit
	return true
}

// anchorSeen reports whether the anchor binding yields no new match:
// it is not a node, or the current pattern already matched it.
func (f *frame) anchorSeen(a slotVal) bool {
	if a.kind != nodeSlot {
		return true
	}
	for i := f.start; i < len(f.out); i++ {
		if f.out[i].Anchor == a.node {
			return true
		}
	}
	return false
}

// emit records a complete row as a match unless its anchor already has
// one. Match.Nodes holds the distinct node bindings, ascending; relation
// bindings are left out.
func (m *matcher) emit(f *frame) {
	a := f.row[m.anchor]
	if f.anchorSeen(a) {
		return
	}
	nodes := f.nodes[:0]
	for _, b := range f.row {
		if b.kind != nodeSlot {
			continue
		}
		i := len(nodes)
		for i > 0 && nodes[i-1] > b.node {
			i--
		}
		if i > 0 && nodes[i-1] == b.node {
			continue
		}
		nodes = append(nodes, 0)
		copy(nodes[i+1:], nodes[i:])
		nodes[i] = b.node
	}
	f.nodes = nodes
	if f.out == nil {
		f.out = make([]Match, 0, f.outCap)
	}
	f.out = append(f.out, Match{Pattern: f.p, Anchor: a.node, Nodes: append([]int(nil), nodes...)})
}

// compilePattern builds the matcher of a parsed pattern. It rejects what
// could only ever fail at match time: an unknown node function, a call
// with other than one argument, and a filter variable no triple binds.
func compilePattern(p *Pattern) (*matcher, error) {
	c := &compiler{p: p, slots: map[string]int{}}
	m := &matcher{}
	for _, t := range p.Triples {
		mt := mtriple{p: -1}
		if !t.S.IsVar() || !t.O.IsVar() || !(t.P.IsVar() || t.P.IsIRI()) {
			m.never = true
		}
		if !t.P.IsVar() {
			mt.rel = t.P.Value()
		}
		var err error
		for _, pos := range [...]struct {
			term rdf.Term
			slot *int
		}{{t.S, &mt.s}, {t.P, &mt.p}, {t.O, &mt.o}} {
			if err == nil && pos.term.IsVar() {
				*pos.slot, err = c.slot(pos.term.Value())
			}
		}
		if err != nil {
			return nil, err
		}
		mt.vars = 1<<mt.s | 1<<mt.o
		if mt.p >= 0 {
			mt.vars |= 1 << mt.p
		}
		m.triples = append(m.triples, mt)
	}
	anchor, ok := c.slots[p.Anchor]
	if !ok {
		return nil, fmt.Errorf("pattern %s: anchor $%s not used in pattern", p.Name, p.Anchor)
	}
	m.anchor = anchor
	for _, e := range p.Filters {
		c.need = 0
		fn, err := c.expr(e)
		if err != nil {
			return nil, err
		}
		m.filters = append(m.filters, mfilter{need: c.need, eval: fn})
	}
	m.nslots = len(c.slots)
	return m, nil
}

// compiler carries the slot table while one pattern compiles; need
// collects the slots the filter being compiled reads.
type compiler struct {
	p     *Pattern
	slots map[string]int
	need  uint64
}

func (c *compiler) slot(name string) (int, error) {
	if s, ok := c.slots[name]; ok {
		return s, nil
	}
	if len(c.slots) == maxPatternVars {
		return 0, fmt.Errorf("pattern %s: more than %d variables", c.p.Name, maxPatternVars)
	}
	s := len(c.slots)
	c.slots[name] = s
	return s, nil
}

// nodeFuncs are the filter functions over graph nodes, by upper-cased
// name: POS the coarse category, TAG the Penn tag, LEMMA, WORD the
// lower-cased surface form and INDEX the token position.
var nodeFuncs = map[string]func(n *nlp.Node) value{
	"POS":   func(n *nlp.Node) value { return value{kind: kStr, str: coarsePOS(n.POS), numState: notNumber} },
	"TAG":   func(n *nlp.Node) value { return value{kind: kStr, str: n.POS} },
	"LEMMA": func(n *nlp.Node) value { return value{kind: kStr, str: n.Lemma} },
	"WORD":  func(n *nlp.Node) value { return value{kind: kStr, str: n.Lower} },
	"INDEX": func(n *nlp.Node) value { return value{kind: kNum, num: float64(n.Index)} },
}

// coarsePOS maps a Penn tag to the coarse category names the paper's
// patterns use (POS($x) = "verb").
func coarsePOS(tag string) string {
	switch {
	case len(tag) >= 2 && tag[:2] == "VB":
		return "verb"
	case len(tag) >= 2 && tag[:2] == "NN":
		return "noun"
	case len(tag) >= 2 && tag[:2] == "JJ":
		return "adjective"
	case len(tag) >= 2 && tag[:2] == "RB":
		return "adverb"
	case tag == "PRP" || tag == "PRP$":
		return "pronoun"
	case tag == "MD":
		return "modal"
	case len(tag) >= 1 && tag[0] == 'W':
		return "wh"
	case tag == "DT" || tag == "PDT":
		return "determiner"
	case tag == "IN" || tag == "TO":
		return "preposition"
	case tag == "CD":
		return "number"
	case tag == "CC":
		return "conjunction"
	default:
		return "other"
	}
}

func (c *compiler) expr(e sparql.Expr) (evalFn, error) {
	switch x := e.(type) {
	case *sparql.VarExpr:
		s, ok := c.slots[x.Name]
		if !ok {
			return nil, fmt.Errorf("pattern %s: filter variable $%s is not bound by any triple", c.p.Name, x.Name)
		}
		c.need |= 1 << s
		return func(f *frame) (value, bool) {
			b := &f.row[s]
			if b.kind == relSlot {
				return value{kind: kIRI, str: b.rel}, true
			}
			return value{kind: kNode, node: b.node}, true
		}, nil
	case *sparql.LitExpr:
		v, err := c.literal(x.Val)
		if err != nil {
			return nil, err
		}
		return func(*frame) (value, bool) { return v, true }, nil
	case *sparql.CallExpr:
		return c.call(x)
	case *sparql.NotExpr:
		in, err := c.expr(x.X)
		if err != nil {
			return nil, err
		}
		return func(f *frame) (value, bool) {
			v, ok := in(f)
			return boolValue(ok && !v.truthy()), ok
		}, nil
	case *sparql.BinExpr:
		return c.binary(x)
	case *sparql.InExpr:
		return c.in(x)
	}
	return nil, fmt.Errorf("pattern %s: unsupported filter expression %s", c.p.Name, e)
}

// literal resolves a constant operand once: a string literal's numeric
// reading is worked out here instead of on every row.
func (c *compiler) literal(v sparql.Value) (value, error) {
	switch v.Kind {
	case sparql.VStr:
		out := value{kind: kStr, str: v.Str, numState: notNumber}
		if n, err := strconv.ParseFloat(v.Str, 64); err == nil {
			out.num, out.numState = n, isNumber
		}
		return out, nil
	case sparql.VNum:
		return value{kind: kNum, num: v.Num}, nil
	case sparql.VBool:
		return boolValue(v.Bool), nil
	case sparql.VTerm:
		if v.Term.IsIRI() {
			return value{kind: kIRI, str: v.Term.Value()}, nil
		}
	}
	return value{}, fmt.Errorf("pattern %s: unsupported constant %v", c.p.Name, v)
}

func (c *compiler) call(x *sparql.CallExpr) (evalFn, error) {
	name := strings.ToUpper(x.Name)
	get, ok := nodeFuncs[name]
	if !ok {
		return nil, fmt.Errorf("pattern %s: unknown function %s() (want POS, TAG, LEMMA, WORD or INDEX)", c.p.Name, x.Name)
	}
	if len(x.Args) != 1 {
		return nil, fmt.Errorf("pattern %s: %s() takes 1 argument, got %d", c.p.Name, x.Name, len(x.Args))
	}
	arg, err := c.expr(x.Args[0])
	if err != nil {
		return nil, err
	}
	return func(f *frame) (value, bool) {
		v, ok := arg(f)
		if !ok {
			return value{}, false
		}
		n, ok := f.node(v)
		if !ok {
			return value{}, false
		}
		return get(n), true
	}, nil
}

func (c *compiler) binary(x *sparql.BinExpr) (evalFn, error) {
	l, err := c.expr(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.expr(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "&&", "||":
		or := x.Op == "||"
		return func(f *frame) (value, bool) {
			lv, ok := l(f)
			if !ok {
				return value{}, false
			}
			if lv.truthy() == or {
				return boolValue(or), true
			}
			rv, ok := r(f)
			return boolValue(ok && rv.truthy()), ok
		}, nil
	case "=", "==", "!=":
		want := x.Op != "!="
		return func(f *frame) (value, bool) {
			lv, rv, ok := both(f, l, r)
			return boolValue(ok && equalValues(&lv, &rv) == want), ok
		}, nil
	case "<", "<=", ">", ">=":
		op := x.Op
		return func(f *frame) (value, bool) {
			lv, rv, ok := both(f, l, r)
			if !ok {
				return value{}, false
			}
			cmp := compareValues(&lv, &rv)
			switch op {
			case "<":
				return boolValue(cmp < 0), true
			case "<=":
				return boolValue(cmp <= 0), true
			case ">":
				return boolValue(cmp > 0), true
			}
			return boolValue(cmp >= 0), true
		}, nil
	case "+", "-":
		sub := x.Op == "-"
		return func(f *frame) (value, bool) {
			lv, rv, ok := both(f, l, r)
			if !ok {
				return value{}, false
			}
			ln, lok := lv.number()
			rn, rok := rv.number()
			if !lok || !rok {
				return value{}, false
			}
			if sub {
				return value{kind: kNum, num: ln - rn}, true
			}
			return value{kind: kNum, num: ln + rn}, true
		}, nil
	}
	return nil, fmt.Errorf("pattern %s: unknown operator %q", c.p.Name, x.Op)
}

// both evaluates two operands left to right; ok is false when either
// errors.
func both(f *frame, l, r evalFn) (lv, rv value, ok bool) {
	if lv, ok = l(f); !ok {
		return
	}
	rv, ok = r(f)
	return
}

func (c *compiler) in(x *sparql.InExpr) (evalFn, error) {
	in, err := c.expr(x.X)
	if err != nil {
		return nil, err
	}
	neg := x.Negated
	if x.SetName != "" {
		// Vocabularies resolve at match time, so an administrator may
		// load or edit them after the patterns.
		name := x.SetName
		return func(f *frame) (value, bool) {
			v, ok := in(f)
			if !ok || f.vocabs == nil {
				return value{}, false
			}
			voc, ok := f.vocabs.Get(name)
			if !ok {
				return value{}, false
			}
			return boolValue(f.inVocab(voc, &v) != neg), true
		}, nil
	}
	items := make([]evalFn, len(x.List))
	for i, it := range x.List {
		if items[i], err = c.expr(it); err != nil {
			return nil, err
		}
	}
	return func(f *frame) (value, bool) {
		v, ok := in(f)
		if !ok {
			return value{}, false
		}
		found := false
		for _, item := range items {
			iv, ok := item(f)
			if !ok {
				return value{}, false
			}
			if equalValues(&v, &iv) {
				found = true
				break
			}
		}
		return boolValue(found != neg), true
	}, nil
}

// node resolves a value to the graph node it binds; ok is false for any
// other value, the error case of a node function.
func (f *frame) node(v value) (*nlp.Node, bool) {
	if v.kind != kNode || v.node < 0 || v.node >= len(f.g.Nodes) {
		return nil, false
	}
	return &f.g.Nodes[v.node], true
}

// inVocab tests a node's lemma and surface form against the vocabulary,
// so that V_participant matches both "we" and "us"; any other value
// tests its text, where numbers and booleans read as "".
func (f *frame) inVocab(voc *Vocabulary, v *value) bool {
	if n, ok := f.node(*v); ok {
		return voc.Contains(n.Lemma) || voc.Contains(n.Lower)
	}
	switch v.kind {
	case kStr, kIRI:
		return voc.Contains(v.str)
	case kNode:
		return voc.Contains(v.text())
	}
	return voc.Contains("")
}

// value is a filter value, mirroring sparql.Value: kIRI and kNode are
// the two kinds of term a row binds (a relation IRI, a node's blank term
// "n<i>"), or kIRI an IRI constant.
type value struct {
	str  string // kStr text, kIRI value
	num  float64
	node int
	kind valueKind
	// numState caches a kStr's numeric reading: 0 not parsed yet, or
	// isNumber (in num) or notNumber.
	numState int8
	b        bool
}

type valueKind uint8

const (
	kIRI valueKind = iota
	kNode
	kStr
	kNum
	kBool
)

const (
	isNumber  int8 = 1
	notNumber int8 = -1
)

func boolValue(b bool) value { return value{kind: kBool, b: b} }

func (v *value) isTerm() bool { return v.kind == kIRI || v.kind == kNode }

// truthy is sparql.Value.Truthy; a node's label is never empty.
func (v *value) truthy() bool {
	switch v.kind {
	case kBool:
		return v.b
	case kNum:
		return v.num != 0
	case kStr, kIRI:
		return v.str != ""
	}
	return true
}

// mayBeNumber reports whether number could succeed without parsing.
func (v *value) mayBeNumber() bool {
	return v.kind == kNum || (v.kind == kStr && v.numState != notNumber)
}

// number is the numeric reading: numbers, and strings that parse as
// one. Terms are not numeric (no row binds a literal).
func (v *value) number() (float64, bool) {
	switch v.kind {
	case kNum:
		return v.num, true
	case kStr:
		if v.numState == 0 {
			v.numState = notNumber
			if n, err := strconv.ParseFloat(v.str, 64); err == nil {
				v.num, v.numState = n, isNumber
			}
		}
		return v.num, v.numState == isNumber
	}
	return 0, false
}

// text is the string view comparisons fall back to.
func (v *value) text() string {
	switch v.kind {
	case kStr, kIRI:
		return v.str
	case kNode:
		return "n" + strconv.Itoa(v.node)
	case kNum:
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	}
	return strconv.FormatBool(v.b)
}

// bothNumbers returns the numeric readings when both values have one.
func bothNumbers(l, r *value) (ln, rn float64, ok bool) {
	if !l.mayBeNumber() || !r.mayBeNumber() {
		return 0, 0, false
	}
	ln, lok := l.number()
	rn, rok := r.number()
	return ln, rn, lok && rok
}

// equalValues is sparql's: numeric when both sides are numbers, by
// identity when both are terms, else by text.
func equalValues(l, r *value) bool {
	if ln, rn, ok := bothNumbers(l, r); ok {
		return ln == rn
	}
	if l.isTerm() && r.isTerm() {
		return l.kind == r.kind && l.str == r.str && l.node == r.node
	}
	return l.text() == r.text()
}

// compareValues is sparql's: numeric when both sides are numbers; two
// terms by rdf.Term.Compare (IRIs before blank nodes, then by label);
// anything else by text.
func compareValues(l, r *value) int {
	if ln, rn, ok := bothNumbers(l, r); ok {
		switch {
		case ln < rn:
			return -1
		case ln > rn:
			return 1
		}
		return 0
	}
	if l.isTerm() && r.isTerm() && l.kind != r.kind {
		if l.kind == kIRI {
			return -1
		}
		return 1
	}
	return strings.Compare(l.text(), r.text())
}
