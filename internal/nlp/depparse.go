package nlp

import (
	"fmt"
	"slices"
	"strings"
)

// ParseDependencies builds a typed dependency graph for a tagged token
// sequence. The parser is deterministic and targets the question-style
// English that NL2CM receives: wh-questions (copular and with auxiliary
// inversion), yes/no questions, imperatives and simple declaratives, with
// prepositional phrases, relative clauses, infinitival modifiers,
// appositions, conjunctions and possessives.
//
// The produced relations are the Stanford-style labels declared in
// graph.go. The tree is rooted at the main predicate; relative-clause
// verbs additionally assign their gap role to the modified noun through
// Extra edges, keeping the tree acyclic.
//
// The parser reads of each token only what sameParseInput compares, and
// writes only heads, relations and extra edges; DepGraph.WithTokens
// relies on both, so a rule that reads another token field must be
// added there too.
func ParseDependencies(tokens []Token) (*DepGraph, error) {
	if len(tokens) == 0 {
		return nil, fmt.Errorf("nlp: empty sentence")
	}
	p := &depParser{g: &DepGraph{Nodes: make([]Node, len(tokens))}}
	for i, t := range tokens {
		p.g.Nodes[i] = Node{Token: t, Head: -2}
	}
	p.chunk()
	p.parseClause()
	p.finish()
	if err := p.g.Validate(); err != nil {
		return nil, fmt.Errorf("nlp: parse produced invalid graph: %w", err)
	}
	return p.g, nil
}

// WithTokens returns the graph ParseDependencies would build over
// tokens, made from g without parsing: tokens must be tagged (Tag), and
// when they agree node for node with g's tokens on everything the
// parser reads of a token (sameParseInput), the parse is determined, so
// the result is tokens as they are with g's heads, relations and extra
// edges, and source as its Source. Otherwise it reports false. The plan
// cache serves a same-shape question's graph this way.
func (g *DepGraph) WithTokens(tokens []Token, source string) (*DepGraph, bool) {
	if len(tokens) == 0 || len(tokens) != len(g.Nodes) {
		return nil, false
	}
	for i := range tokens {
		if !sameParseInput(&g.Nodes[i].Token, &tokens[i]) {
			return nil, false
		}
	}
	// The extra edges are shared: clipped, so an append to either graph's
	// copies them first.
	out := &DepGraph{Nodes: make([]Node, len(tokens)), Extra: slices.Clip(g.Extra), Source: source}
	for i := range tokens {
		out.Nodes[i] = Node{Token: tokens[i], Head: g.Nodes[i].Head, Rel: g.Nodes[i].Rel}
	}
	return out, true
}

// sameParseInput reports whether ParseDependencies reads the same of two
// tagged tokens: the tag; whether the token is punctuation, a comma or
// "that"; and which lemma test it passes (not, be, do, have, a temporal
// noun).
func sameParseInput(a, b *Token) bool {
	if a.POS != b.POS {
		return false
	}
	if a.Text == b.Text {
		// Lower is a function of Text, and Tag's Lemma of Lower and POS.
		return true
	}
	return a.IsPunct() == b.IsPunct() &&
		(a.Text == ",") == (b.Text == ",") &&
		(a.Lower == "that") == (b.Lower == "that") &&
		lemmaTest(a.Lemma) == lemmaTest(b.Lemma)
}

// lemmaTest names the one lemma test of the parser a lemma passes, ""
// for none.
func lemmaTest(lemma string) string {
	switch lemma {
	case "not", "be", "do", "have":
		return lemma
	}
	if temporalNouns[lemma] {
		return "temporal"
	}
	return ""
}

// chunk kinds.
const (
	ckNP    = "NP"
	ckADJP  = "ADJP"
	ckV     = "V"
	ckMD    = "MD"
	ckIN    = "IN"
	ckTO    = "TO"
	ckWRB   = "WRB"
	ckRB    = "RB"
	ckCC    = "CC"
	ckREL   = "REL" // relativizer that/which/who after a noun
	ckEX    = "EX"
	ckRP    = "RP"
	ckPunct = "PUNCT"
	ckX     = "X"
)

type chunk struct {
	kind       string
	start, end int // token span [start, end)
	head       int // head token index
}

type depParser struct {
	g      *DepGraph
	chunks []chunk
}

func (p *depParser) tok(i int) *Node { return &p.g.Nodes[i] }

// attach sets the head and relation of token dep.
func (p *depParser) attach(dep, head int, rel string) {
	if dep == head || dep < 0 {
		return
	}
	n := p.tok(dep)
	if n.Head != -2 {
		return // already attached
	}
	n.Head = head
	n.Rel = rel
}

func (p *depParser) setRoot(i int) {
	n := p.tok(i)
	if n.Head != -2 {
		return
	}
	n.Head = -1
	n.Rel = RelRoot
}

func isNounTag(pos string) bool {
	switch pos {
	case "NN", "NNS", "NNP", "NNPS":
		return true
	}
	return false
}

func isVerbTag(pos string) bool {
	switch pos {
	case "VB", "VBD", "VBG", "VBN", "VBP", "VBZ":
		return true
	}
	return false
}

func isAdjTag(pos string) bool {
	switch pos {
	case "JJ", "JJR", "JJS":
		return true
	}
	return false
}

// chunk groups the token stream into base phrases and assigns NP-internal
// dependencies.
func (p *depParser) chunk() {
	toks := p.g.Nodes
	n := len(toks)
	i := 0
	for i < n {
		t := &toks[i]
		switch {
		case t.IsPunct():
			p.add(chunk{ckPunct, i, i + 1, i})
			i++
		case t.POS == "EX":
			p.add(chunk{ckEX, i, i + 1, i})
			i++
		case t.POS == "PRP":
			p.add(chunk{ckNP, i, i + 1, i})
			i++
		case (t.POS == "WDT" || t.POS == "WP" || t.Lower == "that") &&
			i > 0 && isNounTag(toks[i-1].POS):
			// Relativizer after a noun: "hotel that ...", "dish which ...".
			p.add(chunk{ckREL, i, i + 1, i})
			i++
		case t.POS == "WP" || t.POS == "WDT" || t.POS == "WP$":
			if j := p.npEnd(i + 1); j > i+1 {
				// wh-determiner heading an NP: "what type", "which hotel".
				end, head := p.npInternal(i, j)
				p.add(chunk{ckNP, i, end, head})
				i = end
			} else {
				p.add(chunk{ckNP, i, i + 1, i})
				i++
			}
		case t.POS == "WRB":
			p.add(chunk{ckWRB, i, i + 1, i})
			i++
		case t.POS == "MD":
			p.add(chunk{ckMD, i, i + 1, i})
			i++
		case isVerbTag(t.POS):
			p.add(chunk{ckV, i, i + 1, i})
			i++
		case t.POS == "IN":
			p.add(chunk{ckIN, i, i + 1, i})
			i++
		case t.POS == "TO":
			p.add(chunk{ckTO, i, i + 1, i})
			i++
		case t.POS == "CC":
			p.add(chunk{ckCC, i, i + 1, i})
			i++
		case t.POS == "RP":
			p.add(chunk{ckRP, i, i + 1, i})
			i++
		case t.POS == "RB" || t.POS == "RBR" || t.POS == "RBS":
			// Adverb directly before an adjective belongs to the
			// adjective phrase / NP; handled by npEnd below.
			if j := p.npEnd(i); j > i {
				end, head := p.npInternal(i, j)
				p.add(chunk{ckNP, i, end, head})
				i = end
			} else if j := p.adjpEnd(i); j > i {
				end, head := p.adjpInternal(i, j)
				p.add(chunk{ckADJP, i, end, head})
				i = end
			} else {
				p.add(chunk{ckRB, i, i + 1, i})
				i++
			}
		case t.POS == "DT" || t.POS == "PRP$" || t.POS == "PDT" ||
			isAdjTag(t.POS) || isNounTag(t.POS) || t.POS == "CD" ||
			t.POS == "VBG" || t.POS == "VBN":
			if j := p.npEnd(i); j > i {
				end, head := p.npInternal(i, j)
				p.add(chunk{ckNP, i, end, head})
				i = end
			} else if isAdjTag(t.POS) {
				end, head := p.adjpInternal(i, p.adjpEnd(i))
				p.add(chunk{ckADJP, i, end, head})
				i = end
			} else {
				p.add(chunk{ckX, i, i + 1, i})
				i++
			}
		default:
			p.add(chunk{ckX, i, i + 1, i})
			i++
		}
	}
}

func (p *depParser) add(c chunk) { p.chunks = append(p.chunks, c) }

// npEnd returns the exclusive end of an NP starting at i, or i when no NP
// starts there. An NP must contain at least one noun (or end in CD).
func (p *depParser) npEnd(i int) int {
	toks := p.g.Nodes
	n := len(toks)
	j := i
	if j < n && toks[j].POS == "PDT" {
		j++
	}
	if j < n && (toks[j].POS == "DT" || toks[j].POS == "PRP$" ||
		toks[j].POS == "WDT" || toks[j].POS == "WP$" || toks[j].POS == "WP") {
		j++
	}
	// pre-modifiers: adverbs (only before adjectives), adjectives,
	// participles, cardinals.
	sawNoun := false
	for j < n {
		pos := toks[j].POS
		switch {
		case (pos == "RB" || pos == "RBS" || pos == "RBR") &&
			j+1 < n && (isAdjTag(toks[j+1].POS) || toks[j+1].POS == "VBG" || toks[j+1].POS == "VBN"):
			j++
		case isAdjTag(pos) || pos == "CD" || pos == "VBG" || pos == "VBN":
			// A participle only joins the NP when a noun follows.
			if (pos == "VBG" || pos == "VBN") && !(j+1 < n && p.nounAhead(j+1)) {
				goto done
			}
			j++
		case isNounTag(pos):
			sawNoun = true
			j++
			// possessive marker continues the NP: "friend 's house".
			if j < n && toks[j].POS == "POS" && j+1 < n && p.nounAhead(j+1) {
				j++
			}
		default:
			goto done
		}
	}
done:
	if !sawNoun {
		return i
	}
	// Trim trailing adjectives that were not followed by a noun.
	for j > i && !isNounTag(toks[j-1].POS) && toks[j-1].POS != "CD" {
		j--
	}
	if j == i {
		return i
	}
	return j
}

// nounAhead reports whether a noun occurs at or after i before the NP
// could end (i.e. within the run of NP-internal tags).
func (p *depParser) nounAhead(i int) bool {
	toks := p.g.Nodes
	for ; i < len(toks); i++ {
		pos := toks[i].POS
		if isNounTag(pos) {
			return true
		}
		if isAdjTag(pos) || pos == "CD" || pos == "VBG" || pos == "VBN" ||
			pos == "RB" || pos == "RBS" || pos == "RBR" {
			continue
		}
		return false
	}
	return false
}

// npInternal assigns NP-internal edges for span [start,end) and returns
// (end, head index). The head is the last noun (or last token).
func (p *depParser) npInternal(start, end int) (int, int) {
	toks := p.g.Nodes
	head := end - 1
	for k := end - 1; k >= start; k-- {
		if isNounTag(toks[k].POS) {
			head = k
			break
		}
	}
	for k := start; k < end; k++ {
		if k == head {
			continue
		}
		pos := toks[k].POS
		switch {
		case pos == "PDT":
			p.attach(k, head, RelPredet)
		case pos == "DT" || pos == "WDT" || pos == "WP":
			p.attach(k, head, RelDet)
		case pos == "PRP$" || pos == "WP$":
			// A possessive pronoun modifies the possessor noun when a
			// possessive marker follows it ("my friend 's house"), else
			// the NP head.
			target := head
			for j := k + 1; j < end; j++ {
				if isNounTag(toks[j].POS) {
					if j+1 < end && toks[j+1].POS == "POS" {
						target = j
					}
					break
				}
			}
			p.attach(k, target, RelPoss)
		case pos == "POS":
			// possessive marker attaches to the possessor noun to its left
			if k > start {
				p.attach(k, k-1, "possessive")
				// the possessor noun modifies the head
				if k-1 != head {
					p.tok(k - 1).Head = -2 // allow reattachment
					p.attach(k-1, head, RelPoss)
				}
			}
		case pos == "RB" || pos == "RBS" || pos == "RBR":
			// attaches to the following adjective if any, else the head
			if k+1 < end && (isAdjTag(toks[k+1].POS) || toks[k+1].POS == "VBG" || toks[k+1].POS == "VBN") {
				p.attach(k, k+1, RelAdvMod)
			} else {
				p.attach(k, head, RelAdvMod)
			}
		case isAdjTag(pos) || pos == "VBG" || pos == "VBN":
			p.attach(k, head, RelAMod)
		case pos == "CD":
			p.attach(k, head, RelNum)
		case isNounTag(pos):
			if k < head {
				p.attach(k, head, RelNN)
			} else {
				p.attach(k, head, RelDep)
			}
		default:
			p.attach(k, head, RelDep)
		}
	}
	return end, head
}

// adjpEnd returns the exclusive end of a bare adjective phrase at i.
func (p *depParser) adjpEnd(i int) int {
	toks := p.g.Nodes
	j := i
	for j < len(toks) {
		pos := toks[j].POS
		if (pos == "RB" || pos == "RBS" || pos == "RBR") && j+1 < len(toks) && isAdjTag(toks[j+1].POS) {
			j++
			continue
		}
		if isAdjTag(pos) {
			j++
			continue
		}
		break
	}
	return j
}

func (p *depParser) adjpInternal(start, end int) (int, int) {
	toks := p.g.Nodes
	head := end - 1
	for k := start; k < end-1; k++ {
		if toks[k].POS == "RB" || toks[k].POS == "RBS" || toks[k].POS == "RBR" {
			p.attach(k, k+1, RelAdvMod)
		} else if isAdjTag(toks[k].POS) {
			p.attach(k, head, RelAMod)
		}
	}
	return end, head
}

// ---------- clause-level parsing ----------

type clauseState struct {
	root     int // main predicate token, -1 until known
	lastNP   int // most recent attachable NP/ADJP head
	lastVerb int // most recent verb token
	// pending material waiting for the next predicate:
	pendingAux  []int
	pendingAdv  []int
	pendingNeg  []int
	pendingPrep []int // fronted prepositions ("At what container should...")
	whFront     int   // fronted wh-NP head awaiting a role, -1 if none
	subj        int   // subject NP awaiting its verb, -1 if none
	afterComma  bool
}

func (p *depParser) parseClause() {
	st := &clauseState{root: -1, lastNP: -1, lastVerb: -1, whFront: -1, subj: -1}
	cs := p.chunks
	for k := 0; k < len(cs); k++ {
		c := cs[k]
		switch c.kind {
		case ckPunct:
			st.afterComma = p.tok(c.head).Text == ","
			continue
		case ckWRB:
			st.pendingAdv = append(st.pendingAdv, c.head)
		case ckRB:
			if p.tok(c.head).Lemma == "not" {
				st.pendingNeg = append(st.pendingNeg, c.head)
			} else {
				st.pendingAdv = append(st.pendingAdv, c.head)
			}
		case ckMD:
			st.pendingAux = append(st.pendingAux, c.head)
		case ckEX:
			st.pendingAdv = append(st.pendingAdv, c.head) // resolved at verb as expl
		case ckRP:
			if st.lastVerb >= 0 {
				p.attach(c.head, st.lastVerb, RelPrt)
			}
		case ckCC:
			p.handleCC(k, st)
			k = p.skipConsumed(k)
		case ckIN:
			k = p.handlePrep(k, st)
		case ckTO:
			k = p.handleTo(k, st)
		case ckREL:
			k = p.handleRelativizer(k, st)
		case ckNP, ckADJP:
			k = p.handleNP(k, st)
		case ckV:
			p.handleVerb(k, st)
		case ckX:
			if st.root >= 0 {
				p.attach(c.head, st.root, RelDep)
			}
		}
		if c.kind != ckPunct {
			st.afterComma = false
		}
	}
	p.resolveRoot(st)
}

// nextNonPunct returns the index of the next non-punctuation chunk after
// k, or -1.
func (p *depParser) nextNonPunct(k int) int {
	for j := k + 1; j < len(p.chunks); j++ {
		if p.chunks[j].kind != ckPunct {
			return j
		}
	}
	return -1
}

// consumed marks chunks already handled by lookahead so the main loop
// skips them. Encoded by setting kind to "".
func (p *depParser) consume(k int) { p.chunks[k].kind = "" }

func (p *depParser) skipConsumed(k int) int { return k }

// handleNP processes an NP or ADJP chunk at cs[k]; returns the new loop
// index (for lookahead consumption).
func (p *depParser) handleNP(k int, st *clauseState) int {
	c := p.chunks[k]
	head := c.head
	first := p.tok(c.start)
	isWh := first.POS == "WP" || first.POS == "WDT" || first.POS == "WP$" ||
		strings.HasPrefix(first.POS, "W")

	// Apposition: previous NP head directly followed by ", ProperNoun".
	if st.afterComma && st.lastNP >= 0 && p.tok(head).POS == "NNP" && st.root != head {
		p.attach(head, st.lastNP, RelAppos)
		// keep lastNP pointing at the original noun
		return k
	}

	switch {
	case st.root == -1 && st.whFront == -1 && isWh && !p.followedBySubjectVerb(k):
		// fronted wh-phrase: role determined by the main verb later.
		st.whFront = head
		st.lastNP = head
	case st.root >= 0 && st.lastNP >= 0 && p.relClauseAhead(k):
		// NP starting a reduced relative clause: "places ... we should visit".
		p.parseRelClause(k, st)
		return k
	case st.subj == -1 && st.root == -1 && st.lastVerb == -1:
		// first NP before any verb: subject (declaratives) — or, in
		// questions, decided when the verb arrives.
		st.subj = head
		st.lastNP = head
	case st.lastVerb >= 0 && p.verbLacks(st.lastVerb, RelDObj) && !p.isCopula(st.lastVerb):
		// Existential "are there NP": the NP is the subject of "be".
		if p.isBeToken(st.lastVerb) && p.g.FirstDependent(st.lastVerb, RelExpl) != -1 {
			p.attach(head, st.lastVerb, RelNSubj)
		} else {
			p.attach(head, st.lastVerb, RelDObj)
		}
		st.lastNP = head
	case st.lastVerb >= 0 && p.isCopula(st.lastVerb):
		// predicate nominal/adjectival after a bare copula root: re-root
		// the clause at the predicate.
		be := st.lastVerb
		if p.tok(be).Head == -1 {
			p.tok(be).Head = -2 // demote; re-attached as cop below
			p.tok(be).Rel = ""
			st.root = head
			p.setRoot(head)
			p.attach(be, head, RelCop)
			// move the copula's dependents (subject etc.) to the predicate
			for i := range p.g.Nodes {
				if p.g.Nodes[i].Head == be && p.g.Nodes[i].Rel != RelCop {
					p.g.Nodes[i].Head = head
				}
			}
		}
		st.lastVerb = -1
		st.lastNP = head
	case st.subj >= 0 && st.root == -1:
		// two NPs before a verb: "we" after predicate... treat as new subject
		st.subj = head
		st.lastNP = head
	default:
		if st.root >= 0 {
			p.attach(head, st.root, RelDep)
		}
		st.lastNP = head
	}
	return k
}

// followedBySubjectVerb reports whether chunk k is a wh-NP immediately
// followed by a finite verb, which makes the wh-phrase itself the subject
// ("Who serves the best pizza?").
func (p *depParser) followedBySubjectVerb(k int) bool {
	j := p.nextNonPunct(k)
	if j < 0 {
		return false
	}
	if p.chunks[j].kind != ckV {
		return false
	}
	// "What are X" — copula follows; treat as fronted wh instead.
	if p.isBeToken(p.chunks[j].head) {
		return false
	}
	// "What do you eat" — auxiliary inversion; the wh-phrase is a
	// fronted object, not the subject.
	if aux, _ := p.auxOf(j); aux {
		return false
	}
	return true
}

func (p *depParser) isBeToken(i int) bool { return p.tok(i).Lemma == "be" }

func (p *depParser) isCopula(i int) bool {
	return p.tok(i).Rel == RelCop || (p.isBeToken(i) && p.tok(i).Head == -2)
}

// verbLacks reports whether verb v has no dependent with the relation yet.
func (p *depParser) verbLacks(v int, rel string) bool {
	return p.g.FirstDependent(v, rel) == -1
}

// handleVerb processes a verb chunk.
func (p *depParser) handleVerb(k int, st *clauseState) {
	v := p.chunks[k].head
	tokV := p.tok(v)

	// Is this verb an auxiliary for a following verb? "do you visit",
	// "are you visiting", "have you been". Auxiliary iff lemma in
	// be/do/have and another verb follows before any clause break.
	if aux, main := p.auxOf(k); aux {
		_ = main
		st.pendingAux = append(st.pendingAux, v)
		return
	}

	if p.isBeToken(v) {
		p.handleCopula(k, st)
		return
	}

	// Main (or first) verb of the clause.
	if st.root == -1 {
		st.root = v
		p.setRoot(v)
	} else if tokV.Head == -2 {
		// subsequent verb without explicit linkage: conjunct or dep
		p.attach(v, st.root, RelDep)
	}
	p.flushPending(v, st)

	// Subject.
	if st.subj >= 0 && p.verbLacks(v, RelNSubj) {
		p.attach(st.subj, v, RelNSubj)
		st.subj = -1
	} else if st.whFront >= 0 && p.verbLacks(v, RelNSubj) && p.whIsSubject(st, v) {
		p.attach(st.whFront, v, RelNSubj)
		st.whFront = -1
	}
	// Fronted wh-object: "What ... should I buy" — attach as dobj.
	if st.whFront >= 0 && p.verbLacks(v, RelDObj) && !p.objectAhead(k) {
		p.attach(st.whFront, v, RelDObj)
		st.whFront = -1
	}
	st.lastVerb = v
	st.lastNP = -1 // objects attach before further PPs go to the verb
}

// whIsSubject decides whether a pending fronted wh-phrase is the verb's
// subject (no other subject appeared): "Who visits Buffalo?".
func (p *depParser) whIsSubject(st *clauseState, v int) bool {
	return st.subj == -1 && p.g.FirstDependent(v, RelNSubj) == -1 &&
		len(st.pendingAux) == 0
}

// objectAhead reports whether an NP chunk follows chunk k before any
// preposition/verb, i.e. the verb will get a direct object from the right.
func (p *depParser) objectAhead(k int) bool {
	j := p.nextNonPunct(k)
	if j < 0 {
		return false
	}
	return p.chunks[j].kind == ckNP
}

// auxOf reports whether the verb chunk at k is an auxiliary of a later
// verb: be/do/have followed (within the clause, before commas or
// relativizers) by a subject NP and then a verb, or directly by a verb.
func (p *depParser) auxOf(k int) (bool, int) {
	v := p.chunks[k].head
	lemma := p.tok(v).Lemma
	if lemma != "be" && lemma != "do" && lemma != "have" {
		return false, -1
	}
	sawNP := false
	for j := k + 1; j < len(p.chunks); j++ {
		c := p.chunks[j]
		switch c.kind {
		case ckPunct:
			if p.tok(c.head).Text == "," {
				return false, -1 // clause break
			}
		case ckNP:
			if sawNP {
				return false, -1 // two NPs: the verb later is a rel clause
			}
			sawNP = true
		case ckRB:
			continue
		case ckV:
			vb := p.tok(c.head)
			switch lemma {
			case "do":
				// "do you visit" — always auxiliary before a base verb.
				if vb.POS == "VB" || vb.POS == "VBP" {
					return true, c.head
				}
				return false, -1
			case "be":
				// progressive/passive: "are you visiting", "is it sold".
				if vb.POS == "VBG" || vb.POS == "VBN" {
					return true, c.head
				}
				return false, -1
			case "have":
				if vb.POS == "VBN" {
					return true, c.head
				}
				return false, -1
			}
		case ckREL, ckIN, ckTO, ckMD, ckADJP:
			return false, -1
		}
	}
	return false, -1
}

// handleCopula processes a "be" main verb: the predicate that follows
// becomes the root and the copula attaches to it.
func (p *depParser) handleCopula(k int, st *clauseState) {
	be := p.chunks[k].head
	j := p.nextNonPunct(k)
	// Existential: "Are there good restaurants...".
	if j >= 0 && p.chunks[j].kind == ckEX {
		st.root = be
		p.setRoot(be)
		p.attach(p.chunks[j].head, be, RelExpl)
		p.consume(j)
		p.flushPending(be, st)
		// subject arrives as the next NP
		st.lastVerb = be
		return
	}
	// Find the predicate: in a yes/no question the subject NP comes first
	// ("Is [chocolate milk] [good]"), in a wh-question the predicate NP
	// comes right after ("What are [the most interesting places]").
	var np1, np2 = -1, -1
	var np1c, np2c = -1, -1
	for x := j; x >= 0 && x < len(p.chunks); x = p.nextNonPunct(x) {
		c := p.chunks[x]
		if c.kind == ckNP || c.kind == ckADJP {
			if np1 == -1 {
				np1, np1c = c.head, x
				// The predicate ADJP/NP may follow directly ("Is milk
				// good...") or, for adjectives only, after the subject's
				// PPs ("Is the top floor of the Stratosphere scary?").
				// An NP after PPs is an apposition or relative clause,
				// not a predicate ("places near Forest Hotel, Buffalo,
				// we should visit").
				y := p.nextNonPunct(x)
				skippedPP := false
				for y >= 0 && p.chunks[y].kind == ckIN {
					z := p.nextNonPunct(y)
					if z < 0 || p.chunks[z].kind != ckNP {
						break
					}
					skippedPP = true
					y = p.nextNonPunct(z)
				}
				if y >= 0 && (p.chunks[y].kind == ckADJP ||
					(!skippedPP && p.chunks[y].kind == ckNP && !p.relClauseAhead(y))) {
					np2, np2c = p.chunks[y].head, y
				}
			}
			break
		}
		if c.kind == ckPunct {
			continue
		}
		break
	}
	switch {
	case np2 >= 0:
		// "Is NP1 NP2/ADJP" — NP2 is the predicate, NP1 the subject.
		st.root = np2
		p.setRoot(np2)
		p.attach(be, np2, RelCop)
		p.attach(np1, np2, RelNSubj)
		if st.whFront >= 0 {
			p.attach(st.whFront, np2, RelAttr)
			st.whFront = -1
		}
		p.consume(np1c)
		p.consume(np2c)
		st.lastNP = np2
		st.lastVerb = -1
	case np1 >= 0:
		// "What are NP1" — NP1 is the predicate.
		st.root = np1
		p.setRoot(np1)
		p.attach(be, np1, RelCop)
		if st.whFront >= 0 {
			p.attach(st.whFront, np1, RelAttr)
			st.whFront = -1
		}
		if st.subj >= 0 {
			p.attach(st.subj, np1, RelNSubj)
			st.subj = -1
		}
		p.consume(np1c)
		st.lastNP = np1
		st.lastVerb = -1
	default:
		// bare "be" with no predicate NP: make it the root.
		st.root = be
		p.setRoot(be)
		st.lastVerb = be
	}
	p.flushPendingTo(st.root, st)
}

// flushPending attaches pending auxiliaries/adverbs/negation to verb v.
func (p *depParser) flushPending(v int, st *clauseState) { p.flushPendingTo(v, st) }

func (p *depParser) flushPendingTo(v int, st *clauseState) {
	for _, a := range st.pendingAux {
		rel := RelAux
		if p.isBeToken(a) && p.tok(v).POS == "VBN" {
			rel = RelAuxPass
		}
		p.attach(a, v, rel)
	}
	st.pendingAux = nil
	for _, a := range st.pendingAdv {
		p.attach(a, v, RelAdvMod)
	}
	st.pendingAdv = nil
	for _, a := range st.pendingNeg {
		p.attach(a, v, RelNeg)
	}
	st.pendingNeg = nil
	for _, a := range st.pendingPrep {
		p.attach(a, v, RelPrep)
	}
	st.pendingPrep = nil
}

// relClauseAhead reports whether the chunk at k begins a reduced relative
// clause: NP (subject) followed by optional MD/RB and a verb.
func (p *depParser) relClauseAhead(k int) bool {
	if p.chunks[k].kind != ckNP {
		return false
	}
	j := p.nextNonPunct(k)
	for j >= 0 {
		switch p.chunks[j].kind {
		case ckMD, ckRB:
			j = p.nextNonPunct(j)
		case ckV:
			return true
		default:
			return false
		}
	}
	return false
}

// parseRelClause parses "NPsubj [MD|RB]* V ..." as a relative clause
// modifying st.lastNP, consuming the chunks it uses.
// climbNP walks from an NP head upward out of apposition and
// prepositional-object chains to the noun that heads the whole complex
// NP, so a relative clause in "places near Forest Hotel, Buffalo, we
// should visit" modifies "places" rather than the PP-internal noun.
func (p *depParser) climbNP(i int) int {
	for {
		n := p.tok(i)
		switch n.Rel {
		case RelAppos:
			if n.Head < 0 {
				return i
			}
			i = n.Head
		case RelPObj:
			in := n.Head
			if in < 0 {
				return i
			}
			inNode := p.tok(in)
			if inNode.Rel == RelPrep && inNode.Head >= 0 && isNounTag(p.tok(inNode.Head).POS) {
				i = inNode.Head
				continue
			}
			return i
		default:
			return i
		}
	}
}

func (p *depParser) parseRelClause(k int, st *clauseState) {
	modified := p.climbNP(st.lastNP)
	subj := p.chunks[k].head
	p.consume(k)
	var aux, advs, negs []int
	j := p.nextNonPunct(k)
	for j >= 0 {
		c := p.chunks[j]
		if c.kind == ckMD {
			aux = append(aux, c.head)
			p.consume(j)
			j = p.nextNonPunct(j)
			continue
		}
		if c.kind == ckRB {
			if p.tok(c.head).Lemma == "not" {
				negs = append(negs, c.head)
			} else {
				advs = append(advs, c.head)
			}
			p.consume(j)
			j = p.nextNonPunct(j)
			continue
		}
		break
	}
	if j < 0 || p.chunks[j].kind != ckV {
		return
	}
	v := p.chunks[j].head
	p.consume(j)
	p.attach(v, modified, RelRCMod)
	p.attach(subj, v, RelNSubj)
	for _, a := range aux {
		p.attach(a, v, RelAux)
	}
	for _, a := range advs {
		p.attach(a, v, RelAdvMod)
	}
	for _, a := range negs {
		p.attach(a, v, RelNeg)
	}
	// Gap role: unless the relative verb has its own object NP to the
	// right, the modified noun is its (extra-edge) object.
	if !p.objectAhead(j) {
		p.g.Extra = append(p.g.Extra, Edge{Head: v, Dep: modified, Rel: RelDObj})
	}
	st.lastVerb = v
	st.lastNP = -1
}

// handleRelativizer parses "that/which/who" relative clauses after a noun.
func (p *depParser) handleRelativizer(k int, st *clauseState) int {
	relTok := p.chunks[k].head
	modified := st.lastNP
	if modified < 0 {
		p.attachLater(relTok, st)
		return k
	}
	j := p.nextNonPunct(k)
	if j < 0 {
		p.attachLater(relTok, st)
		return k
	}
	switch p.chunks[j].kind {
	case ckV, ckMD:
		// subject relative: "hotel that has ..." / "places that can host ..."
		var aux []int
		for j >= 0 && p.chunks[j].kind == ckMD {
			aux = append(aux, p.chunks[j].head)
			p.consume(j)
			j = p.nextNonPunct(j)
		}
		if j < 0 || p.chunks[j].kind != ckV {
			return k
		}
		v := p.chunks[j].head
		p.consume(j)
		p.attach(v, modified, RelRCMod)
		p.attach(relTok, v, RelRel)
		for _, a := range aux {
			p.attach(a, v, RelAux)
		}
		p.g.Extra = append(p.g.Extra, Edge{Head: v, Dep: modified, Rel: RelNSubj})
		st.lastVerb = v
		st.lastNP = -1
	case ckNP:
		// object relative: "dish that people cook"
		if p.relClauseAhead(j) {
			p.attach(relTok, modified, RelRel)
			save := st.lastNP
			st.lastNP = modified
			p.parseRelClause(j, st)
			_ = save
		} else {
			p.attachLater(relTok, st)
		}
	default:
		p.attachLater(relTok, st)
	}
	return k
}

func (p *depParser) attachLater(tok int, st *clauseState) {
	if st.root >= 0 {
		p.attach(tok, st.root, RelDep)
	}
}

// handlePrep parses a preposition and its NP object, attaching the PP to
// the immediately preceding head (noun if adjacent, else last verb, else
// root).
func (p *depParser) handlePrep(k int, st *clauseState) int {
	prep := p.chunks[k].head
	j := p.nextNonPunct(k)
	if j < 0 || (p.chunks[j].kind != ckNP && p.chunks[j].kind != ckADJP) {
		// stranded preposition: attach to last verb or root
		if st.lastVerb >= 0 {
			p.attach(prep, st.lastVerb, RelPrep)
		} else if st.root >= 0 {
			p.attach(prep, st.root, RelPrep)
		}
		return k
	}
	obj := p.chunks[j].head
	// Attachment point: prefer the NP directly before the preposition
	// (right association), then the last verb, then the root. Temporal
	// PPs ("in the fall", "at night") modify the predicate, not the noun.
	attachTo := -1
	if st.lastNP >= 0 && p.adjacentNP(k, st.lastNP) &&
		!(temporalNouns[p.tok(obj).Lemma] && (st.lastVerb >= 0 || st.root >= 0)) {
		attachTo = st.lastNP
	} else if st.lastVerb >= 0 {
		attachTo = st.lastVerb
	} else if st.root >= 0 {
		attachTo = st.root
	} else if st.subj >= 0 {
		attachTo = st.subj
	} else if st.whFront >= 0 {
		attachTo = st.whFront
	}
	p.attach(obj, prep, RelPObj)
	if attachTo >= 0 {
		p.attach(prep, attachTo, RelPrep)
	} else {
		st.pendingPrep = append(st.pendingPrep, prep)
	}
	p.consume(j)
	// An NP inside a PP becomes the latest NP for appositions/relative
	// clauses: "near Forest Hotel, Buffalo, we should visit".
	st.lastNP = obj
	st.afterComma = false
	return k
}

// temporalNouns are PP objects that signal a time adverbial, which
// attaches to the predicate rather than a neighboring noun.
var temporalNouns = map[string]bool{
	"fall": true, "autumn": true, "winter": true, "spring": true,
	"summer": true, "morning": true, "evening": true, "night": true,
	"afternoon": true, "weekend": true, "week": true, "month": true,
	"year": true, "day": true, "season": true, "holiday": true,
	"today": true, "tomorrow": true, "hour": true,
}

// adjacentNP reports whether the NP head np's chunk ends directly before
// chunk k (no verb in between).
func (p *depParser) adjacentNP(k int, np int) bool {
	// find the chunk containing np
	for j := k - 1; j >= 0; j-- {
		c := p.chunks[j]
		if c.kind == ckPunct || c.kind == "" {
			continue
		}
		return (c.kind == ckNP || c.kind == ckADJP) && c.head == np
	}
	return false
}

// handleTo parses "to": infinitival ("places to visit", "want to buy") or
// prepositional ("to the park").
func (p *depParser) handleTo(k int, st *clauseState) int {
	to := p.chunks[k].head
	j := p.nextNonPunct(k)
	if j >= 0 && p.chunks[j].kind == ckV {
		v := p.chunks[j].head
		p.consume(j)
		p.attach(to, v, RelAux)
		if st.lastVerb >= 0 {
			// "want to buy": open clausal complement
			p.attach(v, st.lastVerb, RelXComp)
		} else if st.lastNP >= 0 {
			// "places to visit": infinitival modifier with object gap
			p.attach(v, st.lastNP, RelInfMod)
			if !p.objectAhead(j) {
				p.g.Extra = append(p.g.Extra, Edge{Head: v, Dep: st.lastNP, Rel: RelDObj})
			}
		} else if st.root >= 0 {
			p.attach(v, st.root, RelXComp)
		} else {
			// sentence-initial infinitive; make it the root
			st.root = v
			p.setRoot(v)
		}
		st.lastVerb = v
		st.lastNP = -1
		return k
	}
	// prepositional "to"
	return p.handlePrep(k, st)
}

// handleCC links a conjunct NP/verb to the preceding one.
func (p *depParser) handleCC(k int, st *clauseState) {
	cc := p.chunks[k].head
	j := p.nextNonPunct(k)
	if j < 0 {
		p.attachLater(cc, st)
		return
	}
	c := p.chunks[j]
	switch c.kind {
	case ckNP, ckADJP:
		if st.lastNP >= 0 {
			p.attach(cc, st.lastNP, RelCC)
			p.attach(c.head, st.lastNP, RelConj)
			p.consume(j)
			return
		}
	case ckV:
		if st.lastVerb >= 0 {
			p.attach(cc, st.lastVerb, RelCC)
			p.attach(c.head, st.lastVerb, RelConj)
			p.consume(j)
			return
		}
	}
	p.attachLater(cc, st)
}

// resolveRoot guarantees a root and attaches stragglers.
func (p *depParser) resolveRoot(st *clauseState) {
	root := st.root
	if root == -1 {
		// No verb: a fragment like "Best pizza in town?". Root = first
		// NP head, else first token.
		switch {
		case st.whFront >= 0:
			root = st.whFront
		case st.subj >= 0:
			root = st.subj
		case st.lastNP >= 0:
			root = st.lastNP
		default:
			root = 0
		}
		p.setRoot(root)
		// If the root got attached already, find the top of its chain.
		for p.tok(root).Head >= 0 {
			root = p.tok(root).Head
		}
		p.tok(root).Head = -1
		p.tok(root).Rel = RelRoot
		st.root = root
	}
	if st.subj >= 0 {
		p.attach(st.subj, root, RelNSubj)
	}
	if st.whFront >= 0 && st.whFront != root {
		p.attach(st.whFront, root, RelAttr)
	}
	p.flushPendingTo(root, st)
}

// finish attaches any remaining unattached tokens (punctuation and
// stragglers) to the root.
func (p *depParser) finish() {
	root := p.g.Root()
	if root == -1 {
		// ensure a root exists even for degenerate input
		p.g.Nodes[0].Head = -1
		p.g.Nodes[0].Rel = RelRoot
		root = 0
	}
	for i := range p.g.Nodes {
		n := &p.g.Nodes[i]
		if n.Head != -2 {
			continue
		}
		if n.IsPunct() {
			n.Head = root
			n.Rel = RelPunct
		} else {
			n.Head = root
			n.Rel = RelDep
		}
		if i == root {
			n.Head = -1
			n.Rel = RelRoot
		}
	}
	// Guard against accidental cycles from reattachment: walk each node
	// up; on a cycle, cut by re-rooting the offender to root.
	for i := range p.g.Nodes {
		seen := map[int]bool{}
		j := i
		for j >= 0 {
			if seen[j] {
				p.g.Nodes[j].Head = root
				p.g.Nodes[j].Rel = RelDep
				if j == root {
					p.g.Nodes[j].Head = -1
					p.g.Nodes[j].Rel = RelRoot
				}
				break
			}
			seen[j] = true
			j = p.g.Nodes[j].Head
		}
	}
}
