// Package qgen is NL2CM's General Query Generator: the module that
// translates the general (non-individual) parts of a parsed NL request
// into SPARQL triples aligned with the ontology. The paper plugs in FREyA
// as a black box for this role; this package implements the same three
// observable behaviours: (a) it maps NL phrases to ontology entities,
// classes and relations, emitting WHERE-clause triples; (b) it engages
// the user in clarification dialogues for ambiguous terms ("Buffalo, NY
// vs Buffalo, IL", Figure 4 of FREyA / §4.1 here); and (c) it learns from
// the user's answers, improving candidate ranking in later translations.
//
// Like FREyA in NL2CM, the generator receives the *full* request —
// including the detected IXs — and may wrongly translate individual
// parts into general triples; the Query Composition module later deletes
// triples that overlap detected IXs, which is why every emitted triple
// carries its origin token indices.
package qgen

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"nl2cm/internal/interact"
	"nl2cm/internal/nlp"
	"nl2cm/internal/ontology"
	"nl2cm/internal/prov"
	"nl2cm/internal/rdf"
)

// Triple is a generated SPARQL triple together with the token indices
// that produced it, enabling IX-overlap deletion during composition.
type Triple struct {
	rdf.Triple
	// Origin lists the dependency-graph node indices this triple was
	// derived from.
	Origin []int
}

// TokenSet returns the triple's origin as a provenance token set
// (deduplicated, sorted, negatives dropped).
func (t Triple) TokenSet() prov.TokenSet {
	return prov.NewTokenSet(t.Origin...)
}

// Result is the generator's output.
type Result struct {
	// Triples are the WHERE-clause candidates.
	Triples []Triple
	// NodeTerms resolves noun nodes to their query terms: a variable for
	// class/unknown nouns, an ontology entity for recognized names.
	NodeTerms map[int]rdf.Term
	// TargetVar is the variable standing for the question's focus
	// ("places" in the running example); empty if none was identified.
	TargetVar string
	// Phrases records the surface phrase each resolved node stood for
	// (used by projection dialogues and admin traces).
	Phrases map[int]string
	// Unmatched lists phrases the generator could not align with the
	// ontology (FREyA would open a mapping dialogue; we record them).
	Unmatched []string
	// Delegations maps transparent nouns ("type", "kind") to the "of"
	// complement whose term they share.
	Delegations map[int]int
	// Aggregate is the detected counting reading of the request, if any
	// ("how many ...", "the most/fewest <noun>"); nil otherwise.
	Aggregate *Aggregate
	// Reads logs every ontology read of the run, in order. The
	// generator reads the ontology only through them, so the result is
	// what a run on another view would produce whenever Replay holds
	// there.
	Reads []Read
	// usedVars tracks allocated variable names so later modules
	// (individual triple creation) can allocate fresh ones.
	usedVars map[string]bool
}

// Read is one logged ontology read: a phrase lookup, ranked
// (Generator.RankCandidates) or not (ontology.View.Lookup), and the
// candidates it returned; or, when Relation is set, a relation lemma
// lookup (ontology.View.LookupRelation) and the predicate it returned,
// the zero Term when the view models no relation of that lemma.
type Read struct {
	Phrase   string
	Ranked   bool
	Relation bool
	Cands    []ontology.Candidate
	Pred     rdf.Term
}

// readLogCap pre-sizes a run's read log: no supported corpus question
// makes more reads (up to eight lookups and two relation lookups), so
// the log costs one allocation.
const readLogCap = 10

// FreshVar allocates a new variable name not used elsewhere in the
// query. The individual triple creator uses it for answer variables
// ("Where do you visit?" needs a variable for the asked-about place).
func (r *Result) FreshVar() string {
	if r.usedVars == nil {
		r.usedVars = map[string]bool{}
	}
	for _, v := range varNames {
		if !r.usedVars[v] {
			r.usedVars[v] = true
			return v
		}
	}
	for i := 1; ; i++ {
		v := fmt.Sprintf("x%d", i)
		if !r.usedVars[v] {
			r.usedVars[v] = true
			return v
		}
	}
}

// VarTerm returns the rdf variable term for a node, and whether the node
// resolved to a variable.
func (r *Result) VarTerm(node int) (rdf.Term, bool) {
	t, ok := r.NodeTerms[node]
	if !ok || !t.IsVar() {
		return rdf.Term{}, false
	}
	return t, true
}

// Feedback is the learned ranking store: it counts, per surface phrase,
// how often the user selected each entity, and boosts those candidates in
// later lookups ("The response of the user is recorded and serves to
// improve the ranking of optional entities in subsequent user
// interactions", paper §4.1).
//
// Feedback is the only mutable state shared between translations, so it
// guards its counts with an RWMutex: concurrent Record and Boost calls
// from parallel translations are safe.
type Feedback struct {
	mu     sync.RWMutex
	counts map[string]map[string]int
	// version counts mutations. The plan cache stamps each entry with
	// the version its reads were confirmed at, and replays them when a
	// recorded answer (which can re-rank candidates in later lookups)
	// has moved it.
	version uint64
}

// NewFeedback returns an empty store.
func NewFeedback() *Feedback {
	return &Feedback{counts: map[string]map[string]int{}}
}

// Record notes that the user chose the entity for the phrase.
func (f *Feedback) Record(phrase string, entity rdf.Term) {
	key := strings.ToLower(strings.TrimSpace(phrase))
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.counts[key]
	if !ok {
		m = map[string]int{}
		f.counts[key] = m
	}
	m[entity.Value()]++
	f.version++
}

// Version returns the mutation count: it changes whenever recorded
// feedback could change a translation. A cached translation confirmed
// at another version is replayed (Generator.Replay) before it is served.
func (f *Feedback) Version() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.version
}

// MarshalJSON serializes the learned counts so feedback can persist
// across sessions ("subsequent user interactions with the system").
func (f *Feedback) MarshalJSON() ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return json.Marshal(f.counts)
}

// UnmarshalJSON restores persisted feedback.
func (f *Feedback) UnmarshalJSON(data []byte) error {
	counts := map[string]map[string]int{}
	if err := json.Unmarshal(data, &counts); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts = counts
	f.version++
	return nil
}

// Save writes the feedback store to a JSON file. The write is atomic
// (temp file + rename in the destination directory), so a crash or a
// concurrent reader never observes a truncated store — the daemon flushes
// periodically while continuing to serve.
func (f *Feedback) Save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("qgen: encoding feedback: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".feedback-*.json")
	if err != nil {
		return fmt.Errorf("qgen: writing feedback: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("qgen: writing feedback: %w", werr)
	}
	return nil
}

// LoadFeedback reads a persisted feedback store; a missing file yields an
// empty store, so first runs need no setup.
func LoadFeedback(path string) (*Feedback, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewFeedback(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("qgen: reading feedback: %w", err)
	}
	f := NewFeedback()
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("qgen: decoding feedback: %w", err)
	}
	return f, nil
}

// Boost returns the ranking bonus for a candidate entity of the phrase.
func (f *Feedback) Boost(phrase string, entity rdf.Term) float64 {
	key := strings.ToLower(strings.TrimSpace(phrase))
	f.mu.RLock()
	n := f.counts[key][entity.Value()]
	f.mu.RUnlock()
	if n > 10 {
		n = 10
	}
	return 0.02 * float64(n)
}

// Generator holds the learned state; it is reused across translations
// so that feedback accumulates. It holds no ontology: each run reads the
// one ontology view its caller pinned. Generate is safe for concurrent
// use: views are immutable, AmbiguityGap is read-only after
// construction, and Feedback locks internally. Replacing the Feedback
// pointer (administrator reload) must not race with in-flight runs.
type Generator struct {
	Feedback *Feedback
	// AmbiguityGap is the score distance under which two candidates are
	// considered ambiguous and the user is consulted.
	AmbiguityGap float64
}

// New returns a generator with fresh feedback state.
func New() *Generator {
	return &Generator{Feedback: NewFeedback(), AmbiguityGap: 0.25}
}

// Options configure one generation run.
type Options struct {
	// Interactor answers disambiguation questions; nil means automatic.
	Interactor interact.Interactor
	// Policy gates the disambiguation dialogue.
	Policy interact.Policy
}

// transparentNouns delegate their denotation to their "of" complement:
// "what type of camera" denotes a camera.
var transparentNouns = map[string]bool{
	"type": true, "kind": true, "sort": true, "variety": true,
	"brand": false, // a brand is itself an entity class
}

// Generate translates the general parts of the dependency graph into
// SPARQL triples, honoring cancellation between noun resolutions (each
// of which may open a disambiguation dialogue). Every entity lookup,
// degree count and relation lookup reads the view v the caller pinned,
// and is logged in Result.Reads.
func (g *Generator) Generate(ctx context.Context, v *ontology.View, dg *nlp.DepGraph, opt Options) (*Result, error) {
	res := &Result{
		NodeTerms: map[int]rdf.Term{},
		Phrases:   map[int]string{},
		Reads:     make([]Read, 0, readLogCap),
	}
	res.usedVars = map[string]bool{}
	res.Delegations = map[int]int{}
	gen := &run{ctx: ctx, g: g, view: v, dg: dg, opt: opt, res: res}
	if err := gen.run(); err != nil {
		return nil, err
	}
	return res, nil
}

// run carries one generation pass.
type run struct {
	ctx         context.Context
	g           *Generator
	view        *ontology.View
	dg          *nlp.DepGraph
	opt         Options
	res         *Result
	consumed    map[int]bool // nodes absorbed into an entity phrase
	delegations map[int]int  // transparent noun -> its "of" complement
}

func (r *run) run() error {
	r.consumed = map[int]bool{}
	r.delegations = map[int]int{}
	heads := r.nounHeads()
	// The question's focus gets the first variable name.
	target := r.focusNode(heads)
	if target >= 0 {
		if err := r.resolveNoun(target, true); err != nil {
			return err
		}
	}
	for _, n := range heads {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if n == target || r.consumed[n] {
			continue
		}
		if err := r.resolveNoun(n, false); err != nil {
			return err
		}
	}
	// Transparent nouns share their complement's term ("what type of
	// camera should I buy" — buying the type means buying the camera).
	for n, d := range r.delegations {
		if t, ok := r.res.NodeTerms[d]; ok {
			r.res.NodeTerms[n] = t
		}
	}
	r.relationTriples()
	r.detectAggregate()
	return nil
}

// nounHeads returns the noun nodes that head phrases: nouns that are not
// nn-compound parts, appositions or possessive modifiers of other nouns.
func (r *run) nounHeads() []int {
	var out []int
	for i := range r.dg.Nodes {
		n := &r.dg.Nodes[i]
		if !strings.HasPrefix(n.POS, "NN") {
			continue
		}
		switch n.Rel {
		case nlp.RelNN, nlp.RelAppos, nlp.RelPoss:
			continue
		}
		out = append(out, i)
	}
	return out
}

// focusNode finds the question focus: the root if nominal, else the
// wh-phrase target, else the subject of the root verb, else the fronted
// object.
func (r *run) focusNode(heads []int) int {
	root := r.dg.Root()
	if root < 0 {
		return -1
	}
	isHead := func(i int) bool {
		for _, h := range heads {
			if h == i {
				return true
			}
		}
		return false
	}
	if isHead(root) {
		return root
	}
	// A wh-determined noun ("which hotel", "what type of camera").
	for _, i := range heads {
		for _, d := range r.dg.Dependents(i, nlp.RelDet) {
			if strings.HasPrefix(r.dg.Nodes[d].POS, "W") {
				return r.delegate(i)
			}
		}
	}
	// Subject of the root.
	if s := r.dg.FirstDependent(root, nlp.RelNSubj); s >= 0 && isHead(s) {
		return r.delegate(s)
	}
	// Fronted or regular object.
	if o := r.dg.FirstDependent(root, nlp.RelDObj); o >= 0 && isHead(o) {
		return r.delegate(o)
	}
	return -1
}

// delegate resolves transparent nouns ("type of X") to their complement.
func (r *run) delegate(n int) int {
	if !transparentNouns[r.dg.Nodes[n].Lemma] {
		return n
	}
	for _, prep := range r.dg.Dependents(n, nlp.RelPrep) {
		if r.dg.Nodes[prep].Lemma != "of" {
			continue
		}
		if pobj := r.dg.FirstDependent(prep, nlp.RelPObj); pobj >= 0 {
			// The transparent noun and its "of" are consumed; the noun
			// will share the complement's term.
			r.consumed[n] = true
			r.consumed[prep] = true
			r.delegations[n] = pobj
			r.res.Delegations[n] = pobj
			return pobj
		}
	}
	return n
}

// entityPhrase assembles the surface phrase of a (possibly multiword,
// possibly apposed) name: nn-compound parts + the node + apposition
// chain.
func (r *run) entityPhrase(n int) (string, []int) {
	nodes := []int{n}
	for _, c := range r.dg.Dependents(n, nlp.RelNN) {
		nodes = append(nodes, c)
	}
	// Follow apposition chains ("Forest Hotel, Buffalo, NY").
	cur := n
	for {
		next := -1
		for _, a := range r.dg.Dependents(cur, nlp.RelAppos) {
			next = a
		}
		if next < 0 {
			break
		}
		nodes = append(nodes, next)
		for _, c := range r.dg.Dependents(next, nlp.RelNN) {
			nodes = append(nodes, c)
		}
		cur = next
	}
	sort.Ints(nodes)
	parts := make([]string, 0, len(nodes))
	for _, i := range nodes {
		parts = append(parts, r.dg.Nodes[i].Text)
	}
	return strings.Join(parts, " "), nodes
}

// resolveNoun maps one noun head to a term and emits its instanceOf
// triple when it denotes a class.
func (r *run) resolveNoun(n int, isTarget bool) error {
	node := &r.dg.Nodes[n]
	if node.POS == "NNP" || node.POS == "NNPS" {
		return r.resolveEntity(n)
	}
	// Common noun. Try the nn-compound phrase first ("chocolate milk",
	// "thrill ride"), then the bare lemma.
	compound, compoundNodes := r.compoundPhrase(n)
	r.res.Phrases[n] = compound
	cands := r.read(compound, true)
	usedCompound := len(compoundNodes) > 1 && len(cands) > 0 && cands[0].Score >= 0.9
	if !usedCompound {
		cands = r.lookup(node.Lemma, node.Lower)
		r.res.Phrases[n] = node.Text
	}
	// A high-confidence non-class match denotes the entity itself
	// ("fall" -> the Fall season, "chocolate milk" -> Chocolate_Milk)
	// unless the noun is the question focus, which stays a variable when
	// it denotes a class of answers.
	if len(cands) > 0 && !cands[0].IsClass && cands[0].Score >= 0.9 {
		r.res.NodeTerms[n] = cands[0].Term
		if usedCompound {
			for _, i := range compoundNodes {
				if i != n {
					r.consumed[i] = true
				}
			}
		}
		return nil
	}
	v := r.freshVar(isTarget)
	vt := rdf.NewVar(v)
	r.res.NodeTerms[n] = vt
	if isTarget {
		r.res.TargetVar = v
	}
	if len(cands) > 0 && cands[0].IsClass && cands[0].Score >= 0.9 {
		r.emit(rdf.T(vt, ontology.PredInstanceOf, cands[0].Term), n)
	} else if len(cands) == 0 {
		r.res.Unmatched = append(r.res.Unmatched, node.Text)
	}
	return nil
}

// compoundPhrase renders the nn-compound phrase of a noun head.
func (r *run) compoundPhrase(n int) (string, []int) {
	nodes := []int{n}
	for _, c := range r.dg.Dependents(n, nlp.RelNN) {
		nodes = append(nodes, c)
	}
	sort.Ints(nodes)
	parts := make([]string, 0, len(nodes))
	for _, i := range nodes {
		parts = append(parts, r.dg.Nodes[i].Text)
	}
	return strings.Join(parts, " "), nodes
}

// resolveEntity maps a proper-noun phrase to an ontology entity, engaging
// the disambiguation dialogue when several candidates tie.
func (r *run) resolveEntity(n int) error {
	phrase, nodes := r.entityPhrase(n)
	for _, i := range nodes {
		if i != n {
			r.consumed[i] = true
		}
	}
	r.res.Phrases[n] = phrase
	cands := r.read(phrase, true)
	if len(cands) == 0 {
		// Unknown name: keep it as a literal-valued variable so the
		// query remains executable; record for the mapping dialogue.
		r.res.Unmatched = append(r.res.Unmatched, phrase)
		v := rdf.NewVar(r.freshVar(false))
		r.res.NodeTerms[n] = v
		r.emit(rdf.T(v, ontology.PredLabel, rdf.NewLiteral(phrase)), n)
		return nil
	}
	choice := 0
	ambiguous := len(cands) > 1 && cands[0].Score-cands[1].Score < r.g.AmbiguityGap
	if ambiguous && r.opt.Policy.Asks(interact.PointDisambiguation) {
		options := make([]interact.Choice, len(cands))
		for i, c := range cands {
			options[i] = interact.Choice{Label: c.Label, Description: c.Description}
		}
		var err error
		choice, err = interact.Disambiguate(r.ctx, r.opt.Interactor, phrase, options)
		if err != nil {
			return fmt.Errorf("qgen: disambiguating %q: %w", phrase, err)
		}
		r.g.Feedback.Record(phrase, cands[choice].Term)
	}
	r.res.NodeTerms[n] = cands[choice].Term
	return nil
}

// lookup returns candidates for a common-noun phrase, trying the lemma
// then the surface form.
func (r *run) lookup(lemma, lower string) []ontology.Candidate {
	cands := r.read(lemma, false)
	if len(cands) == 0 && lower != lemma {
		cands = r.read(lower, false)
	}
	return cands
}

// read makes and logs one ontology read on the run's view.
func (r *run) read(phrase string, ranked bool) []ontology.Candidate {
	cands := r.g.candidates(r.view, phrase, ranked)
	r.res.Reads = append(r.res.Reads, Read{Phrase: phrase, Ranked: ranked, Cands: cands})
	return cands
}

// relation makes and logs one relation lemma lookup on the run's view,
// whether or not it finds a predicate.
func (r *run) relation(lemma string) (rdf.Term, bool) {
	pred, ok := r.view.LookupRelation(lemma)
	r.res.Reads = append(r.res.Reads, Read{Phrase: lemma, Relation: true, Pred: pred})
	return pred, ok
}

func (g *Generator) candidates(v *ontology.View, phrase string, ranked bool) []ontology.Candidate {
	if ranked {
		return g.RankCandidates(v, phrase)
	}
	return v.Lookup(phrase)
}

// Replay reports whether every read returns on the view v, under the
// feedback as it is now, what it returned when it was logged: the same
// candidates, scores and so feedback boosts included, or the same
// predicate. When it does, a run on v would take the logged run's every
// decision, so its result equals the logged one. Feedback is read only
// by ranked lookups, so a recorded choice that changes any boost a
// logged read saw fails the replay.
func (g *Generator) Replay(v *ontology.View, reads []Read) bool {
	for _, rd := range reads {
		if rd.Relation {
			if pred, _ := v.LookupRelation(rd.Phrase); pred != rd.Pred {
				return false
			}
		} else if !slices.Equal(g.candidates(v, rd.Phrase, rd.Ranked), rd.Cands) {
			return false
		}
	}
	return true
}

// RankCandidates returns feedback-boosted, re-ranked candidates for a
// phrase. Score ties break on entity degree (how richly connected the
// entity is in the ontology), standing in for FREyA's popularity
// ranking: the default reading of "Buffalo" is the well-known city.
// Degrees are counted once per candidate on the view's snapshot, so
// they and the lookup see one epoch, and facts inserted a batch ago
// already count toward popularity.
func (g *Generator) RankCandidates(v *ontology.View, phrase string) []ontology.Candidate {
	cands := v.Lookup(phrase)
	snap := v.Snapshot()
	type ranked struct {
		c      ontology.Candidate
		degree int
	}
	rs := make([]ranked, len(cands))
	for i, c := range cands {
		c.Score += g.Feedback.Boost(phrase, c.Term)
		rs[i] = ranked{c, snap.CountMatch(rdf.T(c.Term, rdf.NewVar("p"), rdf.NewVar("o"))) +
			snap.CountMatch(rdf.T(rdf.NewVar("s"), rdf.NewVar("p"), c.Term))}
	}
	slices.SortStableFunc(rs, func(a, b ranked) int {
		if a.c.Score != b.c.Score {
			return cmp.Compare(b.c.Score, a.c.Score)
		}
		return cmp.Compare(b.degree, a.degree)
	})
	for i := range rs {
		cands[i] = rs[i].c
	}
	return cands
}

// varNames is the allocation order; the focus gets "x" as in Figure 1.
var varNames = []string{"x", "y", "z", "w", "u", "v", "s", "t"}

func (r *run) freshVar(isTarget bool) string {
	if isTarget && !r.res.usedVars["x"] {
		r.res.usedVars["x"] = true
		return "x"
	}
	return r.res.FreshVar()
}

func (r *run) emit(t rdf.Triple, origin ...int) {
	r.res.Triples = append(r.res.Triples, Triple{Triple: t, Origin: origin})
}

// term returns the resolved term for a noun node, following consumed
// transparent nouns to their delegate.
func (r *run) term(n int) (rdf.Term, bool) {
	t, ok := r.res.NodeTerms[n]
	if !ok || t == (rdf.Term{}) {
		return rdf.Term{}, false
	}
	return t, true
}

// relationTriples emits triples for prepositional and verbal relations
// between resolved nodes.
func (r *run) relationTriples() {
	dg := r.dg
	for i := range dg.Nodes {
		n := &dg.Nodes[i]
		switch {
		case n.POS == "IN" || n.POS == "TO":
			// attachment --prep--> i --pobj--> obj
			if n.Rel != nlp.RelPrep || n.Head < 0 {
				continue
			}
			obj := dg.FirstDependent(i, nlp.RelPObj)
			if obj < 0 {
				continue
			}
			objTerm, ok := r.term(obj)
			if !ok {
				continue
			}
			headTerm, ok := r.attachmentTerm(n.Head)
			if !ok {
				continue
			}
			pred, ok := r.relation(n.Lemma)
			if !ok {
				continue
			}
			r.emit(rdf.T(headTerm, pred, objTerm), n.Head, i, obj)
		case strings.HasPrefix(n.POS, "VB"):
			// subject --verb--> object relations that the ontology
			// models ("has", "serves", "contains").
			subj := dg.FirstDependent(i, nlp.RelNSubj)
			obj := dg.FirstDependent(i, nlp.RelDObj)
			if subj < 0 || obj < 0 {
				continue
			}
			sTerm, ok1 := r.term(subj)
			oTerm, ok2 := r.term(obj)
			if !ok1 || !ok2 {
				continue
			}
			pred, ok := r.relation(n.Lemma)
			if !ok {
				continue
			}
			r.emit(rdf.T(sTerm, pred, oTerm), subj, i, obj)
		case strings.HasPrefix(n.POS, "JJ"):
			// adjective-carried relations: "rich in fiber", "good for
			// kids". The relation key is "<adjective> <prep>".
			for _, prep := range dg.Dependents(i, nlp.RelPrep) {
				obj := dg.FirstDependent(prep, nlp.RelPObj)
				if obj < 0 {
					continue
				}
				objTerm, ok := r.term(obj)
				if !ok {
					continue
				}
				key := n.Lemma + " " + dg.Nodes[prep].Lemma
				pred, ok := r.relation(key)
				if !ok {
					continue
				}
				// The adjective attaches to a noun (amod), has a subject
				// or attributive wh-phrase (copular predicate), or
				// post-modifies the noun directly before it ("dishes
				// rich in fiber").
				var headTerm rdf.Term
				var headNode int
				resolveHead := func(idx int) {
					if idx >= 0 && headTerm == (rdf.Term{}) {
						if t, ok := r.term(idx); ok {
							headTerm, headNode = t, idx
						}
					}
				}
				if n.Rel == nlp.RelAMod && n.Head >= 0 {
					resolveHead(n.Head)
				}
				resolveHead(dg.FirstDependent(i, nlp.RelNSubj))
				resolveHead(dg.FirstDependent(i, nlp.RelAttr))
				if i > 0 && strings.HasPrefix(dg.Nodes[i-1].POS, "NN") {
					resolveHead(i - 1)
				}
				if headTerm == (rdf.Term{}) {
					continue
				}
				r.emit(rdf.T(headTerm, pred, objTerm), headNode, i, prep, obj)
			}
		}
	}
}

// attachmentTerm resolves the attachment point of a PP: a noun's term, or
// for verb/adjective attachments the term of the verb's object or
// subject noun when the verb itself is general ("places located in
// Buffalo"); individual verbs' PPs are handled by the individual triple
// creator instead, so unresolvable attachments are skipped.
func (r *run) attachmentTerm(head int) (rdf.Term, bool) {
	n := &r.dg.Nodes[head]
	if strings.HasPrefix(n.POS, "NN") {
		return r.term(head)
	}
	if n.Lemma == "be" {
		// Copular clause: "Which parks are in Buffalo?" — the PP
		// restricts the subject (or the attributive wh-phrase).
		for _, rel := range []string{nlp.RelNSubj, nlp.RelAttr} {
			if s := r.dg.FirstDependent(head, rel); s >= 0 {
				if t, ok := r.term(s); ok {
					return t, true
				}
			}
		}
		return rdf.Term{}, false
	}
	if strings.HasPrefix(n.POS, "JJ") {
		// copular predicate adjective: attach to its subject
		if s := r.dg.FirstDependent(head, nlp.RelNSubj); s >= 0 {
			return r.term(s)
		}
		if n.Rel == nlp.RelAMod && n.Head >= 0 {
			return r.term(n.Head)
		}
	}
	return rdf.Term{}, false
}
