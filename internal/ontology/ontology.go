// Package ontology provides the general-knowledge substrate of NL2CM. The
// paper evaluates against the public LinkedGeoData and DBPedia ontologies;
// this package substitutes embedded synthetic ontologies with the same
// interface obligations: RDF triples over named entities and classes, a
// label index for aligning natural-language phrases with entities and
// relations, and deliberately ambiguous entries (several places named
// "Buffalo") that exercise the system's disambiguation dialogues.
package ontology

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"nl2cm/internal/rdf"
)

// NS is the namespace of all ontology IRIs.
const NS = "http://nl2cm.org/onto/"

// Well-known predicates.
var (
	PredInstanceOf = rdf.NewIRI(NS + "instanceOf")
	PredSubClassOf = rdf.NewIRI(NS + "subClassOf")
	PredLabel      = rdf.NewIRI(NS + "label")
	PredNear       = rdf.NewIRI(NS + "near")
	PredLocatedIn  = rdf.NewIRI(NS + "locatedIn")
	PredContains   = rdf.NewIRI(NS + "contains")
	PredRichIn     = rdf.NewIRI(NS + "richIn")
	PredHasFeature = rdf.NewIRI(NS + "hasFeature")
	PredMadeBy     = rdf.NewIRI(NS + "madeBy")
	PredPriceRange = rdf.NewIRI(NS + "priceRange")
	PredServes     = rdf.NewIRI(NS + "serves")
	PredGoodFor    = rdf.NewIRI(NS + "goodFor")
)

// E builds an entity IRI in the ontology namespace.
func E(local string) rdf.Term { return rdf.NewIRI(NS + local) }

// Candidate is one possible alignment of an NL phrase with an ontology
// entity or relation.
type Candidate struct {
	Term rdf.Term
	// Label is the entity's primary label.
	Label string
	// Description disambiguates homonyms for the user ("city in New
	// York, USA").
	Description string
	// Score ranks candidates; higher is better. Scores combine match
	// quality with learned user feedback (see qgen).
	Score float64
	// IsClass reports whether the candidate is a class rather than an
	// individual.
	IsClass bool
}

// Ontology is a mutable labeled triple store (epoch-snapshot sharded,
// see rdf.ShardedStore) plus a registry of what plain triples cannot
// carry: entity descriptions, relation lemmas, registered classes and
// aliases. Every read goes through a View, the lookup index derived from
// one store snapshot and one registry, so a batch or a registration
// reaches the next View and no View pinned before it.
type Ontology struct {
	// Name identifies the ontology in admin-mode traces ("GeoOntology").
	Name  string
	Store *rdf.ShardedStore

	// mu serializes registrations and view rebuilds; readers of a built
	// view never take it.
	mu sync.Mutex
	// reg is the current registry. A registration changes it in place
	// while no view holds it, as during construction, and otherwise
	// changes a copy that replaces it, so a view never changes.
	reg atomic.Pointer[registry]
	// view is the latest view built. It is current while its snapshot
	// epoch is the store's and its registry is reg.
	view atomic.Pointer[View]
}

// registry is the registration state of an ontology.
type registry struct {
	// descriptions holds per-entity disambiguation strings.
	descriptions map[rdf.Term]string
	// relations maps lower-cased relation lemmas ("near", "located in")
	// to predicates.
	relations map[string]rdf.Term
	// classes records classes registered via AddClass, which need no
	// subClassOf/instanceOf participation to count as classes.
	classes map[rdf.Term]bool
	// aliases are extra lookup labels (Alias) with no store triple.
	aliases []aliasEntry
}

type aliasEntry struct {
	label string
	term  rdf.Term
}

func (r *registry) clone() *registry {
	return &registry{
		descriptions: maps.Clone(r.descriptions),
		relations:    maps.Clone(r.relations),
		classes:      maps.Clone(r.classes),
		aliases:      slices.Clone(r.aliases),
	}
}

// registering returns the registry a registration may change, with o.mu
// held: the current one unless the latest view, the only one that can,
// holds it; then a copy that replaces it.
func (o *Ontology) registering() *registry {
	r := o.reg.Load()
	if v := o.view.Load(); v != nil && v.reg == r {
		r = r.clone()
		o.reg.Store(r)
	}
	return r
}

// View is one pinned read of the ontology: the lookup index derived
// from one store snapshot and one registry, together with both. A
// translation reads through one View, so neither a batch nor a
// registration that lands mid-translation can mix into it. A View is
// immutable and safe for concurrent use.
type View struct {
	snap *rdf.Snapshot
	// reg is the registry the view was built from; no registration
	// changes it afterwards.
	reg *registry
	// version numbers the views of one ontology in build order: it
	// moves with every store epoch and every registration, so two views
	// with one version answer every read identically.
	version uint64
	// labels maps normalized full labels to entities (exact matches).
	labels map[string][]rdf.Term
	// maxKey is the byte length of the longest labels key: a phrase whose
	// key is longer cannot match, so key building stops past it.
	maxKey int
	// words maps individual label words to entities (partial matches).
	words map[string][]rdf.Term
	// primary caches each labeled term's primary label (the
	// lexicographically smallest), so candidate construction during
	// Lookup does not scan the store per term.
	primary map[rdf.Term]string
	// classes records which terms are classes: registered ones plus any
	// term participating in subClassOf or appearing as an instanceOf
	// object.
	classes map[rdf.Term]bool
}

// New returns an empty ontology with the given name.
func New(name string) *Ontology {
	o := &Ontology{Name: name, Store: rdf.NewShardedStore(0)}
	o.reg.Store(&registry{
		descriptions: map[rdf.Term]string{},
		relations:    map[string]rdf.Term{},
		classes:      map[rdf.Term]bool{},
	})
	return o
}

// Snapshot pins the current store epoch. A reader of the lookup indexes
// pins a View instead, which carries the snapshot it was built from.
func (o *Ontology) Snapshot() *rdf.Snapshot { return o.Store.Snapshot() }

// Epoch returns the store's current published epoch.
func (o *Ontology) Epoch() uint64 { return o.Store.Epoch() }

// View returns the view of the current store epoch and registry,
// rebuilding the derived index if either moved since the last rebuild.
func (o *Ontology) View() *View {
	if v := o.view.Load(); v != nil && v.snap.Epoch() == o.Store.Snapshot().Epoch() && v.reg == o.reg.Load() {
		return v
	}
	return o.rebuild()
}

// rebuild derives a view from the latest snapshot and registry.
// Concurrent callers rebuild once; readers keep using the previous view
// until the new one is published.
func (o *Ontology) rebuild() *View {
	o.mu.Lock()
	defer o.mu.Unlock()
	// Re-fetch inside the lock: another goroutine may have rebuilt, and
	// the snapshot may have advanced while we waited.
	snap, reg := o.Store.Snapshot(), o.reg.Load()
	prev := o.view.Load()
	if prev != nil && prev.snap.Epoch() == snap.Epoch() && prev.reg == reg {
		return prev
	}
	d := &View{
		snap:    snap,
		reg:     reg,
		version: 1,
		labels:  map[string][]rdf.Term{},
		words:   map[string][]rdf.Term{},
		primary: map[rdf.Term]string{},
		classes: maps.Clone(reg.classes),
	}
	if prev != nil {
		d.version = prev.version + 1
	}
	snap.MatchFunc(rdf.T(rdf.NewVar("s"), PredSubClassOf, rdf.NewVar("c")), func(t rdf.Triple) bool {
		d.classes[t.S] = true
		d.classes[t.O] = true
		return true
	})
	snap.MatchFunc(rdf.T(rdf.NewVar("s"), PredInstanceOf, rdf.NewVar("c")), func(t rdf.Triple) bool {
		d.classes[t.O] = true
		return true
	})
	// Label triples feed the exact, word and primary indexes. Sort for
	// a deterministic index regardless of shard iteration order.
	type lbl struct {
		term  rdf.Term
		label string
	}
	var lbls []lbl
	snap.MatchFunc(rdf.T(rdf.NewVar("s"), PredLabel, rdf.NewVar("l")), func(t rdf.Triple) bool {
		if t.O.IsLiteral() {
			lbls = append(lbls, lbl{t.S, t.O.Value()})
		}
		return true
	})
	sort.Slice(lbls, func(i, j int) bool {
		if lbls[i].label != lbls[j].label {
			return lbls[i].label < lbls[j].label
		}
		return lbls[i].term.Compare(lbls[j].term) < 0
	})
	b := indexBuilder{d: d, labels: postings{lists: d.labels}, words: postings{lists: d.words}}
	for _, l := range lbls {
		b.index(l.label, l.term)
		if prev, ok := d.primary[l.term]; !ok || l.label < prev {
			d.primary[l.term] = l.label
		}
	}
	// Aliases are lookup-only: they never set a primary label.
	for _, a := range reg.aliases {
		b.index(a.label, a.term)
	}
	o.view.Store(d)
	return d
}

// Snapshot returns the store snapshot the view was derived from.
func (v *View) Snapshot() *rdf.Snapshot { return v.snap }

// Epoch returns the store epoch the view was derived from.
func (v *View) Epoch() uint64 { return v.snap.Epoch() }

// Version numbers the ontology's views in build order. It moves with
// every store epoch and with every registration, so two views of one
// ontology with equal versions answer every read identically.
func (v *View) Version() uint64 { return v.version }

// indexBuilder fills a view's label and word postings during one
// rebuild.
type indexBuilder struct {
	d             *View
	labels, words postings
}

func (b *indexBuilder) index(label string, term rdf.Term) {
	key := normalize(label)
	b.labels.add(key, term)
	b.d.maxKey = max(b.d.maxKey, len(key))
	// Index individual words separately (weaker matches), so "Buffalo"
	// finds "Buffalo, NY" without full-label matches being diluted.
	words := strings.Fields(key)
	if len(words) > 1 {
		for _, w := range words {
			if len(w) > 2 {
				b.words.add(w, term)
			}
		}
	}
}

// postings builds posting lists without duplicates, in first-occurrence
// order. A repeat need not be adjacent to the first occurrence: aliases
// are indexed after labels, and different raw labels normalize to one
// key. A short list is checked by a scan; a list that grows to scanMax
// terms gets a set, so a key that n labels share costs O(n), not O(n²).
type postings struct {
	lists map[string][]rdf.Term
	sets  map[string]map[rdf.Term]struct{}
}

const scanMax = 16

func (p *postings) add(key string, t rdf.Term) {
	ts := p.lists[key]
	if len(ts) < scanMax {
		if slices.Contains(ts, t) {
			return
		}
	} else {
		set := p.sets[key]
		if set == nil {
			set = make(map[rdf.Term]struct{}, 2*len(ts))
			for _, x := range ts {
				set[x] = struct{}{}
			}
			if p.sets == nil {
				p.sets = map[string]map[rdf.Term]struct{}{}
			}
			p.sets[key] = set
		}
		if _, ok := set[t]; ok {
			return
		}
		set[t] = struct{}{}
	}
	p.lists[key] = append(ts, t)
}

// AddEntity registers an entity with its label, description and class.
// The label lands in the store, so the lookup index derives it on the
// next epoch rebuild; the description is a registration.
func (o *Ontology) AddEntity(local, label, description string, class rdf.Term) rdf.Term {
	e := E(local)
	o.Store.AddTriple(e, PredLabel, rdf.NewLiteral(label))
	if class.Value() != "" {
		o.Store.AddTriple(e, PredInstanceOf, class)
	}
	o.mu.Lock()
	o.registering().descriptions[e] = description
	o.mu.Unlock()
	return e
}

// AddClass registers a class term with a label and optional superclass.
func (o *Ontology) AddClass(local, label string, super rdf.Term) rdf.Term {
	c := E(local)
	o.Store.AddTriple(c, PredLabel, rdf.NewLiteral(label))
	if super.Value() != "" {
		o.Store.AddTriple(c, PredSubClassOf, super)
	}
	o.mu.Lock()
	o.registering().classes[c] = true
	o.mu.Unlock()
	return c
}

// AddRelation registers NL surface lemmas for a predicate.
func (o *Ontology) AddRelation(pred rdf.Term, lemmas ...string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	r := o.registering()
	for _, l := range lemmas {
		r.relations[strings.ToLower(l)] = pred
	}
}

// Add registers an arbitrary fact triple.
func (o *Ontology) Add(s, p, oTerm rdf.Term) { o.Store.AddTriple(s, p, oTerm) }

// Alias adds an extra lookup label for an existing term.
func (o *Ontology) Alias(term rdf.Term, label string) {
	o.mu.Lock()
	r := o.registering()
	r.aliases = append(r.aliases, aliasEntry{label, term})
	o.mu.Unlock()
}

// normalize returns the lookup key of a label or phrase.
func normalize(s string) string {
	var buf [64]byte
	var b KeyBuilder
	key, _ := b.Append(buf[:0], s, math.MaxInt)
	return string(key)
}

// KeyBuilder grows the lookup key of a phrase from consecutive pieces
// of its text: appending a and then b builds the key of a+b, so a caller
// that extends a phrase token by token normalizes each byte once. A key
// is the text lower-cased and split into fields at white space and
// commas, the fields joined by single spaces. Pieces must split the
// text at rune boundaries. The zero value starts an empty key.
type KeyBuilder struct {
	sep bool // a field has ended and another may follow
}

// Append appends the key bytes of s to key, the key this builder has
// built so far, and returns the longer key. ASCII bytes are handled
// bytewise; other bytes are decoded rune by rune, and an invalid byte
// becomes U+FFFD, as strings.ToLower writes it. Once the key would
// exceed limit bytes it stops and reports false; the key is then
// unusable. A caller's stack buffer keeps short keys off the heap.
func (b *KeyBuilder) Append(key []byte, s string, limit int) ([]byte, bool) {
	sep := b.sep
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			if c == ' ' || c == ',' || '\t' <= c && c <= '\r' {
				sep = len(key) > 0
				continue
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if sep {
				key, sep = append(key, ' '), false
			}
			key = append(key, c)
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			r = unicode.ToLower(r)
			if unicode.IsSpace(r) {
				sep = len(key) > 0
				continue
			}
			if sep {
				key, sep = append(key, ' '), false
			}
			key = utf8.AppendRune(key, r)
		}
		if len(key) > limit {
			b.sep = sep
			return key, false
		}
	}
	b.sep = sep
	return key, true
}

// Label returns the primary label of a term in the current view.
func (o *Ontology) Label(t rdf.Term) string { return o.View().Label(t) }

// ResolveEntity resolves a phrase in the current view (see
// View.ResolveEntity).
func (o *Ontology) ResolveEntity(phrase string) (rdf.Term, bool) {
	return o.View().ResolveEntity(phrase)
}

// Label returns the primary label of a term, falling back to the IRI
// local name. Labels added by any means — registration or a store
// batch — answer from the view's derived index.
func (v *View) Label(t rdf.Term) string {
	if l, ok := v.primary[t]; ok {
		return l
	}
	return t.Local()
}

// IsClass reports whether the term is a class in the view.
func (v *View) IsClass(t rdf.Term) bool { return v.classes[t] }

// Lookup aligns an NL phrase with ontology terms, returning candidates
// ranked by match quality: exact normalized label match scores 1.0,
// full-phrase prefix matches 0.8, head-word matches 0.6. Deterministic
// order: score desc, then term order.
func (v *View) Lookup(phrase string) []Candidate {
	key := normalize(phrase)
	if key == "" {
		return nil
	}
	scored := map[rdf.Term]float64{}
	consider := func(ts []rdf.Term, score float64) {
		for _, t := range ts {
			if scored[t] < score {
				scored[t] = score
			}
		}
	}
	consider(v.labels[key], 1.0)
	// singular fallback: "places" -> "place"
	if strings.HasSuffix(key, "s") {
		consider(v.labels[strings.TrimSuffix(key, "s")], 0.9)
	}
	// word-index fallback: the phrase is one word of a longer label
	consider(v.words[key], 0.6)
	// word-by-word fallback: some word of the phrase is a known label
	for _, w := range strings.Fields(key) {
		if w == key {
			continue
		}
		consider(v.labels[w], 0.6)
		consider(v.words[w], 0.4)
	}
	out := make([]Candidate, 0, len(scored))
	for t, s := range scored {
		label := v.primary[t]
		if label == "" {
			label = t.Local()
		}
		out = append(out, Candidate{
			Term:        t,
			Label:       label,
			Description: v.reg.descriptions[t],
			Score:       s,
			IsClass:     v.classes[t],
		})
	}
	slices.SortFunc(out, func(a, b Candidate) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return a.Term.Compare(b.Term)
	})
	return out
}

// ResolveEntity resolves a phrase that exactly (after normalization)
// labels exactly one non-class term — the condition under which the
// phrase is an unambiguous, feedback-independent entity mention.
// Ambiguous labels like "Buffalo" and class words like "restaurant"
// return false. A freshly inserted entity resolves in the first view
// built after its batch.
//
// It allocates nothing: the key is built in a stack buffer, and a
// phrase whose key outgrows the longest label key is rejected before it
// is fully normalized.
func (v *View) ResolveEntity(phrase string) (rdf.Term, bool) {
	var buf [64]byte
	var b KeyBuilder
	key, ok := b.Append(buf[:0], phrase, v.maxKey)
	if !ok {
		return rdf.Term{}, false
	}
	return v.ResolveKey(key)
}

// MaxKey returns the byte length of the view's longest label key: a key
// that grows past it resolves nothing, and neither does any extension
// of its phrase.
func (v *View) MaxKey() int { return v.maxKey }

// ResolveKey is ResolveEntity for a phrase already normalized to its
// lookup key (KeyBuilder). It is the plan cache's per-n-gram probe
// (qcache), which grows one key per n-gram start instead of normalizing
// every n-gram from scratch; it allocates nothing.
func (v *View) ResolveKey(key []byte) (rdf.Term, bool) {
	ts := v.labels[string(key)]
	if len(ts) != 1 || v.classes[ts[0]] {
		return rdf.Term{}, false
	}
	return ts[0], true
}

// Description returns the disambiguation string registered for an
// entity.
func (v *View) Description(t rdf.Term) string { return v.reg.descriptions[t] }

// LookupRelation aligns a relation lemma ("near", "in", "visit") with a
// predicate, if the ontology models it.
func (v *View) LookupRelation(lemma string) (rdf.Term, bool) {
	p, ok := v.reg.relations[strings.ToLower(lemma)]
	return p, ok
}

// InstancesOf returns the instances of a class, including instances of
// its subclasses (one transitive closure over subClassOf), in the view's
// snapshot.
func (v *View) InstancesOf(class rdf.Term) []rdf.Term {
	seen := map[rdf.Term]bool{}
	var out []rdf.Term
	var visit func(c rdf.Term)
	visited := map[rdf.Term]bool{}
	visit = func(c rdf.Term) {
		if visited[c] {
			return
		}
		visited[c] = true
		for _, inst := range v.snap.Subjects(PredInstanceOf, c) {
			if !seen[inst] {
				seen[inst] = true
				out = append(out, inst)
			}
		}
		for _, sub := range v.snap.Subjects(PredSubClassOf, c) {
			visit(sub)
		}
	}
	visit(class)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// MaterializeInference adds the subclass closure to the store: for every
// (s instanceOf C) and superclass S of C, (s instanceOf S) is added, so
// the plain BGP matcher answers "instanceOf Place" for parks and hotels.
// Call it once after the ontology data is loaded.
func (o *Ontology) MaterializeInference() {
	snap := o.Snapshot()
	// superclasses: direct subClassOf edges.
	super := map[rdf.Term][]rdf.Term{}
	snap.MatchFunc(rdf.T(rdf.NewVar("c"), PredSubClassOf, rdf.NewVar("s")), func(t rdf.Triple) bool {
		super[t.S] = append(super[t.S], t.O)
		return true
	})
	var allSupers func(c rdf.Term, seen map[rdf.Term]bool) []rdf.Term
	allSupers = func(c rdf.Term, seen map[rdf.Term]bool) []rdf.Term {
		var out []rdf.Term
		for _, s := range super[c] {
			if seen[s] {
				continue
			}
			seen[s] = true
			out = append(out, s)
			out = append(out, allSupers(s, seen)...)
		}
		return out
	}
	type inst struct{ s, c rdf.Term }
	var pairs []inst
	snap.MatchFunc(rdf.T(rdf.NewVar("s"), PredInstanceOf, rdf.NewVar("c")), func(t rdf.Triple) bool {
		pairs = append(pairs, inst{t.S, t.O})
		return true
	})
	for _, p := range pairs {
		for _, s := range allSupers(p.c, map[rdf.Term]bool{}) {
			o.Store.AddTriple(p.s, PredInstanceOf, s)
		}
	}
}

// Merge combines several ontologies into one (the demo uses
// LinkedGeoData and DBPedia together). Later ontologies win on
// description and relation conflicts. Label/word/class indexes are not
// copied — they re-derive from the merged store's first epoch.
func Merge(name string, parts ...*Ontology) *Ontology {
	m := New(name)
	r := m.reg.Load()
	for _, p := range parts {
		for _, t := range p.Store.All() {
			m.Store.MustAdd(t)
		}
		p.mu.Lock()
		pr := p.reg.Load()
		maps.Copy(r.descriptions, pr.descriptions)
		maps.Copy(r.classes, pr.classes)
		r.aliases = append(r.aliases, pr.aliases...)
		maps.Copy(r.relations, pr.relations)
		p.mu.Unlock()
	}
	return m
}
