// Package qcache is the cross-request translation cache: NLIDB workloads
// are dominated by a small number of recurring question *shapes*
// ("Where do families eat near Delaware Park?" and "Where do families
// eat near Central Park?" are the same request about different
// entities), so the expensive crowd-independent pipeline work —
// parsing, IX detection, query generation, composition, backend
// emission — can be amortized across every question of a shape.
//
// The package has two halves:
//
//   - Canonicalize turns a question into its Shape: the lowercased
//     token sequence with every unambiguous entity mention abstracted to
//     a slot marker, plus the ordered entity bindings that filled the
//     slots. Two questions with equal shape keys differ only in which
//     entities they name.
//
//   - Cache is a size-bounded LRU keyed on (shape, backend set) with
//     single-flight deduplication: concurrent misses on one key run the
//     underlying computation once, and everyone waits for it. The cache
//     knows nothing of what a value was computed from. The caller
//     checks an entry against the state it is served at (knowledge-base
//     data, registrations, learned feedback), and DropStale removes one
//     that no longer holds, so the next Lookup refills it through the
//     single flight.
//
// The cache stores opaque values (any): the core package owns the
// Result type and would otherwise be a dependency cycle.
package qcache

import (
	"container/list"
	"context"
	"strconv"
	"strings"
	"sync"

	"nl2cm/internal/nlp"
	"nl2cm/internal/ontology"
	"nl2cm/internal/rdf"
)

// Binding is one entity slot of a shape, in question order.
type Binding struct {
	// Phrase is the surface mention ("Delaware Park").
	Phrase string
	// Term is the entity the phrase unambiguously names.
	Term rdf.Term
}

// Shape is the canonical form of a question: the key two same-shape
// questions share, and this question's slot bindings.
type Shape struct {
	// Key is the canonical token sequence, entity mentions abstracted to
	// ⟨eN⟩ markers (N = token count of the mention, so shapes only match
	// when their token structures match and cached token provenance
	// stays valid across a rebind).
	Key string
	// Entities are the slot bindings in question order.
	Entities []Binding
}

// maxMentionTokens bounds the n-gram window Canonicalize slides over
// the question; the longest demo label ("Forest Hotel, Buffalo, NY")
// tokenizes to 6 tokens.
const maxMentionTokens = 8

// Canonicalize computes the shape of a question on the ontology's
// current view (see CanonicalizeTokens).
func Canonicalize(question string, o *ontology.Ontology) Shape {
	return CanonicalizeTokens(question, nlp.Tokenize(question), o.View())
}

// CanonicalizeTokens computes the shape of a question, given its tokens
// as nlp.Tokenize returns them, on the view v: tokens are lowercased,
// and each maximal phrase that unambiguously names one entity
// (View.ResolveKey) becomes a slot marker. Phrases naming several
// entities (the three "Buffalo"s) or a class ("restaurant") stay literal:
// an ambiguous mention's resolution can depend on learned feedback or
// dialogue, and class words are query structure, not bindable slots.
// Matching is greedy longest-first, so "Forest Hotel, Buffalo" binds the
// aliased hotel rather than "Forest Hotel" plus a dangling ", Buffalo".
// It reads the tokens' spans and Lower fields only.
func CanonicalizeTokens(question string, toks []nlp.Token, v *ontology.View) Shape {
	var b strings.Builder
	// The key is about the question's length, plus the spaces that
	// separate its punctuation tokens.
	b.Grow(len(question) + len(toks))
	var ents []Binding
	m := mentions{question: question, view: v, maxKey: v.MaxKey(), key: make([]byte, 0, 64)}
	for i := 0; i < len(toks); {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if n, t := m.longest(toks[i:]); n > 0 {
			ents = append(ents, Binding{Phrase: question[toks[i].Start:toks[i+n-1].End], Term: t})
			b.WriteString("⟨e")
			b.WriteString(strconv.Itoa(n))
			b.WriteString("⟩")
			i += n
			continue
		}
		b.WriteString(toks[i].Lower)
		i++
	}
	return Shape{Key: b.String(), Entities: ents}
}

// mentions finds entity mentions in one question. Its key buffer serves
// every n-gram start; the view does not retain it.
type mentions struct {
	question string
	view     *ontology.View
	maxKey   int
	key      []byte
}

// longest returns the token count of the longest entity mention that
// starts at toks[0], and the entity it names (0 when none). The
// mention's key grows one token at a time: each byte is normalized
// once, and the growth stops once the key is longer than any key that
// resolves.
func (m *mentions) longest(toks []nlp.Token) (int, rdf.Term) {
	var kb ontology.KeyBuilder
	m.key = m.key[:0]
	best, term := 0, rdf.Term{}
	from := toks[0].Start
	for n := 1; n <= min(len(toks), maxMentionTokens); n++ {
		var ok bool
		m.key, ok = kb.Append(m.key, m.question[from:toks[n-1].End], m.maxKey)
		if !ok {
			break
		}
		from = toks[n-1].End
		if t, ok := m.view.ResolveKey(m.key); ok {
			best, term = n, t
		}
	}
	return best, term
}

// BackendKey canonicalizes a backend list into a key component: sorted,
// deduplicated, comma-joined, so request-order differences do not split
// the cache.
func BackendKey(backends []string) string {
	if len(backends) == 0 {
		return ""
	}
	uniq := make([]string, 0, len(backends))
	seen := make(map[string]bool, len(backends))
	for _, b := range backends {
		if !seen[b] {
			seen[b] = true
			uniq = append(uniq, b)
		}
	}
	// insertion sort: backend lists are tiny
	for i := 1; i < len(uniq); i++ {
		for j := i; j > 0 && uniq[j] < uniq[j-1]; j-- {
			uniq[j], uniq[j-1] = uniq[j-1], uniq[j]
		}
	}
	return strings.Join(uniq, ",")
}

// Key identifies one cache entry. It is comparable and keys the
// cache's maps as it is, so a probe builds no string. It names what was
// asked, not the state the answer was computed from: no version is part
// of it, so an entry outlives store writes and recorded feedback for as
// long as the caller's check at serving time confirms it.
type Key struct {
	// Shape is the canonical question shape (Shape.Key).
	Shape string
	// Backends is the requested backend set (BackendKey).
	Backends string
}

// Outcome classifies one cache access.
type Outcome int

const (
	// Miss: no entry, no flight — the caller owns computing the value.
	Miss Outcome = iota
	// Hit: a cached value was returned.
	Hit
	// Wait: another goroutine is computing this key; wait on the flight.
	Wait
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Wait:
		return "wait"
	default:
		return "miss"
	}
}

// Stats are the cache's monotonic counters. Hits and Misses count what
// was served: every request answered through the cache counts once, as
// a hit or as a miss.
type Stats struct {
	// Hits counts requests served from a cached entry (noted by the
	// caller via NoteHit, once it has checked and served the entry).
	Hits uint64
	// Misses counts requests translated cold: lookups that started a
	// fill, and requests the caller translated without filling (NoteMiss)
	// because the entry it found could not serve them.
	Misses uint64
	// Waits counts lookups coalesced onto another goroutine's fill; each
	// such request then counts as a hit or a miss too.
	Waits uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// Rebinds counts the hits served by re-binding entity slots to new
	// entities.
	Rebinds uint64
	// Stale counts entries dropped by DropStale: the caller found that a
	// read the entry rests on changed since it was computed.
	Stale uint64
	// Entries is the current entry count (a gauge, not a counter).
	Entries int
}

// Cache is the size-bounded single-flight LRU. The zero value is not
// usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	cap     int
	items   map[Key]*list.Element // of *entry
	lru     *list.List            // front = most recent
	flights map[Key]*Flight

	hits, misses, waits, evictions, rebinds, stale uint64
}

type entry struct {
	key Key
	val any
}

// DefaultCapacity bounds the cache when New is given a non-positive
// capacity.
const DefaultCapacity = 1024

// New returns a cache holding at most capacity entries.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:     capacity,
		items:   make(map[Key]*list.Element),
		lru:     list.New(),
		flights: make(map[Key]*Flight),
	}
}

// Flight is one in-progress fill. The goroutine that received Miss owns
// it and must call exactly one of Fulfill or Fail; everyone that
// received Wait blocks in Wait until it does.
type Flight struct {
	c    *Cache
	key  Key
	done chan struct{}
	val  any
	err  error
}

// Lookup probes the cache. On Hit the value is returned, and the caller
// counts the request with NoteHit if it serves the value and NoteMiss if
// it does not; on Wait the caller should Wait on the flight, and count
// the same way; on Miss the caller owns the flight and must Fulfill or
// Fail it (deferring Fail(ctx.Err()) is safe: a fulfilled flight ignores
// later calls), and the miss is counted.
func (c *Cache) Lookup(key Key) (any, *Flight, Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry).val, nil, Hit
	}
	if f, ok := c.flights[key]; ok {
		c.waits++
		return nil, f, Wait
	}
	f := &Flight{c: c, key: key, done: make(chan struct{})}
	c.flights[key] = f
	c.misses++
	return nil, f, Miss
}

// Wait blocks until the flight's owner settles it or the context ends.
// A settled flight returns the computed value or the owner's error; the
// owner's error may reflect *its* request's cancellation, so callers
// should fall back to computing for themselves rather than propagating
// it.
func (f *Flight) Wait(ctx context.Context) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Fulfill stores the value under the flight's key and releases waiters.
func (f *Flight) Fulfill(val any) { f.settle(val, nil) }

// Fail releases waiters with the error; nothing is cached.
func (f *Flight) Fail(err error) {
	if err == nil {
		err = context.Canceled
	}
	f.settle(nil, err)
}

func (f *Flight) settle(val any, err error) {
	f.c.mu.Lock()
	if f.c.flights[f.key] != f { // already settled
		f.c.mu.Unlock()
		return
	}
	delete(f.c.flights, f.key)
	f.val, f.err = val, err
	if err == nil {
		f.c.insertLocked(f.key, val)
	}
	f.c.mu.Unlock()
	close(f.done)
}

// insertLocked adds an entry, evicting from the LRU tail past capacity.
func (c *Cache) insertLocked(k Key, val any) {
	if el, ok := c.items[k]; ok {
		el.Value.(*entry).val = val
		c.lru.MoveToFront(el)
		return
	}
	c.items[k] = c.lru.PushFront(&entry{key: k, val: val})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.items, back.Value.(*entry).key)
		c.evictions++
	}
}

// DropStale removes the entry under key if it still holds val, and
// counts it as stale. A caller that found val out of date drops it
// this way, so a newer value that another request stored in the
// meantime stays. Values are compared with ==, so val must be of a
// comparable type (a pointer, say).
func (c *Cache) DropStale(key Key, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok && el.Value.(*entry).val == val {
		c.lru.Remove(el)
		delete(c.items, key)
		c.stale++
	}
}

// NoteHit counts a request served from a cached entry; rebound marks
// one served by re-binding entity slots.
func (c *Cache) NoteHit(rebound bool) {
	c.mu.Lock()
	c.hits++
	if rebound {
		c.rebinds++
	}
	c.mu.Unlock()
}

// NoteMiss counts a request that found an entry, or waited on a fill,
// and was translated cold without filling.
func (c *Cache) NoteMiss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Waits:     c.waits,
		Evictions: c.evictions,
		Rebinds:   c.rebinds,
		Stale:     c.stale,
		Entries:   c.lru.Len(),
	}
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
