package qcache

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nl2cm/internal/nlp"
	"nl2cm/internal/ontology"
)

func TestCanonicalizeAbstractsUniqueEntities(t *testing.T) {
	onto := ontology.NewDemoOntology()
	a := Canonicalize("Where do families eat near Delaware Park?", onto)
	b := Canonicalize("Where do families eat near Central Park?", onto)
	if a.Key != b.Key {
		t.Fatalf("same-shape questions got different keys:\n  %q\n  %q", a.Key, b.Key)
	}
	if len(a.Entities) != 1 || len(b.Entities) != 1 {
		t.Fatalf("entity slots = %d / %d, want 1 / 1", len(a.Entities), len(b.Entities))
	}
	if a.Entities[0].Term.Equal(b.Entities[0].Term) {
		t.Fatalf("both questions bound the same entity %v", a.Entities[0].Term)
	}
	if a.Entities[0].Phrase != "Delaware Park" {
		t.Errorf("phrase = %q, want %q", a.Entities[0].Phrase, "Delaware Park")
	}
}

func TestCanonicalizeKeepsAmbiguousAndClassWordsLiteral(t *testing.T) {
	onto := ontology.NewDemoOntology()
	// "Buffalo" labels three cities: it must stay literal, because its
	// resolution is feedback/dialogue-dependent.
	s := Canonicalize("What should we visit in Buffalo?", onto)
	if len(s.Entities) != 0 {
		t.Fatalf("ambiguous mention was abstracted: %+v", s.Entities)
	}
	for _, w := range []string{"buffalo"} {
		if !strings.Contains(s.Key, w) {
			t.Errorf("shape key %q lost literal word %q", s.Key, w)
		}
	}
	// Class words ("restaurant") are query structure, not slots.
	s = Canonicalize("Which restaurant serves families?", onto)
	if len(s.Entities) != 0 {
		t.Fatalf("class word was abstracted: %+v", s.Entities)
	}
}

func TestCanonicalizeGreedyLongestMention(t *testing.T) {
	onto := ontology.NewDemoOntology()
	s := Canonicalize("What is near Forest Hotel, Buffalo?", onto)
	if len(s.Entities) != 1 {
		t.Fatalf("entities = %+v, want the aliased hotel as one slot", s.Entities)
	}
	if s.Entities[0].Phrase != "Forest Hotel, Buffalo" {
		t.Errorf("phrase = %q, want the full alias", s.Entities[0].Phrase)
	}
	// The marker records the token count (Forest Hotel , Buffalo = 4),
	// so mentions with different token structures never share a shape.
	if !strings.Contains(s.Key, "⟨e4⟩") {
		t.Errorf("shape key %q lacks the 4-token marker", s.Key)
	}
}

func TestCanonicalizeTokenCountSplitsShapes(t *testing.T) {
	onto := ontology.NewDemoOntology()
	two := Canonicalize("What is near Delaware Park?", onto)
	one := Canonicalize("What is near Canalside?", onto)
	if two.Key == one.Key {
		t.Fatalf("2-token and 1-token mentions share shape %q; cached token sets would go stale", two.Key)
	}
}

func TestBackendKeyCanonicalizes(t *testing.T) {
	if got := BackendKey([]string{"sql", "cypher", "sql"}); got != "cypher,sql" {
		t.Errorf("BackendKey = %q, want %q", got, "cypher,sql")
	}
	if got := BackendKey(nil); got != "" {
		t.Errorf("BackendKey(nil) = %q, want empty", got)
	}
}

// do reads or fills one key through the flight protocol the
// translator's cached path follows: a Miss owns the flight and settles
// it with fill's value or error, a Wait blocks on the owner's flight,
// and a Hit returns the entry and counts it as served (NoteHit).
func do(ctx context.Context, c *Cache, key Key, fill func() (any, error)) (any, Outcome, error) {
	v, f, o := c.Lookup(key)
	switch o {
	case Wait:
		v, err := f.Wait(ctx)
		return v, Wait, err
	case Miss:
		v, err := fill()
		if err != nil {
			f.Fail(err)
			return nil, Miss, err
		}
		f.Fulfill(v)
		return v, Miss, nil
	}
	c.NoteHit(false)
	return v, Hit, nil
}

func TestCacheHitMissEvict(t *testing.T) {
	c := New(2)
	ctx := context.Background()
	fill := func(v string) func() (any, error) {
		return func() (any, error) { return v, nil }
	}
	key := func(s string) Key { return Key{Shape: s} }

	if _, o, _ := do(ctx, c, key("a"), fill("A")); o != Miss {
		t.Fatalf("first access = %v, want miss", o)
	}
	if v, o, _ := do(ctx, c, key("a"), fill("wrong")); o != Hit || v.(string) != "A" {
		t.Fatalf("second access = %v %v, want hit A", v, o)
	}
	do(ctx, c, key("b"), fill("B"))
	do(ctx, c, key("c"), fill("C")) // evicts "a" (LRU tail)
	if _, o, _ := do(ctx, c, key("a"), fill("A2")); o != Miss {
		t.Fatalf("evicted key came back as %v, want miss", o)
	}
	st := c.Stats()
	if st.Evictions < 1 {
		t.Errorf("evictions = %d, want ≥1", st.Evictions)
	}
	if st.Entries > 2 {
		t.Errorf("entries = %d, want ≤ capacity 2", st.Entries)
	}
}

// TestCacheBackendSetsAreSeparateEntries: one shape asked for two
// backend sets fills two entries, each hit only by its own set; the key
// holds nothing else, so an equal shape and set always reaches the
// entry.
func TestCacheBackendSetsAreSeparateEntries(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	plain, sql := Key{Shape: "s"}, Key{Shape: "s", Backends: "sql"}
	fill := func(v string) func() (any, error) {
		return func() (any, error) { return v, nil }
	}
	if _, o, _ := do(ctx, c, plain, fill("plain")); o != Miss {
		t.Fatalf("first access = %v, want miss", o)
	}
	if _, o, _ := do(ctx, c, sql, fill("sql")); o != Miss {
		t.Fatalf("another backend set = %v, want miss", o)
	}
	for key, want := range map[Key]string{plain: "plain", sql: "sql"} {
		if v, o, _ := do(ctx, c, key, fill("wrong")); o != Hit || v != want {
			t.Errorf("%+v: %v %v, want hit %s", key, v, o, want)
		}
	}
	if st := c.Stats(); st.Entries != 2 || st.Misses != 2 || st.Hits != 2 {
		t.Errorf("stats %+v, want 2 entries, 2 misses and 2 hits", st)
	}
}

// TestHitLookupAllocatesNothing: a probe that hits builds no key string,
// whatever the shape or backend set.
func TestHitLookupAllocatesNothing(t *testing.T) {
	c := New(8)
	key := Key{Shape: "where do families eat near ⟨e2⟩ ?", Backends: "cypher,sql"}
	_, f, _ := c.Lookup(key)
	f.Fulfill("v")
	if n := testing.AllocsPerRun(100, func() {
		if _, _, o := c.Lookup(key); o != Hit {
			t.Fatalf("outcome %v, want hit", o)
		}
	}); n != 0 {
		t.Errorf("a hit Lookup made %v allocations, want 0", n)
	}
}

// TestDropStaleRemovesOnlyTheGivenEntry: DropStale removes the entry
// under its key only while that key still holds the value it was given,
// counts the drop as stale, and leaves other keys alone; the next
// Lookup of the dropped key owns a fresh fill.
func TestDropStaleRemovesOnlyTheGivenEntry(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	a, b := Key{Shape: "a"}, Key{Shape: "b"}
	oldA, newA := new(int), new(int)
	do(ctx, c, a, func() (any, error) { return oldA, nil })
	do(ctx, c, b, func() (any, error) { return "B", nil })

	c.DropStale(a, newA)                                // a holds another value
	c.DropStale(Key{Shape: "a", Backends: "sql"}, oldA) // nothing under this key
	if st := c.Stats(); st.Stale != 0 || st.Entries != 2 {
		t.Fatalf("stats %+v after drops that match no entry, want none stale and 2 entries", st)
	}
	c.DropStale(a, oldA)
	c.DropStale(a, oldA) // already gone
	if v, _, o := c.Lookup(b); o != Hit || v != "B" {
		t.Fatalf("other key after the drop: %v %v, want hit B", v, o)
	}
	_, f, o := c.Lookup(a)
	if o != Miss {
		t.Fatalf("dropped key came back as %v, want miss", o)
	}
	f.Fulfill(newA)
	if v, _, o := c.Lookup(a); o != Hit || v != newA {
		t.Fatalf("refilled key: %v %v, want hit of the new value", v, o)
	}
	if st := c.Stats(); st.Stale != 1 || st.Entries != 2 {
		t.Errorf("stats %+v, want 1 stale drop and 2 entries", st)
	}
}

func TestSingleFlightDeduplicates(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	const workers = 16
	var fills atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			v, _, err := do(ctx, c, Key{Shape: "shared"}, func() (any, error) {
				fills.Add(1)
				return "computed", nil
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times for one key, want exactly 1", n)
	}
	for i, v := range results {
		if v != "computed" {
			t.Errorf("worker %d got %v", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Waits != workers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits+waits", st, workers-1)
	}
}

func TestFailedFlightIsNotCached(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := do(ctx, c, Key{Shape: "s"}, func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, o, _ := do(ctx, c, Key{Shape: "s"}, func() (any, error) { return "ok", nil }); o != Miss {
		t.Fatalf("after a failed fill the next access = %v, want miss", o)
	}
}

func TestFlightDoubleSettleIsSafe(t *testing.T) {
	c := New(8)
	_, f, o := c.Lookup(Key{Shape: "s"})
	if o != Miss {
		t.Fatal("expected miss")
	}
	f.Fulfill("v")
	f.Fail(errors.New("late")) // deferred-cleanup pattern: must be a no-op
	if v, _, o := c.Lookup(Key{Shape: "s"}); o != Hit || v.(string) != "v" {
		t.Fatalf("entry lost after late Fail: %v %v", v, o)
	}
}

// TestCacheStress hammers a small cache from many goroutines with
// overlapping shape keys — concurrent hits, misses, waits and evictions
// on the same keys. Run with -race; the invariant checked is that every
// access returns the value computed for its key.
func TestCacheStress(t *testing.T) {
	c := New(4) // smaller than the key space: constant eviction pressure
	ctx := context.Background()
	const (
		workers = 8
		iters   = 400
		shapes  = 10
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				shape := fmt.Sprintf("shape-%d", (w+i)%shapes)
				want := "value-for-" + shape
				v, _, err := do(ctx, c, Key{Shape: shape}, func() (any, error) {
					return want, nil
				})
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				if v.(string) != want {
					t.Errorf("worker %d iter %d: got %v, want %v", w, i, v, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if total := st.Hits + st.Misses + st.Waits; total != workers*iters {
		t.Errorf("hits+misses+waits = %d, want %d", total, workers*iters)
	}
	if st.Entries > 4 {
		t.Errorf("entries = %d, want ≤ capacity 4", st.Entries)
	}
}

// TestSingleFlightWaiterCancellation: a waiter whose context ends while
// the filler is still running gets its own context error, and the
// filler's later Fulfill still lands in the cache.
func TestSingleFlightWaiterCancellation(t *testing.T) {
	c := New(8)
	key := Key{Shape: "slow"}
	_, owner, o := c.Lookup(key)
	if o != Miss {
		t.Fatal("expected miss")
	}
	_, waiterFlight, o := c.Lookup(key)
	if o != Wait {
		t.Fatalf("second lookup = %v, want wait", o)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := waiterFlight.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	owner.Fulfill("done")
	if v, _, o := c.Lookup(key); o != Hit || v.(string) != "done" {
		t.Fatalf("after fulfill: %v %v, want hit done", v, o)
	}
}

// refCanonicalize is canonicalization as it was before n-gram keys grew
// token by token: at each token, every n-gram up to maxMentionTokens,
// longest first, normalized from scratch and resolved through
// View.ResolveEntity. It is the oracle of FuzzCanonicalize.
func refCanonicalize(question string, v *ontology.View) Shape {
	toks := nlp.Tokenize(question)
	var parts []string
	var ents []Binding
	for i := 0; i < len(toks); {
		n := 0
		for m := min(maxMentionTokens, len(toks)-i); m >= 1; m-- {
			phrase := question[toks[i].Start:toks[i+m-1].End]
			if t, ok := v.ResolveEntity(phrase); ok {
				ents = append(ents, Binding{Phrase: phrase, Term: t})
				n = m
				break
			}
		}
		if n > 0 {
			parts = append(parts, "⟨e"+strconv.Itoa(n)+"⟩")
			i += n
			continue
		}
		parts = append(parts, toks[i].Lower)
		i++
	}
	return Shape{Key: strings.Join(parts, " "), Entities: ents}
}

// FuzzCanonicalize checks shape canonicalization over arbitrary input:
// it never panics and returns the shape refCanonicalize computes; the
// key holds one ⟨eN⟩ marker per binding (beyond any the question's own
// tokens spell), each binding's phrase occurs in the question after the
// previous one, and each phrase resolves to the binding's term.
func FuzzCanonicalize(f *testing.F) {
	onto := ontology.NewDemoOntology()
	view := onto.View()
	for _, s := range []string{
		"Where do families eat near Delaware Park?",
		"What is near Forest Hotel, Buffalo?",
		"What should we visit in Buffalo?",
		"Which restaurants near Woodlawn Beach do locals recommend?",
		"delaware park delaware park, CENTRAL PARK",
		"near ⟨e1⟩ Canalside",
		"",
		"\xff Delaware Park",
		"Forest  HOTEL ,Buffalo,NY",
		"Anchor Bar's wings can't beat Delaware Park.",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		s := CanonicalizeTokens(q, nlp.Tokenize(q), view)
		if ref := refCanonicalize(q, view); !reflect.DeepEqual(s, ref) {
			t.Fatalf("Canonicalize(%q) = %+v, oracle %+v", q, s, ref)
		}
		want := len(s.Entities)
		for _, tok := range nlp.Tokenize(q) {
			want += strings.Count(tok.Lower, "⟨e")
		}
		if got := strings.Count(s.Key, "⟨e"); got != want {
			t.Fatalf("Canonicalize(%q) key %q has %d markers, want %d", q, s.Key, got, want)
		}
		pos := 0
		for _, b := range s.Entities {
			at := strings.Index(q[pos:], b.Phrase)
			if at < 0 {
				t.Fatalf("Canonicalize(%q): phrase %q not found after byte %d", q, b.Phrase, pos)
			}
			pos += at + len(b.Phrase)
			if term, ok := view.ResolveEntity(b.Phrase); !ok || term != b.Term {
				t.Fatalf("Canonicalize(%q): phrase %q resolves to %v, %v; binding says %v", q, b.Phrase, term, ok, b.Term)
			}
		}
	})
}
