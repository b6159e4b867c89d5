package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"nl2cm/internal/corpus"
	"nl2cm/internal/emit"
	"nl2cm/internal/nlp"
	"nl2cm/internal/ontology"
	"nl2cm/internal/qcache"
	"nl2cm/internal/rdf"
)

// TestRebindRepeatedEntity: an entry whose question names one entity in
// two slots, or a request that does, is served only where the two agree
// on which slots name the same entity. Each case caches "Is X better
// than Y?" for the first pair of brands and asks it for the second; the
// served result must equal a cold translation on all four backends.
func TestRebindRepeatedEntity(t *testing.T) {
	onto := ontology.NewDemoOntology()
	ctx := context.Background()
	opt := Options{Backends: allBackends()}
	cold := New(onto)
	ask := func(x, y string) string { return fmt.Sprintf("Is %s better than %s?", x, y) }
	for _, c := range []struct {
		cached, asked [2]string
		outcome       string
	}{
		{[2]string{"Nikon", "Nikon"}, [2]string{"Canon", "Nikon"}, "miss"},
		{[2]string{"Nikon", "Nikon"}, [2]string{"Nikon", "Canon"}, "miss"},
		{[2]string{"Nikon", "Nikon"}, [2]string{"Sony", "Sony"}, "rebound"},
		{[2]string{"Nikon", "Canon"}, [2]string{"Sony", "Sony"}, "miss"},
		{[2]string{"Nikon", "Canon"}, [2]string{"Canon", "Nikon"}, "rebound"},
	} {
		base, q := ask(c.cached[0], c.cached[1]), ask(c.asked[0], c.asked[1])
		label := fmt.Sprintf("%q from %q", q, base)
		if a, b := qcache.Canonicalize(base, onto).Key, qcache.Canonicalize(q, onto).Key; a != b {
			t.Fatalf("%s: shapes differ: %q, %q", label, a, b)
		}
		cached := New(onto)
		cached.Cache = qcache.New(4)
		if _, err := cached.Translate(ctx, base, opt); err != nil {
			t.Fatalf("%s: warm-up: %v", label, err)
		}
		got, err := cached.Translate(ctx, q, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := cold.Translate(ctx, q, opt)
		if err != nil {
			t.Fatalf("%s: cold: %v", label, err)
		}
		if got.CacheOutcome != c.outcome {
			t.Errorf("%s: served %q, want %q", label, got.CacheOutcome, c.outcome)
		}
		compareResults(t, label, want, got)
	}
}

// TestEveryCorpusEntrySplices: every supported corpus question's cache
// entry cuts its texts into templates, with the key's backends or
// without, so each of its rebounds is a splice.
func TestEveryCorpusEntrySplices(t *testing.T) {
	onto := ontology.NewDemoOntology()
	ctx := context.Background()
	for _, opt := range []Options{{}, {Backends: allBackends()}} {
		tr := New(onto)
		tr.Cache = qcache.New(256)
		n := 0
		for _, q := range corpus.Supported() {
			if _, err := tr.Translate(ctx, q.Text, opt); err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			v, _, o := tr.Cache.Lookup(qcache.Key{Shape: qcache.Canonicalize(q.Text, onto).Key, Backends: qcache.BackendKey(opt.Backends)})
			if o != qcache.Hit {
				t.Fatalf("%s: entry not cached (%v)", q.ID, o)
			}
			if v.(*cacheEntry).splice == nil {
				t.Errorf("%s (backends %v): the entry built no templates", q.ID, opt.Backends)
			}
			n++
		}
		t.Logf("backends %v: %d entries", opt.Backends, n)
	}
}

// TestRebindAllocations is the allocation gate of rebounds: over the
// corpus variants that rebind, a rebound's Translate and default Render
// allocate on average at most 0.3 times what a cold translation of the
// same variants does. A ratio, unlike a count, holds under -race.
func TestRebindAllocations(t *testing.T) {
	onto := ontology.NewDemoOntology()
	ctx := context.Background()
	opt := Options{}
	cold := New(onto)
	var rebound, coldSum float64
	n := 0
	for _, pair := range corpusVariants(onto) {
		cached := New(onto)
		cached.Cache = qcache.New(4)
		if _, err := cached.Translate(ctx, pair[0], opt); err != nil {
			t.Fatal(err)
		}
		if res, err := cached.Translate(ctx, pair[1], opt); err != nil || res.CacheOutcome != "rebound" {
			continue
		}
		serve := func(tr *Translator) func() {
			return func() {
				res, err := tr.Translate(ctx, pair[1], opt)
				if err == nil {
					_, err = res.Render(emit.DefaultBackend)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		rebound += testing.AllocsPerRun(3, serve(cached))
		coldSum += testing.AllocsPerRun(3, serve(cold))
		n++
	}
	if n == 0 {
		t.Fatal("no variant rebinds")
	}
	ratio := rebound / coldSum
	t.Logf("%d rebinding variants: %.1f allocations per rebound, %.1f per cold translation, ratio %.3f", n, rebound/float64(n), coldSum/float64(n), ratio)
	if ratio > 0.3 {
		t.Errorf("a rebound allocates %.3f times a cold translation, want at most 0.3", ratio)
	}
}

// rebindBase is one slot of a supported corpus question: the phrase
// that fills it, its token count, and a class of its entity.
type rebindBase struct {
	question string
	at       int // byte offset of the phrase
	phrase   string
	tokens   int
	class    rdf.Term
	others   []rebindBase // the question's other slots
}

// rebindBases lists every slot of every supported corpus question whose
// entity has a class.
func rebindBases(onto *ontology.Ontology) []rebindBase {
	snap := onto.Snapshot()
	var out []rebindBase
	for _, q := range corpus.Supported() {
		var slots []rebindBase
		pos := 0
		for _, b := range qcache.Canonicalize(q.Text, onto).Entities {
			at := strings.Index(q.Text[pos:], b.Phrase)
			if at < 0 {
				break
			}
			at += pos
			pos = at + len(b.Phrase)
			classes := snap.Objects(b.Term, ontology.PredInstanceOf)
			if len(classes) == 0 {
				continue
			}
			slots = append(slots, rebindBase{question: q.Text, at: at, phrase: b.Phrase, tokens: len(nlp.Tokenize(b.Phrase)), class: classes[0]})
		}
		for i := range slots {
			s := slots[i]
			s.others = append(append([]rebindBase(nil), slots[:i]...), slots[i+1:]...)
			out = append(out, s)
		}
	}
	return out
}

// FuzzRebind fuzzes the splice against cold translation. Each input
// registers, through a store batch, a fresh entity in the class of a
// corpus question's slot entity, with the input's label and IRI local
// name, and writes its label in place of that slot's phrase (in every
// slot whose phrase has as many tokens, when repeat is set). Inputs
// whose question then has another shape than the base are skipped.
// Whichever way the plan cache serves the question after caching the
// base, and the base after caching the question, the answer must equal
// a cold translation on all four backends.
func FuzzRebind(f *testing.F) {
	ctx := context.Background()
	opt := Options{Backends: allBackends()}
	bases := rebindBases(ontology.NewDemoOntology())
	// at is the pick that lands a one-token label on the slot of the
	// phrase in the question.
	at := func(question, phrase string) uint8 {
		i := 0
		for _, b := range bases {
			if b.tokens == 1 {
				if b.question == question && b.phrase == phrase {
					return uint8(i)
				}
				i++
			}
		}
		f.Fatalf("no one-token slot %q in %q", phrase, question)
		return 0
	}
	vegas := at("What shows should we watch in Vegas?", "Vegas")
	fiber := at("Which dishes rich in fiber do people cook in the winter?", "fiber")
	// Local names that need escaping in some dialect, under a label that
	// parses as the base's phrase does, and under labels of their own.
	for _, local := range []string{"O'Hara's", "Zoë", `a\b`, `"Q"`, "Back`tick", "Quuxbarbazquuxbarbazquuxbarbazquuxbarbaz"} {
		f.Add("Zorb", local, vegas, false)
		f.Add(local, local, uint8(0), false)
	}
	// A repeated entity: one new entity in both slots of a question
	// whose slots name two.
	f.Add("zorb", "Zorb", fiber, true)
	// Entities colliding with a term the plan holds outside its slots:
	// by text (a local name "richIn" in another namespace) and by term.
	f.Add("zorb", "quox/richIn", fiber, false)
	f.Add("zorb", "instanceOf", fiber, false)
	f.Fuzz(func(t *testing.T, label, local string, pick uint8, repeat bool) {
		n := len(nlp.Tokenize(label))
		var fits []rebindBase
		for _, b := range bases {
			if b.tokens == n {
				fits = append(fits, b)
			}
		}
		if len(fits) == 0 {
			t.Skip("no slot phrase has as many tokens as the label")
		}
		base := fits[int(pick)%len(fits)]
		onto := ontology.NewDemoOntology()
		e := ontology.E(local)
		if onto.Snapshot().CountMatch(rdf.T(e, rdf.NewVar("p"), rdf.NewVar("o"))) > 0 {
			t.Skip("the entity has triples already")
		}
		if _, _, _, err := onto.Store.Apply(rdf.Batch{Insert: []rdf.Triple{
			rdf.T(e, ontology.PredLabel, rdf.NewLiteral(label)),
			rdf.T(e, ontology.PredInstanceOf, base.class),
		}}); err != nil {
			t.Skip(err)
		}
		slots := []rebindBase{base}
		if repeat {
			for _, o := range base.others {
				if o.tokens == n {
					slots = append(slots, o)
				}
			}
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i].at > slots[j].at })
		q := base.question
		for _, s := range slots {
			q = q[:s.at] + label + q[s.at+len(s.phrase):]
		}
		if qcache.Canonicalize(q, onto).Key != qcache.Canonicalize(base.question, onto).Key {
			t.Skip("the question has another shape than the base")
		}
		cold := New(onto)
		for _, pair := range [][2]string{{base.question, q}, {q, base.question}} {
			cached := New(onto)
			cached.Cache = qcache.New(4)
			if _, err := cached.Translate(ctx, pair[0], opt); err != nil {
				t.Fatalf("caching %q: %v", pair[0], err)
			}
			got, err := cached.Translate(ctx, pair[1], opt)
			if err != nil {
				t.Fatalf("%q after %q: %v", pair[1], pair[0], err)
			}
			want, err := cold.Translate(ctx, pair[1], opt)
			if err != nil {
				t.Fatalf("cold %q: %v", pair[1], err)
			}
			compareResults(t, fmt.Sprintf("%q served %s after %q", pair[1], got.CacheOutcome, pair[0]), want, got)
		}
	})
}
