package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"nl2cm/internal/corpus"
	"nl2cm/internal/ontology"
	"nl2cm/internal/qcache"
	"nl2cm/internal/qgen"
	"nl2cm/internal/rdf"
)

// TestCacheServesColdAcrossWrites is the randomized differential of the
// plan cache against writes. A seeded loop over the demo ontology
// interleaves store batches, registrations (aliases, relation lemmas
// and entity descriptions) and recorded disambiguation choices with
// cached translations of the corpus questions and their same-shape
// variants. The three translators share one feedback store.
// The batches add and remove labels (some sharing a word with a corpus
// entity phrase, some taking a corpus entity's label away), a fourth
// "Buffalo", subClassOf edges, and near triples that flip the degree
// order of the three Buffalos. The choices pick a Buffalo for "Buffalo",
// or any lookup candidate for a corpus entity phrase. Every served
// result is compared, at the epoch it was served, on the OASSIS-QL
// query, all four backends, provenance and DataEpoch:
//
//   - a miss or an exact hit with a cold translation;
//   - a rebound with what an empty-cache translator serves after being
//     asked the question that filled the entry. Rebinding itself is not
//     under test here (TestCacheRebindDifferential pins it, and lists the
//     variants it still gets wrong); validating the entry is.
func TestCacheServesColdAcrossWrites(t *testing.T) {
	onto := ontology.NewDemoOntology()
	onto.Snapshot()
	cached := New(onto)
	cached.Cache = qcache.New(1024)
	cold := New(onto)
	ref := New(onto)
	feedback := cached.Generator.Feedback
	cold.Generator.Feedback = feedback
	ref.Generator.Feedback = feedback
	ctx := context.Background()
	opt := Options{Backends: allBackends()}

	var questions []string
	for _, q := range corpus.All() {
		questions = append(questions, q.Text)
	}
	for _, pair := range corpusVariants(onto) {
		questions = append(questions, pair[1])
	}
	w := newWriter(onto, questions)
	rng := rand.New(rand.NewSource(20))

	type fill struct {
		question string
		epoch    uint64
		feedback uint64
	}
	fills := map[string]fill{} // shape key -> the question that filled it
	outcomes := map[string]int{}
	acrossWrites, acrossChoices := 0, 0
	for step := 0; step < 600; step++ {
		switch r := rng.Intn(20); {
		case r < 2:
			w.batch(t, rng)
			continue
		case r < 3:
			w.alias(rng)
			continue
		case r < 4:
			w.relation(rng)
			continue
		case r < 5:
			w.describe(rng)
			continue
		case r < 6:
			w.choose(rng, feedback)
			continue
		}
		q := questions[rng.Intn(len(questions))]
		label := fmt.Sprintf("step %d (%q)", step, q)
		shape := qcache.Canonicalize(q, onto).Key
		got, err := cached.Translate(ctx, q, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		outcomes[got.CacheOutcome]++
		var want *Result
		switch got.CacheOutcome {
		case "miss":
			fills[shape] = fill{q, got.DataEpoch, feedback.Version()}
			fallthrough
		case "", "hit":
			want, err = cold.Translate(ctx, q, opt)
		case "rebound":
			ref.Cache = qcache.New(4)
			if _, err = ref.Translate(ctx, fills[shape].question, opt); err == nil {
				want, err = ref.Translate(ctx, q, opt)
			}
		}
		if err != nil {
			t.Fatalf("%s: reference translation: %v", label, err)
		}
		if got.CacheOutcome == "hit" || got.CacheOutcome == "rebound" {
			if fills[shape].epoch < got.DataEpoch {
				acrossWrites++
			}
			if fills[shape].feedback < feedback.Version() {
				acrossChoices++
			}
		}
		label += " served " + got.CacheOutcome
		if got.DataEpoch != want.DataEpoch || got.DataEpoch != onto.Epoch() {
			t.Errorf("%s: data epoch %d, reference %d, store %d", label, got.DataEpoch, want.DataEpoch, onto.Epoch())
		}
		compareResults(t, label, want, got)
		compareProvenance(t, label, want, got)
	}
	st := cached.Cache.Stats()
	t.Logf("outcomes %v, %d served across a write, %d across a choice, %d batches, %d choices, cache %+v",
		outcomes, acrossWrites, acrossChoices, w.batches, w.choices, st)
	if acrossWrites == 0 {
		t.Error("no cached plan was served across a write")
	}
	if acrossChoices == 0 {
		t.Error("no cached plan was served across a recorded choice")
	}
	if st.Stale == 0 {
		t.Error("no write made a cached plan stale")
	}
	// A request on the cache path that is translated cold reports a
	// miss: "" is for requests that bypass the cache.
	if n := outcomes[""]; n > 0 {
		t.Errorf("%d cached translations report outcome \"\"", n)
	}
	if st.Hits != uint64(outcomes["hit"]+outcomes["rebound"]) || st.Rebinds != uint64(outcomes["rebound"]) {
		t.Errorf("cache %+v counts other hits or rebinds than the outcomes %v", st, outcomes)
	}
}

// TestCacheConcurrentWritesServeTheirEpoch runs one writer that toggles
// Buffalo,_WY's degree above and below Buffalo,_NY's, so an epoch's
// parity names which Buffalo is the default reading, against eight
// readers translating Buffalo questions through one cached translator.
// Every result must equal the cold translation of the state its
// DataEpoch names.
func TestCacheConcurrentWritesServeTheirEpoch(t *testing.T) {
	questions := []string{
		"Where should we eat in Buffalo?",
		"Where do you visit in Buffalo?",
		"Which parks are in Buffalo?",
	}
	onto := ontology.NewDemoOntology()
	base := onto.Snapshot().Epoch()
	var boost rdf.Batch
	for i := 0; i < 200; i++ {
		boost.Insert = append(boost.Insert, rdf.T(ontology.E("Buffalo,_WY"), ontology.PredNear,
			ontology.E(fmt.Sprintf("WY_Place_%d", i))))
	}
	unboost := rdf.Batch{Delete: boost.Insert}

	// want[parity][question]: the cold translation with Buffalo,_WY
	// boosted at odd distances from the base epoch, as the writer leaves it.
	ctx := context.Background()
	var want [2]map[string]string
	for parity := range want {
		o := ontology.NewDemoOntology()
		if parity == 1 {
			apply(t, o, boost)
		}
		want[parity] = map[string]string{}
		for _, q := range questions {
			res, err := New(o).Translate(ctx, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want[parity][q] = res.Query.String()
		}
	}
	if want[0][questions[0]] == want[1][questions[0]] {
		t.Fatal("fixture: boosting Buffalo,_WY does not change the translation")
	}

	tr := New(onto)
	tr.Cache = qcache.New(64)
	const readers, reads = 8, 60
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writes := 0
	writer.Add(1)
	go func() {
		defer writer.Done()
		for ; ; writes++ {
			select {
			case <-stop:
				return
			default:
			}
			b := boost
			if writes%2 == 1 {
				b = unboost
			}
			if _, _, _, err := onto.Store.Apply(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	var mu sync.Mutex
	epochs := map[uint64]bool{}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				q := questions[(r+i)%len(questions)]
				res, err := tr.Translate(ctx, q, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				epochs[res.DataEpoch] = true
				mu.Unlock()
				if got, w := res.Query.String(), want[(res.DataEpoch-base)%2][q]; got != w {
					t.Errorf("%q served %s at epoch %d:\n%s\nwant:\n%s", q, res.CacheOutcome, res.DataEpoch, got, w)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	t.Logf("%d writes, results at %d epochs, cache %+v", writes, len(epochs), tr.Cache.Stats())
}

// TestCacheConcurrentChoicesServeAReading runs one writer that records
// Buffalo choices, cycling through the three readings, against eight
// readers translating Buffalo questions through one cached translator;
// run it with -race. Each finished translation lets the writer record
// one more choice, so choices land among the translations and keep
// changing which Buffalo ranks first until every count reaches the
// boost cap. Every served result must equal the cold translation of one
// of the three readings; once the writer stops, every question must be
// served as a cold translation under the final feedback gives it.
func TestCacheConcurrentChoicesServeAReading(t *testing.T) {
	questions := []string{
		"Where should we eat in Buffalo?",
		"Where do you visit in Buffalo?",
		"Which parks are in Buffalo?",
	}
	readings := []string{"Buffalo,_IL", "Buffalo,_WY", "Buffalo,_NY"}
	onto := ontology.NewDemoOntology()
	ctx := context.Background()
	// isReading[question][query]: the query is one reading's cold
	// translation of the question.
	isReading := map[string]map[string]bool{}
	for _, r := range readings {
		tr := New(onto)
		tr.Generator.Feedback.Record("Buffalo", ontology.E(r))
		for _, q := range questions {
			res, err := tr.Translate(ctx, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if isReading[q] == nil {
				isReading[q] = map[string]bool{}
			}
			isReading[q][res.Query.String()] = true
		}
	}
	for _, q := range questions {
		if len(isReading[q]) != len(readings) {
			t.Fatalf("fixture: %q has %d distinct readings, want %d", q, len(isReading[q]), len(readings))
		}
	}

	tr := New(onto)
	tr.Cache = qcache.New(64)
	const readers, reads = 8, 30
	tick, stop := make(chan struct{}, 1), make(chan struct{})
	var writer, wg sync.WaitGroup
	choices := 0
	writer.Add(1)
	go func() {
		defer writer.Done()
		for ; ; choices++ {
			select {
			case <-stop:
				return
			case <-tick:
			}
			tr.Generator.Feedback.Record("Buffalo", ontology.E(readings[choices%len(readings)]))
		}
	}()
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				q := questions[(r+i)%len(questions)]
				res, err := tr.Translate(ctx, q, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if !isReading[q][res.Query.String()] {
					t.Errorf("%q served %s as no reading's translation:\n%s", q, res.CacheOutcome, res.Query)
					return
				}
				select {
				case tick <- struct{}{}:
				default: // the writer has a choice pending already
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	cold := New(onto)
	cold.Generator.Feedback = tr.Generator.Feedback
	for _, q := range questions {
		got, err := tr.Translate(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Translate(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Query.String() != want.Query.String() {
			t.Errorf("%q served %s after the writer stopped:\n%s\nwant:\n%s", q, got.CacheOutcome, got.Query, want.Query)
		}
	}
	t.Logf("%d choices, cache %+v", choices, tr.Cache.Stats())
}

// compareProvenance checks that two results trace the same triples to
// the same question text.
func compareProvenance(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(got.Provenance) != len(want.Provenance) {
		t.Errorf("%s: %d provenance records, want %d", label, len(got.Provenance), len(want.Provenance))
	}
	for key, rec := range want.Provenance {
		if g, ok := got.Provenance[key]; !ok || g.Text != rec.Text {
			t.Errorf("%s: provenance of %s is %q (present %v), want %q", label, key, g.Text, ok, rec.Text)
		}
	}
}

// writer draws the randomized differential's store batches and
// registrations, keeping what it added so later batches can take it
// away again.
type writer struct {
	onto    *ontology.Ontology
	words   []string   // words of corpus entity phrases
	phrases []string   // corpus entity phrases
	slots   []rdf.Term // entities corpus questions name
	labels  []rdf.Triple
	taken   []rdf.Triple // corpus entity labels currently removed
	classes []rdf.Triple
	fourth  bool
	flip    []rdf.Triple // near triples raising a Buffalo's degree
	next    int
	batches int
	choices int
}

func newWriter(onto *ontology.Ontology, questions []string) *writer {
	w := &writer{onto: onto}
	seen := map[string]bool{}
	for _, q := range questions {
		for _, b := range qcache.Canonicalize(q, onto).Entities {
			if !seen[b.Phrase] {
				seen[b.Phrase] = true
				w.phrases = append(w.phrases, b.Phrase)
				w.slots = append(w.slots, b.Term)
				for _, word := range strings.Fields(strings.NewReplacer(",", " ").Replace(b.Phrase)) {
					if len(word) > 2 {
						w.words = append(w.words, word)
					}
				}
			}
		}
	}
	return w
}

func (w *writer) fresh() rdf.Term {
	w.next++
	return ontology.E(fmt.Sprintf("Quox_%d", w.next))
}

// batch applies one randomly drawn write batch.
func (w *writer) batch(t *testing.T, rng *rand.Rand) {
	t.Helper()
	var b rdf.Batch
	switch rng.Intn(6) {
	case 0: // a label sharing a word with a corpus entity phrase
		word := w.words[rng.Intn(len(w.words))]
		tr := rdf.T(w.fresh(), ontology.PredLabel, rdf.NewLiteral(word+" Quox"))
		b.Insert = append(b.Insert, tr)
		w.labels = append(w.labels, tr)
	case 1: // take back a label added before, or a corpus entity's label
		if len(w.labels) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(w.labels))
			b.Delete = append(b.Delete, w.labels[i])
			w.labels = append(w.labels[:i], w.labels[i+1:]...)
			break
		}
		if len(w.taken) > 0 {
			b.Insert = append(b.Insert, w.taken...)
			w.taken = nil
			break
		}
		e := w.slots[rng.Intn(len(w.slots))]
		for _, l := range w.onto.Snapshot().Objects(e, ontology.PredLabel) {
			b.Delete = append(b.Delete, rdf.T(e, ontology.PredLabel, l))
		}
		w.taken = b.Delete
	case 2: // a fourth Buffalo, in or out
		e := ontology.E("Buffalo,_MN")
		tr := []rdf.Triple{
			rdf.T(e, ontology.PredLabel, rdf.NewLiteral("Buffalo")),
			rdf.T(e, ontology.PredInstanceOf, ontology.E("City")),
		}
		if w.fourth {
			b.Delete = tr
		} else {
			b.Insert = tr
		}
		w.fourth = !w.fourth
	case 3: // a class edge: a named entity becomes a subclass of Place
		if len(w.classes) > 0 && rng.Intn(2) == 0 {
			b.Delete = w.classes
			w.classes = nil
			break
		}
		tr := rdf.T(w.slots[rng.Intn(len(w.slots))], ontology.PredSubClassOf, ontology.E("Place"))
		b.Insert = append(b.Insert, tr)
		w.classes = append(w.classes, tr)
	default: // raise another Buffalo's degree above Buffalo,_NY's, or drop it
		if w.flip != nil {
			b.Delete = w.flip
			w.flip = nil
			break
		}
		buffalo := ontology.E([]string{"Buffalo,_IL", "Buffalo,_WY"}[rng.Intn(2)])
		for i := 0; i < 200; i++ {
			w.flip = append(w.flip, rdf.T(buffalo, ontology.PredNear, w.fresh()))
		}
		b.Insert = w.flip
	}
	if _, _, _, err := w.onto.Store.Apply(b); err != nil {
		t.Fatal(err)
	}
	w.batches++
}

// alias registers an extra lookup label: a new name for a corpus
// entity, or one that shares a word with a corpus entity phrase.
func (w *writer) alias(rng *rand.Rand) {
	e := w.slots[rng.Intn(len(w.slots))]
	if rng.Intn(2) == 0 {
		w.onto.Alias(e, fmt.Sprintf("Quox Alias %d", rng.Intn(1000)))
		return
	}
	w.onto.Alias(w.fresh(), w.words[rng.Intn(len(w.words))]+" Alias")
}

// relation registers a relation lemma, one corpus questions use or a
// new one, for one of three predicates: later registrations remap it.
func (w *writer) relation(rng *rand.Rand) {
	lemmas := []string{"beside", "by", "in", "near", "at", "with"}
	preds := []rdf.Term{ontology.PredNear, ontology.PredLocatedIn, ontology.PredMadeBy}
	w.onto.AddRelation(preds[rng.Intn(len(preds))], lemmas[rng.Intn(len(lemmas))])
}

// describe registers a new description for an entity corpus questions
// name, through AddEntity with the entity's current label.
func (w *writer) describe(rng *rand.Rand) {
	e := w.slots[rng.Intn(len(w.slots))]
	labels := w.onto.Snapshot().Objects(e, ontology.PredLabel)
	if len(labels) == 0 {
		return // a batch took the label away
	}
	w.onto.AddEntity(e.Local(), labels[0].Value(), fmt.Sprintf("Quox description %d", rng.Intn(1000)), rdf.Term{})
}

// choose records one disambiguation choice: a Buffalo for "Buffalo",
// or one of a corpus entity phrase's lookup candidates for that phrase.
func (w *writer) choose(rng *rand.Rand, f *qgen.Feedback) {
	if rng.Intn(2) == 0 {
		f.Record("Buffalo", ontology.E([]string{"Buffalo,_NY", "Buffalo,_IL", "Buffalo,_WY"}[rng.Intn(3)]))
		w.choices++
		return
	}
	phrase := w.phrases[rng.Intn(len(w.phrases))]
	if cands := w.onto.View().Lookup(phrase); len(cands) > 0 {
		f.Record(phrase, cands[rng.Intn(len(cands))].Term)
		w.choices++
	}
}
