package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"nl2cm/internal/corpus"
	"nl2cm/internal/ontology"
	"nl2cm/internal/qcache"
	"nl2cm/internal/rdf"
)

// TestDataEpochInvalidatesCachedPlans asserts the serving-epoch half of
// the cache contract: a store write batch publishes a new data epoch,
// and a cached plan is served at it only while the plan's ontology
// reads return what they returned. A batch that changes none of them
// leaves a hit carrying the new epoch; a batch that changes one makes
// the next request drop the entry and translate cold.
func TestDataEpochInvalidatesCachedPlans(t *testing.T) {
	onto := ontology.NewDemoOntology()
	tr := New(onto)
	tr.Cache = qcache.New(64)
	ctx := context.Background()
	const q = "Where do families eat near Delaware Park?"
	shape := qcache.Canonicalize(q, onto).Key

	res1, err := tr.Translate(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.CacheOutcome != "miss" {
		t.Fatalf("first translation outcome = %q, want miss", res1.CacheOutcome)
	}
	res2, err := tr.Translate(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheOutcome != "hit" {
		t.Fatalf("repeat outcome = %q, want hit", res2.CacheOutcome)
	}
	if res2.DataEpoch != res1.DataEpoch {
		t.Fatalf("hit served under epoch %d, cached at %d", res2.DataEpoch, res1.DataEpoch)
	}

	// A label no read of the question touches: the data epoch moves,
	// the cached plan stays servable and is served at the new epoch.
	apply(t, onto, rdf.Batch{Insert: []rdf.Triple{
		rdf.T(ontology.E("Epoch_Test_Entity"), ontology.PredLabel, rdf.NewLiteral("Epoch Test Entity")),
	}})
	res3, err := tr.Translate(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.CacheOutcome != "hit" {
		t.Fatalf("after an unrelated write: outcome = %q, want hit", res3.CacheOutcome)
	}
	if res3.DataEpoch <= res2.DataEpoch || res3.DataEpoch != onto.Epoch() {
		t.Fatalf("hit after the write carries epoch %d; before it %d, store at %d", res3.DataEpoch, res2.DataEpoch, onto.Epoch())
	}

	// A label sharing the word "Park" adds a word match to the
	// generator's lookup of "Delaware Park" but leaves the shape alone:
	// the entry is stale, so the next request misses.
	apply(t, onto, rdf.Batch{Insert: []rdf.Triple{
		rdf.T(ontology.E("Epoch_Park"), ontology.PredLabel, rdf.NewLiteral("Epoch Park")),
	}})
	if got := qcache.Canonicalize(q, onto).Key; got != shape {
		t.Fatalf("fixture: the write changed the shape %q to %q", shape, got)
	}
	res4, err := tr.Translate(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res4.CacheOutcome != "miss" {
		t.Fatalf("after a write that changes a read: outcome = %q, want miss", res4.CacheOutcome)
	}
	if res4.DataEpoch != onto.Epoch() {
		t.Fatalf("refill carries epoch %d, store at %d", res4.DataEpoch, onto.Epoch())
	}
	if st := tr.Cache.Stats(); st.Stale != 1 {
		t.Errorf("stats %+v, want 1 stale drop", st)
	}
}

// TestFeedbackDropsOnlyThePlansItChanges is the feedback half of the
// cache contract: a recorded disambiguation choice is checked as a write
// is, by replaying each entry's logged reads, and no version is part of
// the key. With the corpus cached, "Buffalo" is answered with
// Buffalo,_IL. Exactly the questions whose cold translation now reads
// differently are dropped and refilled; every other one is served as a
// hit. Every result equals a cold translation under the new feedback,
// and the cache holds one entry per question, none of them unreachable.
func TestFeedbackDropsOnlyThePlansItChanges(t *testing.T) {
	onto := ontology.NewDemoOntology()
	tr := New(onto)
	tr.Cache = qcache.New(1024)
	cold := New(onto)
	cold.Generator.Feedback = tr.Generator.Feedback
	ctx := context.Background()
	questions := corpus.All()

	reads := map[string]any{} // question -> its generator reads before the choice
	for _, q := range questions {
		res, err := tr.Translate(ctx, q.Text, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheOutcome != "miss" {
			t.Fatalf("%s: first translation %q, want miss", q.ID, res.CacheOutcome)
		}
		reads[q.Text] = generatorReads(res)
	}
	tr.Generator.Feedback.Record("Buffalo", ontology.E("Buffalo,_IL"))

	changed := 0
	for _, q := range questions {
		want, err := cold.Translate(ctx, q.Text, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.Translate(ctx, q.Text, Options{})
		if err != nil {
			t.Fatal(err)
		}
		outcome := "hit"
		if !reflect.DeepEqual(reads[q.Text], generatorReads(want)) {
			outcome = "miss"
			changed++
		}
		if got.CacheOutcome != outcome {
			t.Errorf("%s: served %q after the choice, want %q", q.ID, got.CacheOutcome, outcome)
		}
		compareResults(t, q.ID+"/"+got.CacheOutcome, want, got)
	}
	st := tr.Cache.Stats()
	t.Logf("%d of %d questions read differently after the choice; cache %+v", changed, len(questions), st)
	if changed == 0 || changed == len(questions) {
		t.Fatalf("fixture: the choice changes %d of %d translations' reads", changed, len(questions))
	}
	if st.Stale != uint64(changed) || st.Entries != len(questions) {
		t.Errorf("stats %+v, want %d stale drops and %d entries", st, changed, len(questions))
	}
	// Hits count what was served: the re-requests that hold, not the
	// lookups that found an entry.
	if st.Hits != uint64(len(questions)-changed) {
		t.Errorf("stats %+v, want %d hits", st, len(questions)-changed)
	}
}

// generatorReads is a result's logged ontology and feedback reads (nil
// for an unsupported question).
func generatorReads(res *Result) any {
	if res.General == nil {
		return nil
	}
	return res.General.Reads
}

// TestAliasInvalidatesCachedPlans: an Alias registration publishes no
// store epoch, yet it can change what a lookup returns. The cached plan
// must be checked against the view the alias produced, not trusted for
// having been confirmed at the same data epoch.
func TestAliasInvalidatesCachedPlans(t *testing.T) {
	onto := ontology.NewDemoOntology()
	tr := New(onto)
	tr.Cache = qcache.New(16)
	ctx := context.Background()
	const q = "Where do families eat near Delaware Park?"
	for _, want := range []string{"miss", "hit"} {
		res, err := tr.Translate(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheOutcome != want {
			t.Fatalf("outcome = %q, want %q", res.CacheOutcome, want)
		}
	}
	epoch := onto.Epoch()
	onto.Alias(ontology.E("Alias_Park"), "Alias Park")
	res, err := tr.Translate(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheOutcome != "miss" || res.DataEpoch != epoch {
		t.Fatalf("after the alias: %s at epoch %d, want a miss at epoch %d", res.CacheOutcome, res.DataEpoch, epoch)
	}
}

// TestRelationInvalidatesCachedPlans: a relation lemma registered after
// a question was cached can change its translation ("beside" becomes
// the near relation), so the generator's relation lookups are replayed
// like its entity lookups. The next request drops the entry and
// translates cold.
func TestRelationInvalidatesCachedPlans(t *testing.T) {
	onto := ontology.NewDemoOntology()
	tr := New(onto)
	tr.Cache = qcache.New(16)
	ctx := context.Background()
	const q = "Which hotels are beside Delaware Park?"
	var before *Result
	for _, want := range []string{"miss", "hit"} {
		res, err := tr.Translate(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheOutcome != want {
			t.Fatalf("outcome = %q, want %q", res.CacheOutcome, want)
		}
		before = res
	}
	onto.AddRelation(ontology.PredNear, "beside")
	got, err := tr.Translate(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(onto).Translate(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Query.String() == before.Query.String() {
		t.Fatal("fixture: the lemma does not change the translation")
	}
	if got.CacheOutcome != "miss" || got.Query.String() != want.Query.String() {
		t.Errorf("after the lemma: %s, query\n%s\nwant a miss, query\n%s", got.CacheOutcome, got.Query, want.Query)
	}
	if st := tr.Cache.Stats(); st.Stale != 1 {
		t.Errorf("stats %+v, want 1 stale drop", st)
	}
}

// TestRegistrationsRaceCachedTranslations runs one goroutine that
// registers aliases and relation lemmas, flipping "beside" between two
// predicates, while eight translate through one plan cache; run it with
// -race. Each finished translation lets the writer make one more
// registration, so registrations land among the translations; once the
// readers are done, every question is served as a cold translation
// gives it.
func TestRegistrationsRaceCachedTranslations(t *testing.T) {
	questions := []string{
		"Which hotels are beside Delaware Park?",
		"Where do families eat near Delaware Park?",
		"Which parks are in Buffalo?",
		"What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?",
	}
	onto := ontology.NewDemoOntology()
	tr := New(onto)
	tr.Cache = qcache.New(64)
	ctx := context.Background()
	const readers, reads = 8, 30
	tick, stop := make(chan struct{}, 1), make(chan struct{})
	var writer, wg sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		preds := []rdf.Term{ontology.PredNear, ontology.PredLocatedIn}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick:
			}
			if i%2 == 0 {
				onto.Alias(ontology.E("Delaware_Park"), fmt.Sprintf("Park Alias %d", i))
			} else {
				onto.AddRelation(preds[i/2%2], "beside")
			}
		}
	}()
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if _, err := tr.Translate(ctx, questions[(r+i)%len(questions)], Options{}); err != nil {
					t.Error(err)
					return
				}
				select {
				case tick <- struct{}{}:
				default: // the writer has a registration pending already
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	for _, q := range questions {
		got, err := tr.Translate(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(onto).Translate(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Query.String() != want.Query.String() {
			t.Errorf("%q served %s:\n%s\nwant:\n%s", q, got.CacheOutcome, got.Query, want.Query)
		}
	}
	t.Logf("cache %+v", tr.Cache.Stats())
}

// TestTranslationReadsOneEpoch lands a batch while a translation runs,
// at the start of its generator stage. The batch makes Buffalo,_WY the
// best-connected Buffalo. The translation must equal the cold
// translation at the epoch it reports, and the next request must drop
// its cache entry and equal the cold translation after the batch.
func TestTranslationReadsOneEpoch(t *testing.T) {
	ctx := context.Background()
	const q = "Where should we eat in Buffalo?"
	batch := rdf.Batch{}
	for i := 0; i < 200; i++ {
		batch.Insert = append(batch.Insert, rdf.T(ontology.E("Buffalo,_WY"), ontology.PredNear,
			ontology.E(fmt.Sprintf("WY_Place_%d", i))))
	}
	cold := func(write bool) *Result {
		onto := ontology.NewDemoOntology()
		onto.Snapshot() // publish the construction epoch first
		if write {
			apply(t, onto, batch)
		}
		res, err := New(onto).Translate(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	before, after := cold(false), cold(true)
	if before.Query.String() == after.Query.String() {
		t.Fatal("fixture: the batch does not change the translation")
	}

	onto := ontology.NewDemoOntology()
	tr := New(onto)
	tr.Cache = qcache.New(16)
	var once sync.Once
	obs := stageStarts(func(stage string) {
		if stage == StageGenerator {
			once.Do(func() { apply(t, onto, batch) })
		}
	})
	got, err := tr.Translate(ctx, q, Options{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if got.DataEpoch != before.DataEpoch || got.Query.String() != before.Query.String() {
		t.Errorf("mid-translation write: epoch %d, query\n%s\nwant epoch %d, query\n%s",
			got.DataEpoch, got.Query, before.DataEpoch, before.Query)
	}
	next, err := tr.Translate(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if next.CacheOutcome != "miss" || next.DataEpoch != after.DataEpoch || next.Query.String() != after.Query.String() {
		t.Errorf("next request: %s at epoch %d, query\n%s\nwant a miss at epoch %d, query\n%s",
			next.CacheOutcome, next.DataEpoch, next.Query, after.DataEpoch, after.Query)
	}
	if st := tr.Cache.Stats(); st.Stale != 1 {
		t.Errorf("stats %+v, want 1 stale drop", st)
	}
}

// TestFeedbackRecordedMidFillReplaysNextRequest records a Buffalo
// choice while a fill runs, at the start of its Individual Triple
// Creation stage, after the generator has ranked the Buffalos under the
// old feedback. The fill must equal the cold translation before the
// choice. The entry carries the feedback version read before the fill,
// not after it, so the next request replays it, drops it and equals the
// cold translation after the choice.
func TestFeedbackRecordedMidFillReplaysNextRequest(t *testing.T) {
	ctx := context.Background()
	const q = "Where should we eat in Buffalo?"
	onto := ontology.NewDemoOntology()
	choose := func(tr *Translator) { tr.Generator.Feedback.Record("Buffalo", ontology.E("Buffalo,_IL")) }
	cold := func(chosen bool) *Result {
		tr := New(onto)
		if chosen {
			choose(tr)
		}
		res, err := tr.Translate(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	before, after := cold(false), cold(true)
	if before.Query.String() == after.Query.String() {
		t.Fatal("fixture: the choice does not change the translation")
	}

	tr := New(onto)
	tr.Cache = qcache.New(16)
	var once sync.Once
	obs := stageStarts(func(stage string) {
		if stage == StageIndividual {
			once.Do(func() { choose(tr) })
		}
	})
	got, err := tr.Translate(ctx, q, Options{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheOutcome != "miss" || got.Query.String() != before.Query.String() {
		t.Errorf("mid-fill choice: %s, query\n%s\nwant a miss, query\n%s", got.CacheOutcome, got.Query, before.Query)
	}
	next, err := tr.Translate(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if next.CacheOutcome != "miss" || next.Query.String() != after.Query.String() {
		t.Errorf("next request: %s, query\n%s\nwant a miss, query\n%s", next.CacheOutcome, next.Query, after.Query)
	}
	if st := tr.Cache.Stats(); st.Stale != 1 {
		t.Errorf("stats %+v, want 1 stale drop", st)
	}
}

// stageStarts adapts a start-of-stage callback to the Observer
// interface.
type stageStarts func(stage string)

func (f stageStarts) StageStart(stage string)             { f(stage) }
func (stageStarts) StageEnd(string, time.Duration, error) {}

// apply lands one store batch or fails the test.
func apply(t *testing.T, onto *ontology.Ontology, b rdf.Batch) {
	t.Helper()
	if _, _, _, err := onto.Store.Apply(b); err != nil {
		t.Fatal(err)
	}
}

// TestDeletedEntityNeverResurrectedFromCache caches a plan whose shape
// slot binds an entity, deletes that entity's label in a newer epoch,
// and asserts no cache-served path re-binds to the dead term: the
// follow-up translation runs cold against the new epoch, where the
// phrase no longer resolves to the deleted entity.
func TestDeletedEntityNeverResurrectedFromCache(t *testing.T) {
	onto := ontology.NewDemoOntology()
	tr := New(onto)
	tr.Cache = qcache.New(64)
	ctx := context.Background()
	park := ontology.E("Delaware_Park")
	const q = "Which restaurants are near Delaware Park?"

	res1, err := tr.Translate(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.CacheOutcome != "miss" {
		t.Fatalf("first translation outcome = %q, want miss", res1.CacheOutcome)
	}
	refersTo := func(res *Result, term rdf.Term) bool {
		if res.Plan == nil {
			return false
		}
		for _, p := range res.Plan.Where {
			if p.Triple.S.Equal(term) || p.Triple.O.Equal(term) {
				return true
			}
		}
		return false
	}
	if !refersTo(res1, park) {
		t.Skipf("fixture drift: plan does not bind %v", park)
	}

	if _, removed, _, err := onto.Store.Apply(rdf.Batch{Delete: []rdf.Triple{
		rdf.T(park, ontology.PredLabel, rdf.NewLiteral("Delaware Park")),
	}}); err != nil || removed != 1 {
		t.Fatalf("Apply delete = %d, %v", removed, err)
	}

	res2, err := tr.Translate(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheOutcome == "hit" || res2.CacheOutcome == "rebound" {
		t.Fatalf("outcome = %q after entity deletion, want a cold path", res2.CacheOutcome)
	}
	if refersTo(res2, park) {
		t.Fatalf("deleted entity %v resurrected in post-delete plan", park)
	}
}
