package ontology

import (
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"nl2cm/internal/rdf"
)

// refIndex is the derived-index builder in its original quadratic form,
// kept as the oracle: every insert scans its whole posting list.
func refIndex(o *Ontology) *View {
	snap := o.Store.Snapshot()
	d := &View{
		labels:  map[string][]rdf.Term{},
		words:   map[string][]rdf.Term{},
		primary: map[rdf.Term]string{},
	}
	appendUnique := func(ts []rdf.Term, t rdf.Term) []rdf.Term {
		for _, x := range ts {
			if x.Equal(t) {
				return ts
			}
		}
		return append(ts, t)
	}
	index := func(label string, term rdf.Term) {
		key := normalize(label)
		d.labels[key] = appendUnique(d.labels[key], term)
		d.maxKey = max(d.maxKey, len(key))
		words := strings.Fields(key)
		if len(words) > 1 {
			for _, w := range words {
				if len(w) > 2 {
					d.words[w] = appendUnique(d.words[w], term)
				}
			}
		}
	}
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
	for _, l := range lbls {
		index(l.label, l.term)
		if prev, ok := d.primary[l.term]; !ok || l.label < prev {
			d.primary[l.term] = l.label
		}
	}
	for _, a := range o.reg.Load().aliases {
		index(a.label, a.term)
	}
	return d
}

// The linear rebuild builds exactly the oracle's postings — same terms,
// same first-occurrence order — and the same primary labels, on the
// demo ontology (whose aliases and comma-variant labels put repeats
// apart from their first occurrence) and on a synthetic one whose label
// words each span thousands of entities.
func TestRebuildMatchesQuadraticOracle(t *testing.T) {
	demo := NewDemoOntology()
	// A repeat that lands past the scan limit: an alias for an entity
	// already listed under a word more than scanMax entities share.
	synth := NewSynthetic(2000)
	synth.Alias(E("entity3"), "entity zero")
	for name, o := range map[string]*Ontology{"demo": demo, "synthetic": synth} {
		got, want := o.View(), refIndex(o)
		if !reflect.DeepEqual(got.labels, want.labels) {
			t.Errorf("%s: labels differ from the oracle", name)
		}
		if !reflect.DeepEqual(got.words, want.words) {
			t.Errorf("%s: words differ from the oracle", name)
		}
		if !reflect.DeepEqual(got.primary, want.primary) {
			t.Errorf("%s: primary labels differ from the oracle", name)
		}
		if got.maxKey != want.maxKey {
			t.Errorf("%s: maxKey %d, oracle %d", name, got.maxKey, want.maxKey)
		}
	}
}

// The rebuild is linear in the entity count: ten times the entities
// must cost under thirty times the time, where the quadratic builder
// took about eighty. Each size reports its fastest of five rebuilds,
// each started after a collection, to keep scheduling noise out.
func TestRebuildScalesLinearly(t *testing.T) {
	rebuild := func(n int) time.Duration {
		o := NewSynthetic(n)
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			o.reg.Store(o.reg.Load().clone()) // a new registry invalidates the current view
			runtime.GC()
			start := time.Now()
			o.View()
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := rebuild(2000), rebuild(20000)
	if large >= 30*small {
		t.Errorf("rebuild at 20,000 entities took %v, %.0f× the %v at 2,000; want under 30×", large, float64(large)/float64(small), small)
	}
	t.Logf("rebuild: 2,000 entities %v, 20,000 entities %v (%.1f×)", small, large, float64(large)/float64(small))
}
