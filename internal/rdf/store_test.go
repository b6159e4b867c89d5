package rdf

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func iri(s string) Term { return NewIRI("http://ex.org/" + s) }

// storeShardCounts are the shard counts the store tests run against:
// one shard, where every pattern shape reads a single index set, and
// the default, where subject-unbound shapes fan out across shards.
var storeShardCounts = []int{1, DefaultShards}

func TestStoreAddContainsRemove(t *testing.T) {
	for _, shards := range storeShardCounts {
		s := NewShardedStore(shards)
		tr := T(iri("delaware_park"), iri("instanceOf"), iri("Place"))
		added, err := s.Add(tr)
		if err != nil || !added {
			t.Fatalf("shards=%d: Add = %v, %v; want true, nil", shards, added, err)
		}
		if !s.Snapshot().Contains(tr) {
			t.Fatalf("shards=%d: Contains after Add = false", shards)
		}
		if s.Snapshot().Len() != 1 {
			t.Fatalf("shards=%d: Len = %d, want 1", shards, s.Snapshot().Len())
		}
		// Duplicate insert is a no-op.
		added, err = s.Add(tr)
		if err != nil || added {
			t.Fatalf("shards=%d: duplicate Add = %v, %v; want false, nil", shards, added, err)
		}
		if s.Snapshot().Len() != 1 {
			t.Fatalf("shards=%d: Len after dup = %d, want 1", shards, s.Snapshot().Len())
		}
		if !s.Remove(tr) {
			t.Fatalf("shards=%d: Remove = false, want true", shards)
		}
		if s.Snapshot().Contains(tr) || s.Snapshot().Len() != 0 {
			t.Fatalf("shards=%d: triple still present after Remove", shards)
		}
		if s.Remove(tr) {
			t.Fatalf("shards=%d: second Remove = true, want false", shards)
		}
	}
}

// TestStoreRejectsNonGround: Add refuses a triple with a variable or
// with the zero Term (which callers use to mean "no term") in any
// position, and buffers nothing.
func TestStoreRejectsNonGround(t *testing.T) {
	s := NewShardedStore(0)
	for _, tr := range []Triple{
		T(NewVar("x"), iri("p"), iri("o")),
		T(iri("s"), iri("p"), NewVar("x")),
		T(Term{}, iri("p"), iri("o")),
		T(iri("s"), Term{}, iri("o")),
		T(iri("s"), iri("p"), Term{}),
	} {
		if _, err := s.Add(tr); err == nil {
			t.Errorf("Add(%v) succeeded, want error", tr)
		}
	}
	if s.Snapshot().Len() != 0 || s.Epoch() != 0 {
		t.Fatalf("rejected adds leaked state: Len=%d Epoch=%d", s.Snapshot().Len(), s.Epoch())
	}
}

// buildTestStore populates a store with a small mixed dataset.
func buildTestStore(shards int) *ShardedStore {
	s := NewShardedStore(shards)
	s.AddTriple(iri("park"), iri("instanceOf"), iri("Place"))
	s.AddTriple(iri("zoo"), iri("instanceOf"), iri("Place"))
	s.AddTriple(iri("hotel"), iri("instanceOf"), iri("Hotel"))
	s.AddTriple(iri("park"), iri("near"), iri("hotel"))
	s.AddTriple(iri("zoo"), iri("near"), iri("hotel"))
	s.AddTriple(iri("park"), iri("label"), NewLiteral("Delaware Park"))
	return s
}

func TestStoreMatchPatterns(t *testing.T) {
	v := NewVar
	cases := []struct {
		name    string
		pattern Triple
		want    int
	}{
		{"all", T(v("s"), v("p"), v("o")), 6},
		{"bound s", T(iri("park"), v("p"), v("o")), 3},
		{"bound p", T(v("s"), iri("instanceOf"), v("o")), 3},
		{"bound o", T(v("s"), v("p"), iri("hotel")), 2},
		{"bound sp", T(iri("park"), iri("near"), v("o")), 1},
		{"bound po", T(v("s"), iri("instanceOf"), iri("Place")), 2},
		{"bound so", T(iri("park"), v("p"), iri("hotel")), 1},
		{"ground hit", T(iri("zoo"), iri("near"), iri("hotel")), 1},
		{"ground miss", T(iri("zoo"), iri("near"), iri("park")), 0},
		{"no match", T(iri("nothing"), v("p"), v("o")), 0},
	}
	stores := map[int]*ShardedStore{}
	for _, shards := range storeShardCounts {
		stores[shards] = buildTestStore(shards)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, shards := range storeShardCounts {
				s := stores[shards]
				got := s.Snapshot().Match(c.pattern)
				if len(got) != c.want {
					t.Errorf("shards=%d: Match(%v) returned %d triples, want %d", shards, c.pattern, len(got), c.want)
				}
				for _, tr := range got {
					if !s.Snapshot().Contains(tr) {
						t.Errorf("shards=%d: Match returned triple not in store: %v", shards, tr)
					}
				}
				if n := s.Snapshot().CountMatch(c.pattern); n != c.want {
					t.Errorf("shards=%d: CountMatch = %d, want %d", shards, n, c.want)
				}
			}
		})
	}
}

func TestStoreMatchFuncEarlyStop(t *testing.T) {
	for _, shards := range storeShardCounts {
		s := buildTestStore(shards)
		n := 0
		s.Snapshot().MatchFunc(T(NewVar("s"), NewVar("p"), NewVar("o")), func(Triple) bool {
			n++
			return n < 2
		})
		if n != 2 {
			t.Fatalf("shards=%d: early stop visited %d triples, want 2", shards, n)
		}
	}
}

func TestStoreSubjectsObjects(t *testing.T) {
	for _, shards := range storeShardCounts {
		s := buildTestStore(shards)
		subs := s.Snapshot().Subjects(iri("instanceOf"), iri("Place"))
		if len(subs) != 2 {
			t.Fatalf("shards=%d: Subjects = %v, want 2 results", shards, subs)
		}
		objs := s.Snapshot().Objects(iri("park"), iri("near"))
		if len(objs) != 1 || objs[0] != iri("hotel") {
			t.Fatalf("shards=%d: Objects = %v, want [hotel]", shards, objs)
		}
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewShardedStore(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.AddTriple(iri(fmt.Sprintf("s%d_%d", w, i)), iri("p"), iri("o"))
				s.Snapshot().Match(T(NewVar("s"), iri("p"), NewVar("o")))
			}
		}(w)
	}
	wg.Wait()
	if s.Snapshot().Len() != 800 {
		t.Fatalf("Len = %d, want 800", s.Snapshot().Len())
	}
}

// Property: after inserting a random set of ground triples, Match with the
// full wildcard pattern returns exactly the distinct set.
func TestStoreMatchAllEqualsInserted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewShardedStore(1 << r.Intn(5))
		want := map[Triple]bool{}
		for i := 0; i < int(n%40); i++ {
			tr := T(
				iri(fmt.Sprintf("s%d", r.Intn(5))),
				iri(fmt.Sprintf("p%d", r.Intn(3))),
				iri(fmt.Sprintf("o%d", r.Intn(5))),
			)
			want[tr] = true
			s.MustAdd(tr)
		}
		got := s.All()
		if len(got) != len(want) {
			return false
		}
		for _, tr := range got {
			if !want[tr] {
				return false
			}
		}
		return s.Snapshot().Len() == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: removal truly removes and leaves all other triples intact.
func TestStoreRemovePreservesOthers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewShardedStore(1 << r.Intn(5))
		var all []Triple
		for i := 0; i < 20; i++ {
			tr := T(iri(fmt.Sprintf("s%d", r.Intn(6))), iri("p"), iri(fmt.Sprintf("o%d", r.Intn(6))))
			if ok, _ := s.Add(tr); ok {
				all = append(all, tr)
			}
		}
		if len(all) == 0 {
			return true
		}
		victim := all[r.Intn(len(all))]
		s.Remove(victim)
		if s.Snapshot().Contains(victim) {
			return false
		}
		for _, tr := range all {
			if tr != victim && !s.Snapshot().Contains(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStoreRemoveHeavyLenAndDictRetention drives the store through a
// remove-heavy churn cycle of single Remove calls, each published by
// the Len read that follows it: Len must track exactly through
// interleaved adds/removes, every index must agree after draining to
// empty, and the dictionary must retain all interned IDs (intentional:
// IDs are dense array indexes and are never reused).
func TestStoreRemoveHeavyLenAndDictRetention(t *testing.T) {
	s := NewShardedStore(0)
	var all []Triple
	for i := 0; i < 250; i++ {
		all = append(all, T(iri(fmt.Sprintf("s%d", i%50)), iri(fmt.Sprintf("p%d", i%5)), iri(fmt.Sprintf("o%d", i))))
	}
	for _, tr := range all {
		s.MustAdd(tr)
	}
	dictLen := s.Dict().Len()
	r := rand.New(rand.NewSource(7))
	live := append([]Triple(nil), all...)
	// Remove 80% in random order, spot-checking Len each step.
	for len(live) > 50 {
		i := r.Intn(len(live))
		victim := live[i]
		live = append(live[:i], live[i+1:]...)
		if !s.Remove(victim) {
			t.Fatalf("Remove(%v) = false for live triple", victim)
		}
		if s.Remove(victim) {
			t.Fatalf("double Remove(%v) = true", victim)
		}
		if s.Snapshot().Len() != len(live) {
			t.Fatalf("Len = %d, want %d", s.Snapshot().Len(), len(live))
		}
	}
	// The survivors are fully queryable through every index shape.
	for _, tr := range live {
		if !s.Snapshot().Contains(tr) {
			t.Fatalf("survivor missing: %v", tr)
		}
		if got := s.Snapshot().CountMatch(T(tr.S, tr.P, NewVar("o"))); got < 1 {
			t.Fatalf("CountMatch SP for %v = %d", tr, got)
		}
	}
	if got := s.Snapshot().CountMatch(T(NewVar("s"), NewVar("p"), NewVar("o"))); got != len(live) {
		t.Fatalf("CountMatch all = %d, want %d", got, len(live))
	}
	// Drain to empty, then rebuild: IDs are reused from the dict, not
	// reallocated.
	for _, tr := range live {
		s.Remove(tr)
	}
	if s.Snapshot().Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", s.Snapshot().Len())
	}
	if got := len(s.All()); got != 0 {
		t.Fatalf("All after drain = %d triples", got)
	}
	if s.Dict().Len() != dictLen {
		t.Fatalf("dict changed across removes: %d -> %d", dictLen, s.Dict().Len())
	}
	for _, tr := range all {
		s.MustAdd(tr)
	}
	if s.Snapshot().Len() != len(all) || s.Dict().Len() != dictLen {
		t.Fatalf("rebuild: Len=%d dict=%d, want %d, %d", s.Snapshot().Len(), s.Dict().Len(), len(all), dictLen)
	}
}

func TestTripleVars(t *testing.T) {
	tr := T(NewVar("x"), iri("p"), NewVar("x"))
	vars := tr.Vars()
	if len(vars) != 1 || vars[0] != "x" {
		t.Fatalf("Vars = %v, want [x]", vars)
	}
	if got := T(iri("a"), iri("b"), iri("c")).Vars(); got != nil {
		t.Fatalf("ground triple Vars = %v, want nil", got)
	}
}

func TestSortTriples(t *testing.T) {
	ts := []Triple{
		T(iri("b"), iri("p"), iri("o")),
		T(iri("a"), iri("q"), iri("o")),
		T(iri("a"), iri("p"), iri("o")),
	}
	SortTriples(ts)
	if ts[0].S != iri("a") || ts[0].P != iri("p") || ts[2].S != iri("b") {
		t.Fatalf("SortTriples order wrong: %v", ts)
	}
}
