package rdf

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentInternAndRead hammers a Dict with concurrent interning,
// lookups and snapshot-based reads. Run under -race this exercises the
// append-only snapshot contract: entries visible through a snapshot are
// immutable, and appends beyond its length touch memory the snapshot
// cannot reach.
func TestConcurrentInternAndRead(t *testing.T) {
	d := NewDict()
	const (
		workers = 8
		terms   = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < terms; i++ {
				// Half the term space is shared across workers, so the
				// same term races to be interned by several goroutines.
				var t Term
				if i%2 == 0 {
					t = NewIRI(fmt.Sprintf("shared-%d", i))
				} else {
					t = NewIRI(fmt.Sprintf("own-%d-%d", w, i))
				}
				id := d.Intern(t)
				if got := d.TermOf(id); !got.Equal(t) {
					panic(fmt.Sprintf("TermOf(%d) = %v, want %v", id, got, t))
				}
				if lid, ok := d.Lookup(t); !ok || lid != id {
					panic(fmt.Sprintf("Lookup(%v) = %d,%v want %d", t, lid, ok, id))
				}
			}
		}(w)
	}
	wg.Wait()
	// Every shared term interned exactly once.
	want := workers*terms/2 + terms/2
	if d.Len() != want {
		t.Fatalf("Dict.Len() = %d, want %d", d.Len(), want)
	}
}

// TestConcurrentStoreWritesAndMatches interleaves single Add/Remove
// calls with the store's own read methods from many goroutines: every
// read may publish the pending writes while other writers buffer more,
// so under -race this must be clean.
func TestConcurrentStoreWritesAndMatches(t *testing.T) {
	s := NewShardedStore(0)
	pred := NewIRI("p")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.MustAdd(T(NewIRI(fmt.Sprintf("s%d-%d", w, i)), pred, NewIRI(fmt.Sprintf("o%d", i%10))))
				if i%3 == 0 {
					s.Remove(T(NewIRI(fmt.Sprintf("s%d-%d", w, i-3)), pred, NewIRI(fmt.Sprintf("o%d", (i-3)%10))))
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 0
				s.Snapshot().MatchFunc(T(NewVar("s"), pred, NewIRI(fmt.Sprintf("o%d", i%10))), func(Triple) bool {
					n++
					return true
				})
				if c := s.Snapshot().CountMatch(T(NewVar("s"), pred, NewVar("o"))); c < 0 {
					t.Errorf("negative count %d", c)
				}
				_ = s.Snapshot().Len()
			}
		}()
	}
	wg.Wait()
}
