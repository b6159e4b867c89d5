package rdf

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// renderAll returns a canonical string rendering of every triple a
// snapshot can see, used to assert byte-identical reads across
// concurrent publishes.
func renderAll(sn *Snapshot) string {
	ts := sn.All()
	SortTriples(ts)
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "%v\n", t)
	}
	return b.String()
}

// TestShardedSnapshotStableUnderConcurrentPublish is the epoch-publish
// stress test: writers keep applying batches (publishing new epochs)
// while readers hold old snapshots; each reader renders its snapshot
// before and during the write storm and the bytes must be identical.
// Run under -race it also proves publication is properly synchronized.
func TestShardedSnapshotStableUnderConcurrentPublish(t *testing.T) {
	st := NewShardedStore(8)
	for _, tr := range shardedTriples(200) {
		st.MustAdd(tr)
	}

	const (
		writers        = 4
		readers        = 8
		batchesEach    = 50
		readsPerReader = 30
	)
	var wg sync.WaitGroup
	start := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < batchesEach; i++ {
				ins := T(iri(fmt.Sprintf("w%d-s%d", w, i)), iri("p"), iri(fmt.Sprintf("w%d-o%d", w, i)))
				del := T(iri(fmt.Sprintf("w%d-s%d", w, i-5)), iri("p"), iri(fmt.Sprintf("w%d-o%d", w, i-5)))
				if _, _, _, err := st.Apply(Batch{Insert: []Triple{ins}, Delete: []Triple{del}}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < readsPerReader; i++ {
				snap := st.Snapshot()
				before := renderAll(snap)
				cnt := snap.CountMatch(T(NewVar("s"), iri("p"), NewVar("o")))
				// Publishes land between these two renders; the held
				// snapshot must not move.
				after := renderAll(snap)
				if before != after {
					errs <- fmt.Sprintf("reader %d: snapshot epoch %d changed under publish", r, snap.Epoch())
					return
				}
				if cnt2 := snap.CountMatch(T(NewVar("s"), iri("p"), NewVar("o"))); cnt2 != cnt {
					errs <- fmt.Sprintf("reader %d: CountMatch moved %d -> %d within one snapshot", r, cnt, cnt2)
					return
				}
			}
		}(r)
	}

	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Epochs advanced and the final state is internally consistent.
	if st.Epoch() == 0 {
		t.Fatal("no epochs published")
	}
	sizes := st.ShardSizes()
	sum := 0
	for _, n := range sizes {
		sum += n
	}
	if sum != st.Snapshot().Len() {
		t.Fatalf("shard sizes sum %d != Len %d", sum, st.Snapshot().Len())
	}
}

// TestShardedOldSnapshotSurvivesDeleteAll holds a snapshot, deletes
// every triple through many epochs, and verifies the held snapshot
// still serves its full original contents byte-identically.
func TestShardedOldSnapshotSurvivesDeleteAll(t *testing.T) {
	st := NewShardedStore(4)
	trips := shardedTriples(300)
	for _, tr := range trips {
		st.MustAdd(tr)
	}
	snap := st.Snapshot()
	want := renderAll(snap)

	// Delete in many small batches so plenty of epochs are published
	// while the snapshot is held.
	sort.Slice(trips, func(i, j int) bool { return trips[i].String() < trips[j].String() })
	for i := 0; i < len(trips); i += 10 {
		end := i + 10
		if end > len(trips) {
			end = len(trips)
		}
		if _, _, _, err := st.Apply(Batch{Delete: trips[i:end]}); err != nil {
			t.Fatal(err)
		}
	}
	if st.Snapshot().Len() != 0 {
		t.Fatalf("store not emptied: Len=%d", st.Snapshot().Len())
	}
	if got := renderAll(snap); got != want {
		t.Fatal("held snapshot changed after delete-all epochs")
	}
	if snap.Len() != 300 {
		t.Fatalf("held snapshot Len = %d, want 300", snap.Len())
	}
}
