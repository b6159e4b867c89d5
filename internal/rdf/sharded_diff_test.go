package rdf

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveStore is the differential oracle: a slice of the live triples,
// scanned in full for every operation. It shares no index code with
// shardData.
type naiveStore []Triple

func (n *naiveStore) add(t Triple) bool {
	for _, x := range *n {
		if x == t {
			return false
		}
	}
	*n = append(*n, t)
	return true
}

func (n *naiveStore) remove(t Triple) bool {
	for i, x := range *n {
		if x == t {
			*n = append((*n)[:i], (*n)[i+1:]...)
			return true
		}
	}
	return false
}

func (n naiveStore) match(p Triple) []Triple {
	hit := func(pt, t Term) bool { return pt.IsVar() || pt == t }
	var out []Triple
	for _, t := range n {
		if hit(p.S, t.S) && hit(p.P, t.P) && hit(p.O, t.O) {
			out = append(out, t)
		}
	}
	return out
}

// TestShardedDifferentialOracle pins the sharded store against the
// naive oracle: the same randomized add/remove history is applied to
// stores of 1, 2, 4 and 8 shards and to the oracle, then every
// bound-position combination is probed with randomized patterns, and
// Match (as a set; order is unspecified), CountMatch, Contains and Len
// must agree exactly.
func TestShardedDifferentialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	term := func(prefix string, n int) Term {
		return NewIRI(fmt.Sprintf("http://ex.org/%s%d", prefix, rng.Intn(n)))
	}
	randTriple := func() Triple {
		return T(term("s", 40), term("p", 6), term("o", 25))
	}

	for round := 0; round < 20; round++ {
		var oracle naiveStore
		stores := []*ShardedStore{NewShardedStore(1), NewShardedStore(2), NewShardedStore(4), NewShardedStore(8)}
		for op := 0; op < 400; op++ {
			switch {
			case rng.Intn(4) == 0 && len(oracle) > 0:
				// Remove a live triple, or now and then a random one
				// that is most likely absent.
				tr := oracle[rng.Intn(len(oracle))]
				if rng.Intn(4) == 0 {
					tr = randTriple()
				}
				want := oracle.remove(tr)
				for _, st := range stores {
					if got := st.Remove(tr); got != want {
						t.Fatalf("round %d op %d shards=%d: Remove(%v) = %v, oracle %v", round, op, st.NumShards(), tr, got, want)
					}
				}
			default:
				tr := randTriple()
				want := oracle.add(tr)
				for _, st := range stores {
					if got, _ := st.Add(tr); got != want {
						t.Fatalf("round %d op %d shards=%d: Add(%v) = %v, oracle %v", round, op, st.NumShards(), tr, got, want)
					}
				}
			}
		}

		for _, st := range stores {
			snap := st.Snapshot()
			if snap.Len() != len(oracle) {
				t.Fatalf("round %d shards=%d: Len = %d, oracle %d", round, st.NumShards(), snap.Len(), len(oracle))
			}
			// All 8 bound-position combinations, with terms drawn from
			// the live alphabet (so some patterns hit, some miss) plus
			// an always-unknown term.
			for probe := 0; probe < 200; probe++ {
				s, p, o := NewVar("s"), NewVar("p"), NewVar("o")
				if probe&1 != 0 {
					s = term("s", 41)
				}
				if probe&2 != 0 {
					p = term("p", 7)
				}
				if probe&4 != 0 {
					o = term("o", 26)
				}
				pat := T(s, p, o)
				want := oracle.match(pat)
				if got := snap.CountMatch(pat); got != len(want) {
					t.Fatalf("round %d shards=%d: CountMatch(%v) = %d, oracle %d", round, st.NumShards(), pat, got, len(want))
				}
				if pat.IsGround() {
					if got := snap.Contains(pat); got != (len(want) == 1) {
						t.Fatalf("round %d shards=%d: Contains(%v) = %v, oracle %v", round, st.NumShards(), pat, got, len(want) == 1)
					}
				}
				got := snap.Match(pat)
				SortTriples(got)
				SortTriples(want)
				if len(got) != len(want) {
					t.Fatalf("round %d shards=%d: Match(%v) = %d results, oracle %d", round, st.NumShards(), pat, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("round %d shards=%d: Match(%v)[%d] = %v, oracle %v", round, st.NumShards(), pat, i, got[i], want[i])
					}
				}
			}
		}
	}
}
