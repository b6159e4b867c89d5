package nl2cm

// Ontology-scale benchmarks for the SPARQL/RDF data plane: multi-pattern
// join planning (P8), lookup + evaluation at 10k/100k triples (P9), and
// grouped aggregation over a full scan (P10). EXPERIMENTS.md records
// before/after numbers for the interned-store and planner rewrite.

import (
	"context"
	"fmt"
	"testing"

	"nl2cm/internal/ontology"
	"nl2cm/internal/qgen"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// synthFor returns a synthetic ontology sized to approximately the given
// triple count (the generator emits ~4 triples per entity).
func synthFor(triples int) *ontology.Ontology {
	return ontology.NewSynthetic(triples / 4)
}

// class7NearQuery is the two-pattern join of P9 and P12: the members of
// one synthetic class and everything near them.
func class7NearQuery() *sparql.Query {
	return &sparql.Query{Where: []rdf.Triple{
		rdf.T(rdf.NewVar("x"), ontology.PredInstanceOf, ontology.E("class7")),
		rdf.T(rdf.NewVar("x"), ontology.PredNear, rdf.NewVar("y")),
	}, Limit: -1}
}

// BenchmarkP8_JoinPlan measures a three-pattern BGP join where the
// selective pattern (richIn appears on 1% of entities) is written last:
// a cardinality-driven planner starts from it, while the unbound-variable
// heuristic starts from the first, far larger pattern.
func BenchmarkP8_JoinPlan(b *testing.B) {
	for _, triples := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("triples=%d", triples), func(b *testing.B) {
			onto := synthFor(triples)
			q := &sparql.Query{Where: []rdf.Triple{
				rdf.T(rdf.NewVar("x"), ontology.PredNear, rdf.NewVar("y")),
				rdf.T(rdf.NewVar("y"), ontology.PredInstanceOf, ontology.E("class3")),
				rdf.T(rdf.NewVar("x"), ontology.PredRichIn, rdf.NewVar("z")),
			}, Limit: -1}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := sparql.Eval(ctx, q, onto.Store.Snapshot())
				if err != nil || len(rows) == 0 {
					b.Fatalf("join failed: %v (%d rows)", err, len(rows))
				}
			}
		})
	}
}

// BenchmarkP9_ScaleLookup measures the qgen hot path at ontology scale:
// a feedback-ranked label lookup (which probes entity degree via
// CountMatch) followed by a two-pattern Eval over the store.
func BenchmarkP9_ScaleLookup(b *testing.B) {
	for _, triples := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("triples=%d", triples), func(b *testing.B) {
			onto := synthFor(triples)
			gen := qgen.New()
			q := class7NearQuery()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands := gen.RankCandidates(onto.View(), "entity 42")
				if len(cands) == 0 {
					b.Fatal("lookup found nothing")
				}
				rows, err := sparql.Eval(ctx, q, onto.Store.Snapshot())
				if err != nil || len(rows) == 0 {
					b.Fatalf("eval failed: %v (%d rows)", err, len(rows))
				}
			}
		})
	}
}

// BenchmarkP12_SnapshotRead prices the sharded store's read path: the
// same two-pattern join evaluated against a published snapshot of one
// shard and of the default 16 shards holding identical triples. The
// acceptance bar is 16-shard reads within ~10% of one shard — the
// per-pattern cost added by sharding is one hash and, for
// subject-unbound patterns, a loop over (mostly empty) shards.
func BenchmarkP12_SnapshotRead(b *testing.B) {
	for _, triples := range []int{10_000, 100_000} {
		onto := synthFor(triples)
		snap := onto.Snapshot()
		one := rdf.NewShardedStore(1)
		if _, _, _, err := one.Apply(rdf.Batch{Insert: snap.All()}); err != nil {
			b.Fatal(err)
		}
		q := class7NearQuery()
		ctx := context.Background()
		for _, src := range []struct {
			name string
			s    sparql.Source
		}{{"shards=1", one.Snapshot()}, {fmt.Sprintf("shards=%d", onto.Store.NumShards()), snap}} {
			b.Run(fmt.Sprintf("%s/triples=%d", src.name, triples), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rows, err := sparql.Eval(ctx, q, src.s)
					if err != nil || len(rows) == 0 {
						b.Fatalf("eval failed: %v (%d rows)", err, len(rows))
					}
				}
			})
		}
	}
}

// BenchmarkP10_GroupBy measures the analytic path the superlative
// questions take: a grouped COUNT over every near-edge in the store,
// ordered descending on the alias with LIMIT 1 — the "which group is
// biggest" plan shape, dominated by grouping and the typed sort.
func BenchmarkP10_GroupBy(b *testing.B) {
	for _, triples := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("triples=%d", triples), func(b *testing.B) {
			onto := synthFor(triples)
			q := &sparql.Query{
				Where:   []rdf.Triple{rdf.T(rdf.NewVar("x"), ontology.PredNear, rdf.NewVar("y"))},
				GroupBy: []string{"y"},
				Aggs:    []sparql.Aggregate{{Var: "x", As: "n"}},
				OrderBy: []sparql.OrderKey{{Var: "n", Desc: true}},
				Limit:   1,
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := sparql.Eval(ctx, q, onto.Store.Snapshot())
				if err != nil || len(rows) != 1 {
					b.Fatalf("group-by failed: %v (%d rows)", err, len(rows))
				}
			}
		})
	}
}
