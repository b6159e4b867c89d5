package emit

import (
	"context"
	"fmt"

	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// ExternalSource is the minimal contract a pluggable (non-RDF) store
// must satisfy for a plan's general WHERE clause to execute against it:
// enumerate every (s, p, o) row, stopping when the callback returns
// false. The Adapter supplies pattern matching and cardinality counting
// on top, so external stores need no query capabilities of their own —
// a table scan is enough.
type ExternalSource interface {
	Each(fn func(s, p, o rdf.Term) bool)
}

// Adapter lifts an ExternalSource into a sparql.Source, counting
// included, so the cardinality-driven join planner works; it lets the
// streaming evaluator run a plan's general part against any row-shaped
// store.
type Adapter struct {
	Ext ExternalSource
}

// MatchFunc implements sparql.Source by scanning the external rows and
// keeping those the pattern's concrete positions match.
func (a *Adapter) MatchFunc(pattern rdf.Triple, fn func(rdf.Triple) bool) {
	if a.Ext == nil {
		return
	}
	a.Ext.Each(func(s, p, o rdf.Term) bool {
		if pattern.S.IsConcrete() && !pattern.S.Equal(s) {
			return true
		}
		if pattern.P.IsConcrete() && !pattern.P.Equal(p) {
			return true
		}
		if pattern.O.IsConcrete() && !pattern.O.Equal(o) {
			return true
		}
		return fn(rdf.T(s, p, o))
	})
}

// CountMatch implements sparql.Source with an exact full-scan count.
func (a *Adapter) CountMatch(pattern rdf.Triple) int {
	n := 0
	a.MatchFunc(pattern, func(rdf.Triple) bool { n++; return true })
	return n
}

// MemTable is an in-memory (s, p, o) row table: the reference
// ExternalSource, used by the cross-backend differential tests as the
// SQL-style `triples` table, and a template for real adapters.
type MemTable struct {
	rows [][3]rdf.Term
}

// Add appends one row.
func (m *MemTable) Add(s, p, o rdf.Term) {
	m.rows = append(m.rows, [3]rdf.Term{s, p, o})
}

// Len returns the number of rows.
func (m *MemTable) Len() int { return len(m.rows) }

// Each implements ExternalSource.
func (m *MemTable) Each(fn func(s, p, o rdf.Term) bool) {
	for _, r := range m.rows {
		if !fn(r[0], r[1], r[2]) {
			return
		}
	}
}

// LoadMemTable copies every triple of a sparql.Source (for example an
// *rdf.Snapshot) into a fresh MemTable — the bulk-export path that stands
// in for an ETL into an external store.
func LoadMemTable(src sparql.Source) *MemTable {
	m := &MemTable{}
	all := rdf.T(rdf.NewVar("s"), rdf.NewVar("p"), rdf.NewVar("o"))
	src.MatchFunc(all, func(t rdf.Triple) bool {
		m.Add(t.S, t.P, t.O)
		return true
	})
	return m
}

// ExecuteWhere evaluates the plan's general part (WHERE patterns plus
// any analytic step: grouping, aggregates and the result window) against
// any source — the in-memory RDF store or an Adapter-wrapped external
// one — and returns the solution bindings.
func ExecuteWhere(p *Plan, src sparql.Source) ([]sparql.Binding, error) {
	if src == nil {
		return nil, fmt.Errorf("emit: nil source")
	}
	q := &sparql.Query{Where: p.WhereTriples(), Limit: -1}
	if p.Agg != nil {
		q.GroupBy = p.Agg.GroupBy
		q.Aggs = p.Agg.Aggs
		q.OrderBy = p.Agg.OrderBy
		if p.Agg.Limit > 0 {
			q.Limit = p.Agg.Limit
		}
	}
	return sparql.Eval(context.TODO(), q, src)
}
