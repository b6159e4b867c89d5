package emit

import (
	"sort"
	"strings"
	"testing"

	"nl2cm/internal/ontology"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// bindingMultiset renders bindings as a sorted multiset key, so two
// evaluations compare independent of row order.
func bindingMultiset(bs []sparql.Binding) string {
	keys := make([]string, len(bs))
	for i, b := range bs {
		var parts []string
		for v, t := range b {
			parts = append(parts, v+"="+t.String())
		}
		sort.Strings(parts)
		keys[i] = strings.Join(parts, ";")
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// synthPlans are general-part plans over the synthetic ontology's shape:
// class membership, near chains, located-in joins.
func synthPlans() []*Plan {
	x, y, z := rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("z")
	return []*Plan{
		{
			Select: Select{All: true},
			Where: []Pattern{
				{Triple: rdf.T(x, ontology.PredInstanceOf, ontology.E("class3"))},
			},
		},
		{
			Select: Select{All: true},
			Where: []Pattern{
				{Triple: rdf.T(x, ontology.PredInstanceOf, ontology.E("class1"))},
				{Triple: rdf.T(x, ontology.PredNear, y)},
			},
		},
		{
			Select: Select{All: true},
			Where: []Pattern{
				{Triple: rdf.T(x, ontology.PredNear, y)},
				{Triple: rdf.T(y, ontology.PredNear, z)},
				{Triple: rdf.T(x, ontology.PredLocatedIn, ontology.E("entity0"))},
			},
		},
		{
			Select: Select{All: true},
			Where: []Pattern{
				{Triple: rdf.T(x, ontology.PredRichIn, y)},
				{Triple: rdf.T(y, ontology.PredInstanceOf, z)},
			},
		},
	}
}

// The general WHERE clause must evaluate identically against the RDF
// store and against an external row table behind the Adapter: the
// cross-backend differential of the SQL emitter's plan, SQLite-free.
func TestExternalSourceMatchesRDFStore(t *testing.T) {
	onto := ontology.NewSynthetic(500)
	table := LoadMemTable(onto.Store.Snapshot())
	if table.Len() == 0 {
		t.Fatal("empty export")
	}
	ext := &Adapter{Ext: table}
	for i, p := range synthPlans() {
		// The plan must be expressible as SQL (the table the adapter
		// scans is exactly the emitted statement's `triples` table).
		if _, err := Emit("sql", p); err != nil {
			t.Errorf("plan %d: sql emit: %v", i, err)
			continue
		}
		rdfBindings, err := ExecuteWhere(p, onto.Store.Snapshot())
		if err != nil {
			t.Errorf("plan %d: rdf eval: %v", i, err)
			continue
		}
		extBindings, err := ExecuteWhere(p, ext)
		if err != nil {
			t.Errorf("plan %d: external eval: %v", i, err)
			continue
		}
		if len(rdfBindings) == 0 {
			t.Errorf("plan %d: no bindings from the RDF store (weak test)", i)
		}
		if got, want := bindingMultiset(extBindings), bindingMultiset(rdfBindings); got != want {
			t.Errorf("plan %d: external source diverges from RDF store\nexternal (%d rows)\nrdf (%d rows)",
				i, len(extBindings), len(rdfBindings))
		}
	}
}

func TestAdapterCountMatch(t *testing.T) {
	m := &MemTable{}
	a, b := rdf.NewIRI("urn:a"), rdf.NewIRI("urn:b")
	p := rdf.NewIRI("urn:p")
	m.Add(a, p, b)
	m.Add(b, p, a)
	m.Add(a, p, a)
	ad := &Adapter{Ext: m}
	if n := ad.CountMatch(rdf.T(a, rdf.NewVar("p"), rdf.NewVar("o"))); n != 2 {
		t.Errorf("CountMatch(a ? ?) = %d, want 2", n)
	}
	if n := ad.CountMatch(rdf.T(rdf.NewVar("s"), p, rdf.NewVar("o"))); n != 3 {
		t.Errorf("CountMatch(? p ?) = %d, want 3", n)
	}
	if n := ad.CountMatch(rdf.T(b, p, b)); n != 0 {
		t.Errorf("CountMatch(b p b) = %d, want 0", n)
	}
}

func TestAdapterStopsEarly(t *testing.T) {
	m := &MemTable{}
	p := rdf.NewIRI("urn:p")
	for i := 0; i < 10; i++ {
		m.Add(rdf.NewIRI("urn:s"), p, rdf.NewIntLiteral(int64(i)))
	}
	seen := 0
	(&Adapter{Ext: m}).MatchFunc(rdf.T(rdf.NewVar("s"), p, rdf.NewVar("o")), func(rdf.Triple) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Errorf("callback ran %d times after requesting stop at 3", seen)
	}
}
