package ontology

import (
	"fmt"
	"io"
	"sort"

	"nl2cm/internal/rdf"
)

// WriteNTriples serializes the ontology's triples in a deterministic
// order, so administrators can export, diff and edit knowledge bases as
// plain text.
func (o *Ontology) WriteNTriples(w io.Writer) error {
	triples := o.Store.All()
	rdf.SortTriples(triples)
	if err := rdf.WriteNTriples(w, triples); err != nil {
		return fmt.Errorf("ontology: exporting %s: %w", o.Name, err)
	}
	return nil
}

// ReadNTriples builds an ontology from N-Triples data, reconstructing
// the lookup indexes: labels come from <label> triples, class membership
// from subClassOf participation and instanceOf objects. Relation lemma
// mappings are structural knowledge rather than data, so both source
// ontologies' relation tables are registered, in the demo's merge order;
// descriptions are not representable in plain triples and remain empty.
func ReadNTriples(name string, r io.Reader) (*Ontology, error) {
	triples, err := rdf.ParseNTriples(r)
	if err != nil {
		return nil, fmt.Errorf("ontology: importing %s: %w", name, err)
	}
	o := New(name)
	for _, t := range triples {
		o.Store.MustAdd(t)
	}
	// Class membership and the label index derive from the store per
	// epoch (subClassOf participation, instanceOf objects, <label>
	// literals); nothing to reconstruct here.
	addGeoRelations(o)
	addEncyclopedicRelations(o)
	return o, nil
}

// Stats summarizes an ontology for admin displays.
type Stats struct {
	Name     string
	Triples  int
	Classes  int
	Entities int
	Labels   int
}

// Summary computes ontology statistics over one pinned epoch.
func (o *Ontology) Summary() Stats {
	d := o.View()
	snap := d.snap
	entities := map[rdf.Term]bool{}
	snap.MatchFunc(rdf.T(rdf.NewVar("s"), PredInstanceOf, rdf.NewVar("c")), func(t rdf.Triple) bool {
		if !d.classes[t.S] {
			entities[t.S] = true
		}
		return true
	})
	return Stats{
		Name:     o.Name,
		Triples:  snap.Len(),
		Classes:  len(d.classes),
		Entities: len(entities),
		Labels:   len(d.labels),
	}
}

// Entities returns all non-class subjects with an instanceOf fact,
// sorted.
func (o *Ontology) Entities() []rdf.Term {
	d := o.View()
	snap := d.snap
	seen := map[rdf.Term]bool{}
	var out []rdf.Term
	snap.MatchFunc(rdf.T(rdf.NewVar("s"), PredInstanceOf, rdf.NewVar("c")), func(t rdf.Triple) bool {
		if !d.classes[t.S] && !seen[t.S] {
			seen[t.S] = true
			out = append(out, t.S)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
