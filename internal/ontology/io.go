package ontology

import (
	"fmt"
	"io"

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
