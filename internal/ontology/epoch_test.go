package ontology

import (
	"reflect"
	"strings"
	"testing"

	"nl2cm/internal/rdf"
)

// TestInsertedCityResolvesImmediately is the staleness regression test:
// a city inserted through a raw store batch (no AddEntity registration)
// must be resolvable by ResolveEntity, Lookup and Label on the very
// next call, because the label index re-derives per store epoch instead
// of being frozen at construction.
func TestInsertedCityResolvesImmediately(t *testing.T) {
	o := NewDemoOntology()
	if _, ok := o.ResolveEntity("Newville"); ok {
		t.Fatal("Newville resolved before insertion")
	}

	newCity := E("Newville")
	city := E("City")
	_, _, _, err := o.Store.Apply(rdf.Batch{Insert: []rdf.Triple{
		rdf.T(newCity, PredLabel, rdf.NewLiteral("Newville")),
		rdf.T(newCity, PredInstanceOf, city),
	}})
	if err != nil {
		t.Fatal(err)
	}

	got, ok := o.ResolveEntity("Newville")
	if !ok || !got.Equal(newCity) {
		t.Fatalf("ResolveEntity after insert = %v, %v; want %v, true", got, ok, newCity)
	}
	if l := o.Label(newCity); l != "Newville" {
		t.Fatalf("Label after insert = %q, want %q", l, "Newville")
	}
	cands := o.View().Lookup("Newville")
	if len(cands) != 1 || !cands[0].Term.Equal(newCity) {
		t.Fatalf("Lookup after insert = %v, want exactly the new city", cands)
	}
	if cands[0].IsClass {
		t.Fatal("inserted instance classified as class")
	}

	// Deletion is symmetric: removing the label triples must stop the
	// phrase from resolving in the next epoch.
	if _, removed, _, err := o.Store.Apply(rdf.Batch{Delete: []rdf.Triple{
		rdf.T(newCity, PredLabel, rdf.NewLiteral("Newville")),
	}}); err != nil || removed != 1 {
		t.Fatalf("Apply delete = %d, %v", removed, err)
	}
	if _, ok := o.ResolveEntity("Newville"); ok {
		t.Fatal("Newville still resolves after its label was deleted")
	}
	if l := o.Label(newCity); l != "Newville" && l != newCity.Local() {
		t.Fatalf("Label after delete = %q", l)
	}
}

// TestInsertedClassMembershipDerives checks the class side of the
// per-epoch rebuild: a term appearing as an instanceOf object in a
// batch counts as a class immediately.
func TestInsertedClassMembershipDerives(t *testing.T) {
	o := NewDemoOntology()
	vineyard := E("Vineyard")
	napa := E("Napa_Vineyard")
	if o.View().IsClass(vineyard) {
		t.Fatal("Vineyard is a class before insertion")
	}
	if _, _, _, err := o.Store.Apply(rdf.Batch{Insert: []rdf.Triple{
		rdf.T(vineyard, PredLabel, rdf.NewLiteral("vineyard")),
		rdf.T(napa, PredLabel, rdf.NewLiteral("Napa Vineyard")),
		rdf.T(napa, PredInstanceOf, vineyard),
	}}); err != nil {
		t.Fatal(err)
	}
	if !o.View().IsClass(vineyard) {
		t.Fatal("Vineyard not a class after an instanceOf batch")
	}
	if o.View().IsClass(napa) {
		t.Fatal("instance misclassified as class")
	}
	// A class phrase must not resolve as an entity slot.
	if _, ok := o.ResolveEntity("vineyard"); ok {
		t.Fatal("class phrase resolved as entity")
	}
	if got, ok := o.ResolveEntity("Napa Vineyard"); !ok || !got.Equal(napa) {
		t.Fatalf("ResolveEntity(Napa Vineyard) = %v, %v", got, ok)
	}
}

// TestAliasAfterLookupInvalidates ensures registration-state changes
// (not only store epochs) refresh the derived index: an Alias added
// after the index was first built must be visible to the next Lookup.
func TestAliasAfterLookupInvalidates(t *testing.T) {
	o := NewDemoOntology()
	if _, ok := o.ResolveEntity("Entertainment Capital"); ok {
		t.Fatal("alias resolved before registration")
	}
	o.Alias(E("Las_Vegas"), "Entertainment Capital")
	got, ok := o.ResolveEntity("Entertainment Capital")
	if !ok || !got.Equal(E("Las_Vegas")) {
		t.Fatalf("ResolveEntity after Alias = %v, %v; want Las_Vegas", got, ok)
	}
}

// TestPinnedViewIgnoresLaterRegistrations: registrations land in a copy
// of the registry the views hold, so a view pinned before them answers
// every read as it did, while the next view sees them all. Before any
// view exists, a registration changes the registry in place, so
// building an ontology copies nothing.
func TestPinnedViewIgnoresLaterRegistrations(t *testing.T) {
	o := NewDemoOntology()
	buffalo, quox, beside := E("Buffalo,_NY"), E("Quox"), "beside"
	type reads struct {
		lookup   []Candidate
		desc     string
		relation rdf.Term
		isClass  bool
		alias    []Candidate
	}
	read := func(v *View) reads {
		rel, _ := v.LookupRelation(beside)
		return reads{v.Lookup("Buffalo"), v.Description(buffalo), rel, v.IsClass(quox), v.Lookup("Queen City")}
	}
	pinned := o.View()
	before := read(pinned)

	o.AddEntity("Buffalo,_NY", "Buffalo", "the Queen City of the Lakes", E("City"))
	o.AddRelation(PredNear, beside)
	o.Alias(buffalo, "Queen City")
	o.AddClass("Quox", "quox", E("Place"))

	if got := read(pinned); !reflect.DeepEqual(got, before) {
		t.Errorf("pinned view changed under registrations:\n got %+v\nwant %+v", got, before)
	}
	after := read(o.View())
	if after.desc != "the Queen City of the Lakes" || after.relation != PredNear || !after.isClass ||
		len(after.alias) == 0 || after.alias[0].Term != buffalo {
		t.Errorf("the next view misses a registration: %+v", after)
	}
	if reflect.DeepEqual(after.lookup, before.lookup) {
		t.Error("the new description does not reach Lookup's candidates")
	}

	fresh := New("fresh")
	r := fresh.reg.Load()
	fresh.AddEntity("A", "a", "first", rdf.Term{})
	fresh.AddRelation(PredNear, "by")
	fresh.Alias(E("A"), "alpha")
	fresh.AddClass("C", "c", rdf.Term{})
	if fresh.reg.Load() != r {
		t.Error("a registration with no view built copied the registry")
	}
	fresh.View()
	fresh.Alias(E("A"), "aleph")
	if fresh.reg.Load() == r {
		t.Error("a registration after a view changed the registry that view holds")
	}
}

// TestReadNTriplesKeepsRelationTables: an ontology reloaded from the
// demo ontology's N-Triples export answers every relation lemma of both
// source tables as the demo ontology does, and holds no other lemma.
func TestReadNTriplesKeepsRelationTables(t *testing.T) {
	demo := NewDemoOntology()
	var buf strings.Builder
	if err := demo.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadNTriples("reloaded", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	want, got := demo.View(), loaded.View()
	n := 0
	for _, add := range []func(*Ontology){addGeoRelations, addEncyclopedicRelations} {
		table := New("table")
		add(table)
		for lemma := range table.reg.Load().relations {
			n++
			wp, wok := want.LookupRelation(lemma)
			gp, gok := got.LookupRelation(lemma)
			if gp != wp || gok != wok || !wok {
				t.Errorf("LookupRelation(%q) = %v, %v after reload; demo %v, %v", lemma, gp, gok, wp, wok)
			}
		}
	}
	if !reflect.DeepEqual(got.reg.relations, want.reg.relations) {
		t.Errorf("reloaded relation table %v, demo %v", got.reg.relations, want.reg.relations)
	}
	t.Logf("%d lemmas checked", n)
}
