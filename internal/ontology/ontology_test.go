package ontology

import (
	"strings"
	"testing"

	"nl2cm/internal/rdf"
)

func TestLookupExactLabel(t *testing.T) {
	o := NewGeoOntology()
	cands := o.View().Lookup("Delaware Park")
	if len(cands) == 0 {
		t.Fatal("no candidates for Delaware Park")
	}
	if cands[0].Term != E("Delaware_Park") || cands[0].Score != 1.0 {
		t.Errorf("top candidate = %+v", cands[0])
	}
}

func TestLookupAmbiguousBuffalo(t *testing.T) {
	o := NewGeoOntology()
	cands := o.View().Lookup("Buffalo")
	// At least the three Buffalo cities must surface, all at top score.
	top := map[string]bool{}
	for _, c := range cands {
		if c.Score == 1.0 {
			top[c.Term.Local()] = true
		}
	}
	for _, want := range []string{"Buffalo,_NY", "Buffalo,_IL", "Buffalo,_WY"} {
		if !top[want] {
			t.Errorf("missing ambiguous candidate %s in %v", want, cands)
		}
	}
	// Descriptions must distinguish them, as the Figure-4 dialogue needs.
	descs := map[string]bool{}
	for _, c := range cands {
		if c.Score == 1.0 {
			descs[c.Description] = true
		}
	}
	if len(descs) < 3 {
		t.Errorf("ambiguous candidates share descriptions: %v", descs)
	}
}

func TestLookupCaseAndPluralInsensitive(t *testing.T) {
	o := NewGeoOntology()
	if c := o.View().Lookup("PLACES"); len(c) == 0 || c[0].Term != E("Place") {
		t.Errorf("Lookup(PLACES) = %v", c)
	}
	if c := o.View().Lookup("place"); len(c) == 0 || c[0].Term != E("Place") || !c[0].IsClass {
		t.Errorf("Lookup(place) = %v", c)
	}
}

func TestLookupForestHotelVariants(t *testing.T) {
	o := NewGeoOntology()
	for _, phrase := range []string{
		"Forest Hotel",
		"Forest Hotel, Buffalo",
		"Forest Hotel, Buffalo, NY",
		"forest hotel buffalo",
	} {
		cands := o.View().Lookup(phrase)
		if len(cands) == 0 {
			t.Errorf("Lookup(%q) empty", phrase)
			continue
		}
		if cands[0].Term.Local() != "Forest_Hotel,_Buffalo,_NY" {
			t.Errorf("Lookup(%q) top = %v", phrase, cands[0].Term)
		}
	}
}

func TestLookupEmptyAndUnknown(t *testing.T) {
	o := NewGeoOntology()
	if c := o.View().Lookup(""); c != nil {
		t.Errorf("Lookup(\"\") = %v", c)
	}
	if c := o.View().Lookup("zzzgarbage"); len(c) != 0 {
		t.Errorf("Lookup(zzzgarbage) = %v", c)
	}
}

func TestLookupRelation(t *testing.T) {
	o := NewGeoOntology()
	cases := []struct {
		lemma string
		want  rdf.Term
	}{
		{"near", PredNear}, {"NEAR", PredNear}, {"in", PredLocatedIn},
		{"at", PredLocatedIn}, {"has", PredHasFeature},
	}
	for _, c := range cases {
		got, ok := o.View().LookupRelation(c.lemma)
		if !ok || got != c.want {
			t.Errorf("LookupRelation(%q) = %v, %v", c.lemma, got, ok)
		}
	}
	if _, ok := o.View().LookupRelation("frobnicate"); ok {
		t.Error("LookupRelation(frobnicate) ok = true")
	}
}

func TestInstancesOfIncludesSubclasses(t *testing.T) {
	o := NewGeoOntology()
	places := o.View().InstancesOf(E("Place"))
	want := map[string]bool{}
	for _, p := range places {
		want[p.Local()] = true
	}
	// Direct instances and subclass instances.
	for _, local := range []string{"Delaware_Park", "Buffalo_Zoo", "Forest_Hotel,_Buffalo,_NY", "Buffalo,_NY", "Niagara_Falls"} {
		if !want[local] {
			t.Errorf("InstancesOf(Place) missing %s", local)
		}
	}
	// Parks only.
	parks := o.View().InstancesOf(E("Park"))
	for _, p := range parks {
		if p.Local() == "Buffalo_Zoo" {
			t.Error("InstancesOf(Park) contains the zoo")
		}
	}
}

func TestNearRelationSymmetric(t *testing.T) {
	o := NewGeoOntology()
	forest := E("Forest_Hotel,_Buffalo,_NY")
	near := o.Store.Snapshot().Subjects(PredNear, forest)
	if len(near) < 3 {
		t.Errorf("only %d places near Forest Hotel", len(near))
	}
	// the reverse direction exists too
	back := o.Store.Snapshot().Objects(E("Delaware_Park"), PredNear)
	found := false
	for _, b := range back {
		if b == forest {
			found = true
		}
	}
	if !found {
		t.Error("near relation not symmetric for Delaware Park")
	}
}

func TestEncyclopedicFiberDishes(t *testing.T) {
	o := NewEncyclopedicOntology()
	rich := o.Store.Snapshot().Subjects(PredRichIn, E("Fiber"))
	if len(rich) < 4 {
		t.Errorf("only %d fiber-rich dishes", len(rich))
	}
	for _, d := range rich {
		if d.Local() == "Ice_Cream" {
			t.Error("ice cream is not fiber-rich")
		}
	}
}

func TestLabelFallsBackToLocalName(t *testing.T) {
	o := New("t")
	term := E("Unlabeled_Thing")
	if got := o.Label(term); got != "Unlabeled_Thing" {
		t.Errorf("Label = %q", got)
	}
	o.AddEntity("Thing2", "the thing", "", rdf.Term{})
	if got := o.Label(E("Thing2")); got != "the thing" {
		t.Errorf("Label = %q", got)
	}
}

func TestMergeCombinesEverything(t *testing.T) {
	m := NewDemoOntology()
	// geo lookup works
	if c := m.View().Lookup("Buffalo"); len(c) < 3 {
		t.Errorf("merged Lookup(Buffalo) = %d candidates", len(c))
	}
	// encyclopedic lookup works
	if c := m.View().Lookup("chocolate milk"); len(c) == 0 || c[0].Term != E("Chocolate_Milk") {
		t.Errorf("merged Lookup(chocolate milk) = %v", c)
	}
	// relations from both
	if _, ok := m.View().LookupRelation("near"); !ok {
		t.Error("merged ontology lost geo relation")
	}
	if _, ok := m.View().LookupRelation("rich in"); !ok {
		t.Error("merged ontology lost encyclopedic relation")
	}
	if m.Store.Snapshot().Len() < NewGeoOntology().Store.Snapshot().Len() {
		t.Error("merged store smaller than a part")
	}
}

func TestDescriptionsPresentForAmbiguous(t *testing.T) {
	o := NewGeoOntology()
	if d := o.View().Description(E("Buffalo,_NY")); !strings.Contains(d, "New York") {
		t.Errorf("description = %q", d)
	}
}

func TestAliasLookup(t *testing.T) {
	o := NewGeoOntology()
	if c := o.View().Lookup("Vegas"); len(c) == 0 || c[0].Term != E("Las_Vegas") {
		t.Errorf("Lookup(Vegas) = %v", c)
	}
	if c := o.View().Lookup("autumn"); len(c) == 0 || c[0].Term != E("Fall") {
		t.Errorf("Lookup(autumn) = %v", c)
	}
}

func TestSeasonEntities(t *testing.T) {
	o := NewGeoOntology()
	seasons := o.View().InstancesOf(E("Season"))
	if len(seasons) != 4 {
		t.Errorf("got %d seasons, want 4", len(seasons))
	}
	if c := o.View().Lookup("fall"); len(c) == 0 || c[0].Term != E("Fall") {
		t.Errorf("Lookup(fall) = %v", c)
	}
}

func TestOntologyNTriplesRoundTrip(t *testing.T) {
	orig := NewGeoOntology()
	var buf strings.Builder
	if err := orig.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadNTriples("reloaded", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Store.Snapshot().Len() != orig.Store.Snapshot().Len() {
		t.Errorf("triples = %d, want %d", loaded.Store.Snapshot().Len(), orig.Store.Snapshot().Len())
	}
	// Label lookup survives the round trip.
	cands := loaded.View().Lookup("Delaware Park")
	if len(cands) == 0 || cands[0].Term != E("Delaware_Park") {
		t.Errorf("Lookup after reload = %v", cands)
	}
	// Class membership reconstructed.
	if !loaded.View().IsClass(E("Place")) || !loaded.View().IsClass(E("Park")) {
		t.Error("classes not reconstructed")
	}
	// Standard relations usable.
	if _, ok := loaded.View().LookupRelation("near"); !ok {
		t.Error("relations not registered")
	}
	// Subclass instances still reachable.
	if n := len(loaded.View().InstancesOf(E("Place"))); n < 10 {
		t.Errorf("InstancesOf(Place) = %d after reload", n)
	}
}

func TestReadNTriplesBadInput(t *testing.T) {
	if _, err := ReadNTriples("x", strings.NewReader("not triples")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReloadedOntologyDrivesTranslationLookups(t *testing.T) {
	orig := NewDemoOntology()
	var buf strings.Builder
	if err := orig.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadNTriples("demo2", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	// The ambiguity that drives the Figure-4 dialogue survives.
	top := 0
	for _, c := range loaded.View().Lookup("Buffalo") {
		if c.Score >= 1.0 {
			top++
		}
	}
	if top < 3 {
		t.Errorf("Buffalo ambiguity lost: %d top candidates", top)
	}
}
