package qgen

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nl2cm/internal/ontology"
	"nl2cm/internal/rdf"
)

func TestFeedbackSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "feedback.json")
	f := NewFeedback()
	il := ontology.E("Buffalo,_IL")
	for i := 0; i < 3; i++ {
		f.Record("Buffalo", il)
	}
	f.Record("Vegas", ontology.E("Las_Vegas"))
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFeedback(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Boost("Buffalo", il) != f.Boost("Buffalo", il) {
		t.Error("boost lost in round trip")
	}
	if loaded.Boost("Vegas", ontology.E("Las_Vegas")) == 0 {
		t.Error("second phrase lost")
	}
}

func TestLoadFeedbackMissingFile(t *testing.T) {
	f, err := LoadFeedback(filepath.Join(t.TempDir(), "none.json"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Boost("x", ontology.E("Y")) != 0 {
		t.Error("fresh store not empty")
	}
}

func TestLoadFeedbackCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFeedback(path); err == nil {
		t.Error("corrupt file accepted")
	}
}

// The persisted feedback drives ranking in a new session, completing the
// §4.1 "subsequent interactions" loop across process restarts.
func TestPersistedFeedbackAffectsNewGenerator(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "feedback.json")
	onto := ontology.NewDemoOntology()
	il := ontology.E("Buffalo,_IL")

	g1 := New()
	for i := 0; i < 3; i++ {
		g1.Feedback.Record("Buffalo", il)
	}
	if err := g1.Feedback.Save(path); err != nil {
		t.Fatal(err)
	}

	g2 := New()
	loaded, err := LoadFeedback(path)
	if err != nil {
		t.Fatal(err)
	}
	g2.Feedback = loaded
	cands := g2.RankCandidates(onto.View(), "Buffalo")
	if len(cands) == 0 || cands[0].Term != il {
		t.Errorf("persisted preference not applied: top = %v", cands[0].Term)
	}
}

func TestRankCandidatesDegreeTieBreak(t *testing.T) {
	g := New()
	cands := g.RankCandidates(ontology.NewDemoOntology().View(), "Buffalo")
	if len(cands) < 3 {
		t.Fatalf("candidates = %d", len(cands))
	}
	// With no feedback, the best-connected Buffalo (NY) ranks first.
	if cands[0].Term != ontology.E("Buffalo,_NY") {
		t.Errorf("top = %v, want Buffalo,_NY", cands[0].Term)
	}
}

// TestRankCandidatesDegreeTracksStoreEpoch is the degree-staleness
// regression test: candidate degrees are recomputed per call against
// the current snapshot, so facts inserted through a store batch shift
// the popularity ranking immediately.
func TestRankCandidatesDegreeTracksStoreEpoch(t *testing.T) {
	onto := ontology.NewDemoOntology()
	g := New()
	wy := ontology.E("Buffalo,_WY")
	before := g.RankCandidates(onto.View(), "Buffalo")
	if len(before) < 3 {
		t.Fatalf("candidates = %d", len(before))
	}
	if before[0].Term == wy {
		t.Fatal("Buffalo,_WY already top-ranked; fixture changed")
	}
	// Make Wyoming's Buffalo by far the best-connected: its degree must
	// dominate on the next call, without rebuilding the generator.
	var batch rdf.Batch
	for i := 0; i < 200; i++ {
		batch.Insert = append(batch.Insert,
			rdf.T(wy, ontology.PredNear, ontology.E(fmt.Sprintf("WY_Place_%d", i))))
	}
	if _, _, _, err := onto.Store.Apply(batch); err != nil {
		t.Fatal(err)
	}
	after := g.RankCandidates(onto.View(), "Buffalo")
	if len(after) == 0 || after[0].Term != wy {
		t.Errorf("top after degree batch = %v, want Buffalo,_WY", after[0].Term)
	}
}
