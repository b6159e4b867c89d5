package corpus

import (
	"slices"
	"strings"
	"testing"
)

func TestCorpusWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, q := range All() {
		if q.ID == "" || q.Text == "" || q.Domain == "" {
			t.Errorf("incomplete question: %+v", q)
		}
		if seen[q.ID] {
			t.Errorf("duplicate ID %s", q.ID)
		}
		seen[q.ID] = true
		if !q.Supported && q.UnsupportedCategory == "" {
			t.Errorf("%s: unsupported without category", q.ID)
		}
		if !q.Supported && len(q.Gold) > 0 {
			t.Errorf("%s: unsupported question has gold IXs", q.ID)
		}
		for _, g := range q.Gold {
			if g.AnchorLemma == "" || len(g.Types) == 0 {
				t.Errorf("%s: malformed gold IX %+v", q.ID, g)
			}
			for _, ty := range g.Types {
				switch ty {
				case "lexical", "participant", "syntactic":
				default:
					t.Errorf("%s: unknown IX type %q", q.ID, ty)
				}
			}
		}
	}
}

func TestCorpusSize(t *testing.T) {
	if n := len(All()); n < 40 {
		t.Errorf("corpus has %d questions, want >= 40", n)
	}
	if n := len(Supported()); n < 30 {
		t.Errorf("corpus has %d supported questions, want >= 30", n)
	}
	if n := len(Unsupported()); n < 8 {
		t.Errorf("corpus has %d unsupported questions, want >= 8", n)
	}
}

func TestCorpusDomains(t *testing.T) {
	want := map[string]bool{"travel": true, "shopping": true, "health": true, "food": true, "general": true}
	for _, q := range All() {
		delete(want, q.Domain)
	}
	if len(want) > 0 {
		t.Errorf("missing domains: %v", want)
	}
}

func TestRunningExamplePresent(t *testing.T) {
	i := slices.IndexFunc(All(), func(q Question) bool { return q.ID == RunningExampleID })
	if i < 0 {
		t.Fatal("running example missing")
	}
	q := All()[i]
	if !strings.Contains(q.Text, "Forest Hotel") {
		t.Errorf("running example text = %q", q.Text)
	}
	if !q.HasGoldAnchor("interesting") || !q.HasGoldAnchor("visit") {
		t.Errorf("running example gold = %+v", q.Gold)
	}
	if q.HasGoldAnchor("nope") {
		t.Error("HasGoldAnchor(nope) = true")
	}
}

func TestAllReturnsCopy(t *testing.T) {
	a := All()
	a[0].Text = "mutated"
	if All()[0].Text == "mutated" {
		t.Error("All() exposes internal storage")
	}
}

// The demo's paper-named examples are present: the Vegas thrill ride,
// digital camera, chocolate milk and the coffee pair.
func TestPaperExamplesPresent(t *testing.T) {
	wants := []string{
		"Which hotel in Vegas has the best thrill ride?",
		"What type of digital camera should I buy?",
		"Is chocolate milk good for kids?",
		"How should I store coffee?",
		"At what container should I store coffee?",
	}
	all := All()
	for _, w := range wants {
		found := false
		for _, q := range all {
			if q.Text == w {
				found = true
			}
		}
		if !found {
			t.Errorf("paper example missing from corpus: %q", w)
		}
	}
}
