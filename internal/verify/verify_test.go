package verify

import (
	"fmt"
	"strings"
	"testing"

	"nl2cm/internal/prov"
)

func TestSupportedQuestions(t *testing.T) {
	supported := []string{
		"What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?",
		"Which hotel in Vegas has the best thrill ride?",
		"What type of digital camera should I buy?",
		"Is chocolate milk good for kids?",
		"Where do you visit in Buffalo?",
		"At what container should I store coffee?", // the paper's rephrasing
		"How often do you exercise?",               // frequency maps to support
		"Obama should visit Buffalo.",
		"Which parks are in Buffalo?",
		"Recommend a good restaurant near the hotel.",
		"How many parks are in Buffalo?",       // counting translates to COUNT
		"Which city has the most attractions?", // counting superlative
		"How many cameras does Canon sell?",
	}
	for _, q := range supported {
		if v := Check(q); !v.Supported {
			t.Errorf("Check(%q) unsupported (%s: %s), want supported", q, v.Category, v.Reason)
		}
	}
}

func TestUnsupportedQuestions(t *testing.T) {
	cases := []struct {
		q   string
		cat Category
	}{
		{"How should I store coffee?", CatDescriptive}, // the paper's example
		{"How to make good coffee?", CatDescriptive},
		{"How do I get to the airport?", CatDescriptive},
		{"How come the hotel is closed?", CatCausal},
		{"Why is the sky blue?", CatCausal},
		{"Why...?", CatCausal},
		{"For what purpose do people travel?", CatCausal},
		{"For what reason is it closed?", CatCausal},
		{"What is the reason people like Buffalo?", CatCausal},
		{"What is the way to cook rice?", CatCausal},
		{"How much does the hotel cost?", CatAggregate},
		{"How much money should I bring?", CatAggregate},
		{"Explain the rules of chess.", CatDescriptive},
		{"", CatEmpty},
		{"   ", CatEmpty},
		{"?!?", CatEmpty},
		{"Where should we eat? And what should we order?", CatMultiple},
	}
	for _, c := range cases {
		v := Check(c.q)
		if v.Supported {
			t.Errorf("Check(%q) supported, want unsupported (%s)", c.q, c.cat)
			continue
		}
		if v.Category != c.cat {
			t.Errorf("Check(%q) category = %s, want %s", c.q, v.Category, c.cat)
		}
		if v.Reason == "" {
			t.Errorf("Check(%q) has empty reason", c.q)
		}
	}
}

// Every rejection must come with rephrasing tips, as the demo's third
// stage shows ("tips on how to rephrase the question").
func TestRejectionsCarryTips(t *testing.T) {
	for _, q := range []string{
		"How should I store coffee?",
		"Why is the sky blue?",
		"How much does the hotel cost?",
		"",
	} {
		v := Check(q)
		if v.Supported {
			t.Fatalf("Check(%q) supported", q)
		}
		if len(v.Tips) == 0 {
			t.Errorf("Check(%q) has no tips", q)
		}
	}
}

// The paper's coffee pair: the "How" form is rejected with a tip pointing
// at the "At what container" form, which is accepted.
func TestPaperCoffeePair(t *testing.T) {
	rejected := Check("How should I store coffee?")
	if rejected.Supported {
		t.Fatal("descriptive coffee question accepted")
	}
	tipText := strings.Join(rejected.Tips, " ")
	if !strings.Contains(tipText, "At what container should I store coffee?") {
		t.Errorf("tips do not suggest the paper's rephrasing: %v", rejected.Tips)
	}
	if v := Check("At what container should I store coffee?"); !v.Supported {
		t.Errorf("rephrased coffee question rejected: %s", v.Reason)
	}
}

// Rejections caused by a specific phrase must cite its byte span and
// quote the exact source text in a tip.
func TestRejectionsCiteSpans(t *testing.T) {
	cases := []struct {
		q    string
		want string // exact offending phrase, as typed
	}{
		{"How should I store coffee?", "How"},
		{"How to make good coffee?", "How to"},
		{"  Why is the sky blue?", "Why"},
		{"How much does the hotel cost?", "How much"},
		{"For what purpose do people travel?", "For what purpose"},
		{"What is the reason people like Buffalo?", "What is the reason"},
		{"EXPLAIN the rules of chess.", "EXPLAIN"},
	}
	for _, c := range cases {
		v := Check(c.q)
		if v.Supported {
			t.Errorf("Check(%q) supported", c.q)
			continue
		}
		if v.Offending != c.want {
			t.Errorf("Check(%q).Offending = %q, want %q", c.q, v.Offending, c.want)
		}
		if got := v.Span.Text(c.q); got != c.want {
			t.Errorf("Check(%q).Span = [%d,%d) covers %q, want %q", c.q, v.Span.Start, v.Span.End, got, c.want)
		}
		var quoted bool
		for _, tip := range v.Tips {
			if strings.Contains(tip, "\""+c.want+"\"") {
				quoted = true
			}
		}
		if !quoted {
			t.Errorf("Check(%q) tips do not quote %q: %v", c.q, c.want, v.Tips)
		}
		if !strings.Contains(v.Reason, c.want) {
			t.Errorf("Check(%q) reason does not cite the phrase: %q", c.q, v.Reason)
		}
	}
}

func TestCoverageTips(t *testing.T) {
	q := "Where should we eat pancakes?"
	tips := CoverageTips(q, []prov.TokenInfo{
		{ID: 4, Span: prov.Span{Start: 20, End: 28}, Text: "pancakes"},
	})
	if len(tips) != 1 {
		t.Fatalf("CoverageTips = %v, want one tip", tips)
	}
	if !strings.Contains(tips[0], "\"pancakes\"") || !strings.Contains(tips[0], "20") {
		t.Errorf("tip does not quote the uncovered word with its span: %q", tips[0])
	}
	if got := CoverageTips(q, nil); got != nil {
		t.Errorf("CoverageTips(no uncovered) = %v, want nil", got)
	}

	// Three uncovered words, one needing escaping, one non-ASCII and one
	// plain: the tip equals the text fmt builds, written here as the
	// reference.
	q = `Is "Zoë's" café near the park?`
	uncovered := []prov.TokenInfo{
		{ID: 1, Span: prov.Span{Start: 3, End: 10}, Text: `"Zoë`},
		{ID: 2, Span: prov.Span{Start: 13, End: 18}, Text: "café"},
		{ID: 6, Span: prov.Span{Start: 28, End: 32}, Text: "park"},
	}
	parts := make([]string, len(uncovered))
	for i, u := range uncovered {
		parts[i] = fmt.Sprintf("%q (bytes %d–%d)", u.Text, u.Span.Start, u.Span.End)
	}
	want := fmt.Sprintf("The translation did not use %s; rephrase or drop those words if they matter to your question.", strings.Join(parts, ", "))
	if got := CoverageTips(q, uncovered); len(got) != 1 || got[0] != want {
		t.Errorf("CoverageTips = %q\nwant [%q]", got, want)
	}
}

func TestCaseInsensitive(t *testing.T) {
	if v := Check("HOW TO STORE COFFEE?"); v.Supported {
		t.Error("upper-case descriptive question accepted")
	}
	if v := Check("why is it so?"); v.Supported {
		t.Error("lower-case why question accepted")
	}
}

// TestCheckAllocations: Check splits only the leading words, in a stack
// buffer, so a supported question allocates only the lower-cased copies
// of those words that hold capitals, whatever its length.
func TestCheckAllocations(t *testing.T) {
	for _, c := range []struct {
		q    string
		want float64
	}{
		{"What shows should we watch in Las Vegas with the kids this winter?", 1},
		{"which parks are near Delaware Park?", 0},
	} {
		if got := testing.AllocsPerRun(10, func() { Check(c.q) }); got != c.want {
			t.Errorf("Check(%q) allocates %.0f times, want %.0f", c.q, got, c.want)
		}
	}
}
