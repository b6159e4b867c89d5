// Package verify implements NL2CM's input verification step (paper §3):
// before parsing, the question is checked for forms the system does not
// support — chiefly descriptive questions ("How to…?", "Why…?", "For what
// purpose…?"), whose answer semantics OASSIS-QL cannot express. Detected
// unsupported questions produce a warning with rephrasing tips, as in the
// demonstration's third stage ("How should I store coffee?" is rejected
// with the tip to ask "At what container should I store coffee?"). Each
// rejection cites the offending phrase's byte span and quotes it in the
// rephrasing tip.
package verify

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"nl2cm/internal/prov"
)

// Category classifies why a question is unsupported.
type Category string

// Unsupported-question categories.
const (
	CatOK          Category = ""
	CatEmpty       Category = "empty"
	CatDescriptive Category = "descriptive" // how-to / manner
	CatCausal      Category = "causal"      // why / purpose / reason
	CatAggregate   Category = "aggregate"   // how much (mass quantity; "how many" counts are supported)
	CatMultiple    Category = "multiple"    // several questions at once
)

// Verdict is the verification outcome.
type Verdict struct {
	// Supported reports whether translation may proceed.
	Supported bool
	// Category explains the rejection.
	Category Category
	// Reason is a user-facing explanation.
	Reason string
	// Tips suggest how to rephrase the question.
	Tips []string
	// Offending quotes the phrase that triggered the rejection, exactly
	// as it appears in the question; empty when no single phrase is to
	// blame (empty or multi-question requests).
	Offending string
	// Span is the offending phrase's byte range in the question.
	Span prov.Span
}

// ok is the accepting verdict.
var ok = Verdict{Supported: true}

// word is a question word with its byte span in the original input.
type word struct {
	text       string // lower-cased
	start, end int
}

// Check verifies one NL question or request.
func Check(question string) Verdict {
	trimmed := strings.TrimSpace(question)
	if !hasLetters(trimmed) {
		return Verdict{
			Category: CatEmpty,
			Reason:   "the request contains no question text",
			Tips:     []string{"Type a question or request, e.g. \"What are the best places to visit in Buffalo?\""},
		}
	}
	// Multiple sentences that are each questions.
	if countQuestions(trimmed) > 1 {
		return Verdict{
			Category: CatMultiple,
			Reason:   "the request contains several questions",
			Tips:     []string{"Ask one question at a time; you can submit the next question afterwards."},
		}
	}
	words := fields(question)
	if len(words) == 0 {
		return Verdict{Category: CatEmpty, Reason: "the request contains no words"}
	}
	first := words[0].text
	second := ""
	if len(words) > 1 {
		second = words[1].text
	}
	switch first {
	case "why":
		return causalVerdict("\"Why...\" questions ask for explanations", cite(question, words[:1]))
	case "how":
		switch second {
		case "to":
			return descriptiveVerdict("\"How to...\" questions ask for descriptions of procedures", cite(question, words[:2]))
		case "many":
			// Counting questions translate to a COUNT aggregate over the
			// general selection.
			return ok
		case "much":
			c := cite(question, words[:2])
			return Verdict{
				Category:  CatAggregate,
				Reason:    fmt.Sprintf("mass-quantity questions (%q at bytes %d–%d) are not supported: they sum an unstated measure, which neither the ontology nor the crowd model records", c.text, c.span.Start, c.span.End),
				Offending: c.text,
				Span:      c.span,
				Tips: []string{
					fmt.Sprintf("Name the measure instead of %q: ask \"What does the hotel cost per night?\" instead of \"How much does the hotel cost?\"", c.text),
					"Countable things can be counted directly: \"How many parks are in Buffalo?\" is supported.",
				},
			}
		case "often", "frequently":
			// Frequency questions map directly to support thresholds.
			return ok
		case "come":
			return causalVerdict("\"How come...\" questions ask for explanations", cite(question, words[:2]))
		default:
			return descriptiveVerdict("\"How...\" questions ask for manners or procedures", cite(question, words[:1]))
		}
	case "for":
		if second == "what" && len(words) > 2 && (words[2].text == "purpose" || words[2].text == "reason") {
			return causalVerdict("\"For what purpose...\" questions ask for explanations", cite(question, words[:3]))
		}
	case "what":
		// "What is the reason/way/purpose ..."
		var lowered []string
		for _, w := range words {
			lowered = append(lowered, w.text)
		}
		rest := strings.Join(lowered, " ")
		for _, bad := range []string{"what is the reason", "what is the purpose", "what is the way", "what's the reason", "what's the way"} {
			if strings.HasPrefix(rest, bad) {
				n := len(strings.Fields(bad))
				return causalVerdict("questions about reasons, purposes or ways ask for explanations", cite(question, words[:n]))
			}
		}
	case "explain", "describe":
		return descriptiveVerdict("requests for explanations or descriptions", cite(question, words[:1]))
	}
	return ok
}

// citation pairs an offending phrase with its byte span.
type citation struct {
	text string
	span prov.Span
}

// cite quotes the given words from the original question.
func cite(question string, ws []word) citation {
	if len(ws) == 0 {
		return citation{}
	}
	span := prov.Span{Start: ws[0].start, End: ws[len(ws)-1].end}
	return citation{text: span.Text(question), span: span}
}

func descriptiveVerdict(what string, c citation) Verdict {
	return Verdict{
		Category:  CatDescriptive,
		Reason:    fmt.Sprintf("%s, which OASSIS-QL queries cannot express (offending phrase %q at bytes %d–%d)", what, c.text, c.span.Start, c.span.End),
		Offending: c.text,
		Span:      c.span,
		Tips: []string{
			fmt.Sprintf("Replace %q with a concrete question: e.g. \"At what container should I store coffee?\" instead of \"How should I store coffee?\"", c.text),
			"Start the question with \"What\", \"Which\" or \"Where\" and name the kind of answer you expect.",
		},
	}
}

func causalVerdict(what string, c citation) Verdict {
	return Verdict{
		Category:  CatCausal,
		Reason:    fmt.Sprintf("%s, which OASSIS-QL queries cannot express (offending phrase %q at bytes %d–%d)", what, c.text, c.span.Start, c.span.End),
		Offending: c.text,
		Span:      c.span,
		Tips: []string{
			fmt.Sprintf("Drop %q and ask about the things involved instead of the reason, e.g. \"Which foods are good for kids?\" instead of \"Why is this food good for kids?\"", c.text),
		},
	}
}

// CoverageTips turns the uncovered-token report — content words no
// emitted triple derives from — into rephrasing tips quoting each word
// with its byte span. The one tip is written into one buffer.
func CoverageTips(question string, uncovered []prov.TokenInfo) []string {
	if len(uncovered) == 0 {
		return nil
	}
	var buf [256]byte
	b := append(buf[:0], "The translation did not use "...)
	for i, u := range uncovered {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendQuote(b, u.Text)
		b = append(b, " (bytes "...)
		b = strconv.AppendInt(b, int64(u.Span.Start), 10)
		b = append(b, "–"...)
		b = strconv.AppendInt(b, int64(u.Span.End), 10)
		b = append(b, ')')
	}
	b = append(b, "; rephrase or drop those words if they matter to your question."...)
	return []string{string(b)}
}

func hasLetters(s string) bool {
	for _, r := range s {
		if unicode.IsLetter(r) {
			return true
		}
	}
	return false
}

// countQuestions counts sentence-final question marks followed by more
// content.
func countQuestions(s string) int {
	n := strings.Count(s, "?")
	if n <= 1 {
		return n
	}
	return n
}

// fields lower-cases and splits the question into words, dropping
// punctuation but keeping each word's byte span in the original input.
func fields(s string) []word {
	keep := func(r rune) bool {
		return unicode.IsLetter(r) || unicode.IsNumber(r) || r == '\''
	}
	var out []word
	start := -1
	for i, r := range s {
		if keep(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, word{text: strings.ToLower(s[start:i]), start: start, end: i})
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, word{text: strings.ToLower(s[start:]), start: start, end: len(s)})
	}
	return out
}
