package nlp

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func texts(toks []Token) []string {
	if len(toks) == 0 {
		return nil
	}
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello world", []string{"Hello", "world"}},
		{"Hello, world!", []string{"Hello", ",", "world", "!"}},
		{"What are the most interesting places?",
			[]string{"What", "are", "the", "most", "interesting", "places", "?"}},
		{"Forest Hotel, Buffalo, NY", []string{"Forest", "Hotel", ",", "Buffalo", ",", "NY"}},
		{"(in the fall)", []string{"(", "in", "the", "fall", ")"}},
		{"", nil},
		{"   ", nil},
	}
	for _, c := range cases {
		got := texts(Tokenize(c.in))
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeContractions(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"don't", []string{"do", "n't"}},
		{"Don't", []string{"Do", "n't"}},
		{"can't", []string{"ca", "n't"}},
		{"won't", []string{"wo", "n't"}},
		{"I'm", []string{"I", "'m"}},
		{"we're", []string{"we", "'re"}},
		{"they've", []string{"they", "'ve"}},
		{"she'll", []string{"she", "'ll"}},
		{"he'd", []string{"he", "'d"}},
		{"let's", []string{"let", "'s"}},
		{"cannot", []string{"can", "not"}},
		{"the hotel's pool", []string{"the", "hotel", "'s", "pool"}},
	}
	for _, c := range cases {
		got := texts(Tokenize(c.in))
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeAbbreviations(t *testing.T) {
	got := texts(Tokenize("Buffalo, N.Y. is cold."))
	want := []string{"Buffalo", ",", "N.Y.", "is", "cold", "."}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeIndexesSequential(t *testing.T) {
	toks := Tokenize("What type of digital camera should I buy?")
	for i, tok := range toks {
		if tok.Index != i {
			t.Fatalf("token %d has Index %d", i, tok.Index)
		}
		if tok.Lower != strings.ToLower(tok.Text) {
			t.Fatalf("token %q Lower = %q", tok.Text, tok.Lower)
		}
	}
}

func TestTokenPredicates(t *testing.T) {
	if !(Token{Text: "abc"}).IsWord() {
		t.Error("IsWord(abc) = false")
	}
	if (Token{Text: "?"}).IsWord() {
		t.Error("IsWord(?) = true")
	}
	if !(Token{Text: "?"}).IsPunct() {
		t.Error("IsPunct(?) = false")
	}
	if (Token{Text: "abc"}).IsPunct() {
		t.Error("IsPunct(abc) = true")
	}
	if (Token{Text: ""}).IsPunct() {
		t.Error("IsPunct(empty) = true")
	}
	if (Token{Text: "42"}).IsWord() {
		t.Error("IsWord(42) = true")
	}
}

// Property: tokenization never loses non-space characters for plain
// alphanumeric input.
func TestTokenizePreservesLetters(t *testing.T) {
	words := []string{"alpha", "beta", "Gamma", "delta42", "x"}
	f := func(picks []uint8) bool {
		var in []string
		for _, p := range picks {
			in = append(in, words[int(p)%len(words)])
		}
		sentence := strings.Join(in, " ")
		toks := Tokenize(sentence)
		var rebuilt []string
		for _, tok := range toks {
			rebuilt = append(rebuilt, tok.Text)
		}
		return strings.Join(rebuilt, " ") == sentence
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenizeSpans(t *testing.T) {
	in := "When can I reach the falls from Forest Hills?"
	for _, tok := range Tokenize(in) {
		if got := in[tok.Start:tok.End]; got != tok.Text {
			t.Errorf("token %d %q has span [%d,%d) = %q", tok.Index, tok.Text, tok.Start, tok.End, got)
		}
	}
}

// Spans of contraction pieces must cover the source word, in order, even
// when the piece text is canonicalized ("can't" -> "ca"+"n't").
func TestTokenizeContractionSpans(t *testing.T) {
	in := "  Don't we visit the hotel's pool?"
	toks := Tokenize(in)
	prevEnd := 0
	for _, tok := range toks {
		if tok.Start < prevEnd && tok.End > tok.Start {
			// Overlap is only allowed for fallback pieces sharing a span.
			if in[tok.Start:tok.End] == tok.Text {
				t.Errorf("token %q span [%d,%d) overlaps previous end %d", tok.Text, tok.Start, tok.End, prevEnd)
			}
		}
		if tok.Start < 0 || tok.End > len(in) || tok.End < tok.Start {
			t.Fatalf("token %q has invalid span [%d,%d)", tok.Text, tok.Start, tok.End)
		}
		if tok.End > prevEnd {
			prevEnd = tok.End
		}
	}
	// "Don't" splits exactly: "Do" [2,4), "n't" [4,7).
	if toks[0].Text != "Do" || toks[0].Start != 2 || toks[0].End != 4 {
		t.Errorf("first token = %+v, want Do [2,4)", toks[0])
	}
	if toks[1].Text != "n't" || toks[1].Start != 4 || toks[1].End != 7 {
		t.Errorf("second token = %+v, want n't [4,7)", toks[1])
	}
}

// Property: token spans are valid, non-inverted, and in non-decreasing
// start order for arbitrary input.
func TestTokenizeSpanInvariant(t *testing.T) {
	f := func(s string) bool {
		lastStart := 0
		for _, tok := range Tokenize(s) {
			if tok.Start < 0 || tok.End > len(s) || tok.End < tok.Start || tok.Start < lastStart {
				return false
			}
			lastStart = tok.Start
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every token index matches its slice position for arbitrary
// printable input.
func TestTokenizeIndexInvariant(t *testing.T) {
	f := func(s string) bool {
		for i, tok := range Tokenize(s) {
			if tok.Index != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Tokenize of an all-lower-case question allocates only its token
// slice: token texts and lower-case forms are substrings of the input.
func TestTokenizeAllocs(t *testing.T) {
	q := "where do families eat near delaware park?"
	if n := testing.AllocsPerRun(100, func() { Tokenize(q) }); n != 1 {
		t.Errorf("Tokenize(%q) made %v allocations, want 1", q, n)
	}
}
