package nlp

import (
	"reflect"
	"testing"
)

// FuzzParse asserts the full NL pipeline (tokenize, tag, lemmatize,
// dependency-parse) never panics, that accepted graphs satisfy Validate,
// and that token span provenance stays within the input.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?",
		"Where should I buy a tent?",
		"Don't we visit the hotel's pool?",
		"Is chocolate milk good for kids?",
		"Buffalo, N.Y. is cold.",
		"can't won't cannot let's I'm",
		"(in the fall)",
		"?!?",
		"",
		"  \t\n ",
		"a",
		"été café “quoted” …",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if g == nil {
			t.Fatal("Parse returned nil graph with nil error")
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v\ninput: %q", err, input)
		}
		if g.Source != input {
			t.Fatalf("graph Source = %q, want input %q", g.Source, input)
		}
		lastStart := 0
		for i := range g.Nodes {
			tok := g.Nodes[i].Token
			if tok.Index != i {
				t.Fatalf("token %d has Index %d", i, tok.Index)
			}
			if tok.Start < 0 || tok.End > len(input) || tok.End < tok.Start || tok.Start < lastStart {
				t.Fatalf("token %d %q has invalid span [%d,%d) in input of %d bytes",
					i, tok.Text, tok.Start, tok.End, len(input))
			}
			lastStart = tok.Start
		}
	})
}

// FuzzTokenize checks the one-pass Tokenize against the reference
// tokenizer in tokenref_test.go: the token slices must be deeply equal,
// nil for no tokens included.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"Hello world",
		"Hello, world!",
		"What are the most interesting places?",
		"Forest Hotel, Buffalo, NY",
		"(in the fall)",
		"",
		"   ",
		"don't", "Don't", "can't", "won't", "I'm", "we're", "they've",
		"she'll", "he'd", "let's", "cannot", "the hotel's pool",
		"Buffalo, N.Y. is cold.",
		"What type of digital camera should I buy?",
		"When can I reach the falls from Forest Hills?",
		"  Don't we visit the hotel's pool?",
		"I CAN'T",
		"İ's",
		"“quote” …",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		got, want := Tokenize(input), refTokenize(input)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q):\n got %+v\nwant %+v", input, got, want)
		}
	})
}

// FuzzRebindGuard checks DepGraph.WithTokens against a full parse. The
// variant is b when it has as many tokens as a, else a with its token
// k%n replaced by b. Whenever the guard accepts the variant's tagged
// tokens over a's graph, the graph it serves must equal Parse of the
// variant: every token field, head, relation and extra edge, and the
// source.
func FuzzRebindGuard(f *testing.F) {
	pairs := [][2]string{
		{"Where do families eat near Delaware Park?", "Where do families eat near Central Park?"},
		{"Is chocolate milk good for kids?", "Is grilled chicken good for kids?"},
		{"What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?", "spring"},
		{"Which restaurants near Woodlawn Beach do locals recommend?", "Niagara"},
		{"Where do you eat that is not far?", "be"},
		{"Should my kids swim at Woodlawn Beach in the summer?", "Should my kids swim at Woodlawn Beach in the morning?"},
		{"Which hotel that has a pool do you like?", "what"},
	}
	for i, p := range pairs {
		f.Add(p[0], p[1], uint8(i))
	}
	f.Fuzz(func(t *testing.T, a, b string, k uint8) {
		base, err := Parse(a)
		if err != nil {
			return
		}
		n := len(base.Nodes)
		variant := b
		if len(Tokenize(b)) != n {
			tok := base.Nodes[int(k)%n].Token
			variant = a[:tok.Start] + b + a[tok.End:]
		}
		toks := Tokenize(variant)
		if len(toks) != n {
			return
		}
		Tag(toks)
		got, ok := base.WithTokens(toks, variant)
		if !ok {
			return
		}
		want, err := Parse(variant)
		if err != nil {
			t.Fatalf("guard accepted %q over %q, but Parse fails: %v", variant, a, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("guard accepted %q over %q:\nserved:\n%s\nparsed:\n%s", variant, a, got, want)
		}
	})
}
