// Package nlp is the natural-language parsing substrate of NL2CM. It
// substitutes for the Stanford Parser used in the paper: a tokenizer, a
// lexicon- and rule-based Part-Of-Speech tagger (Penn Treebank tagset), a
// rule-based lemmatizer, and a deterministic dependency parser that emits
// Stanford-style typed dependencies (nsubj, dobj, amod, prep, pobj, aux,
// ...). Downstream modules consume only the POS tags and the typed
// dependency graph, so the interface matches the paper's.
//
// Every token carries span provenance: Index is its stable token ID
// (tagging, lemmatization and dependency parsing all mutate tokens in
// place, so the ID survives the whole pipeline) and [Start, End) is its
// byte span in the original input, from which downstream layers resolve
// token-ID sets back to source text (see the prov package).
package nlp

import (
	"strings"
	"unicode"

	"nl2cm/internal/prov"
)

// Token is a single meaningful unit of the input text.
type Token struct {
	// Index is the 0-based position in the sentence. It is the token's
	// stable ID: all later pipeline stages (tagger, lemmatizer,
	// dependency parser) mutate tokens in place and never reorder them,
	// so provenance token sets reference this value.
	Index int
	// Text is the surface form as it appeared (minus splitting).
	Text string
	// Lower is the lower-cased surface form.
	Lower string
	// Lemma is the dictionary form, filled by the lemmatizer.
	Lemma string
	// POS is the Penn Treebank part-of-speech tag, filled by the tagger.
	POS string
	// Start and End delimit the token's byte span [Start, End) in the
	// original input. When a contraction split cannot be mapped back to
	// exact byte offsets, the pieces share their source word's span.
	Start, End int
}

// Span returns the token's byte span in the original input.
func (t Token) Span() prov.Span { return prov.Span{Start: t.Start, End: t.End} }

// contractionSplits maps contracted surface forms to their token splits,
// mirroring Penn Treebank tokenization.
var contractionSplits = map[string][]string{
	"n't":    {"n't"},
	"can't":  {"ca", "n't"},
	"won't":  {"wo", "n't"},
	"shan't": {"sha", "n't"},
	"cannot": {"can", "not"},
	"i'm":    {"i", "'m"},
	"let's":  {"let", "'s"},
	"'s":     {"'s"},
	"'re":    {"'re"},
	"'ve":    {"'ve"},
	"'ll":    {"'ll"},
	"'d":     {"'d"},
}

// clitics are suffixes split off a token, longest first.
var clitics = []string{"n't", "'re", "'ve", "'ll", "'m", "'d", "'s"}

// Tokenize splits a sentence into Penn-Treebank-style tokens: punctuation
// is separated, standard contractions are split ("don't" -> "do", "n't"),
// and whitespace is collapsed. Lemma and POS fields are left empty; each
// token records its byte span in text.
//
// It works in one pass over the Unicode-whitespace fields of text,
// appending into a slice sized by sizeTokens; token texts are substrings
// of text except for canonical contraction pieces.
func Tokenize(text string) []Token {
	out := make([]Token, 0, sizeTokens(text))
	start := -1
	for i, r := range text {
		if !unicode.IsSpace(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = appendField(out, text, start, i)
			start = -1
		}
	}
	if start >= 0 {
		out = appendField(out, text, start, len(text))
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// sizeTokens estimates the token count of text: one token per field,
// plus one per punctuation byte or apostrophe, which may split a field.
func sizeTokens(text string) int {
	n := 1
	for i := 0; i < len(text); i++ {
		if c := text[i]; c == ' ' || c == '\'' || isSplitPunct(c) {
			n++
		}
	}
	return n
}

// appendField appends the tokens of the whitespace field text[start:end]:
// leading and trailing punctuation become one-byte tokens, keeping a
// trailing period of an abbreviation such as "N.Y." (the rest of the
// word still contains a period), and the word between them has its
// contraction split off.
func appendField(out []Token, text string, start, end int) []Token {
	for start < end && isSplitPunct(text[start]) {
		out = appendToken(out, text[start:start+1], start, start+1)
		start++
	}
	wend := end
	for wend > start && isSplitPunct(text[wend-1]) {
		if text[wend-1] == '.' && strings.Count(text[start:wend], ".") > 1 {
			break
		}
		wend--
	}
	if wend > start {
		out = appendWord(out, text[start:wend], start, wend)
	}
	for i := wend; i < end; i++ {
		out = appendToken(out, text[i:i+1], i, i+1)
	}
	return out
}

// appendWord appends a word's tokens, splitting a contraction or clitic
// off it. A listed contraction's pieces carve the word's byte span when
// their lengths add up to the word's, keeping its casing; otherwise the
// canonical lower-case pieces share the word's span.
func appendWord(out []Token, w string, start, end int) []Token {
	lw := strings.ToLower(w)
	if parts, ok := contractionSplits[lw]; ok {
		total := 0
		for _, p := range parts {
			total += len(p)
		}
		if total != len(w) {
			for _, p := range parts {
				out = appendToken(out, p, start, end)
			}
			return out
		}
		for _, p := range parts {
			out = appendToken(out, w[:len(p)], start, start+len(p))
			w, start = w[len(p):], start+len(p)
		}
		return out
	}
	for _, cl := range clitics {
		if strings.HasSuffix(lw, cl) && len(lw) > len(cl) {
			cut := len(w) - len(cl)
			if cut == 0 {
				break
			}
			out = appendToken(out, w[:cut], start, start+cut)
			return appendToken(out, w[cut:], start+cut, end)
		}
	}
	return append(out, Token{Index: len(out), Text: w, Lower: lw, Start: start, End: end})
}

// appendToken appends one token with the next index.
func appendToken(out []Token, text string, start, end int) []Token {
	return append(out, Token{Index: len(out), Text: text, Lower: strings.ToLower(text), Start: start, End: end})
}

// isSplitPunct reports whether a byte is punctuation that Tokenize
// separates from a word.
func isSplitPunct(c byte) bool {
	switch c {
	case '.', ',', '?', '!', ';', ':', '(', ')', '[', ']', '{', '}', '"':
		return true
	}
	return false
}

// IsWord reports whether the token is alphabetic (contains at least one
// letter), i.e. not pure punctuation or a number.
func (t Token) IsWord() bool {
	for _, r := range t.Text {
		if unicode.IsLetter(r) {
			return true
		}
	}
	return false
}

// IsPunct reports whether the token consists solely of punctuation.
func (t Token) IsPunct() bool {
	if t.Text == "" {
		return false
	}
	for _, r := range t.Text {
		if !unicode.IsPunct(r) && !unicode.IsSymbol(r) {
			return false
		}
	}
	return true
}
