package nlp

import (
	"strings"
	"unicode"
)

// This file keeps the tokenizer as it was written before Tokenize became
// one pass: a []refFrag per field, one string per peeled punctuation
// byte and a slice per word. FuzzTokenize checks Tokenize against it.

// refFrag is a piece of the input under tokenization, with its byte span.
type refFrag struct {
	text       string
	start, end int
}

// refTokenize splits a sentence into Penn-Treebank-style tokens: punctuation
// is separated, standard contractions are split ("don't" -> "do", "n't"),
// and whitespace is collapsed. Lemma and POS fields are left empty; each
// token records its byte span in text.
func refTokenize(text string) []Token {
	var raw []refFrag
	for _, field := range refFields(text) {
		raw = append(raw, refSplitPunct(field)...)
	}
	var out []Token
	for _, w := range raw {
		for _, piece := range refSplitContraction(w) {
			out = append(out, Token{
				Index: len(out),
				Text:  piece.text,
				Lower: strings.ToLower(piece.text),
				Start: piece.start,
				End:   piece.end,
			})
		}
	}
	return out
}

// refFields splits on Unicode whitespace like strings.Fields, keeping byte
// offsets.
func refFields(text string) []refFrag {
	var out []refFrag
	start := -1
	for i, r := range text {
		if unicode.IsSpace(r) {
			if start >= 0 {
				out = append(out, refFrag{text: text[start:i], start: start, end: i})
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, refFrag{text: text[start:], start: start, end: len(text)})
	}
	return out
}

// refSplitPunct separates leading/trailing punctuation from a whitespace
// field, keeping internal hyphens, apostrophes, and periods in
// abbreviations.
func refSplitPunct(f refFrag) []refFrag {
	w, off := f.text, f.start
	var lead, trail []refFrag
	// Peel leading punctuation.
	for len(w) > 0 {
		r := rune(w[0])
		if refIsSplitPunct(r) {
			lead = append(lead, refFrag{text: string(r), start: off, end: off + 1})
			w = w[1:]
			off++
			continue
		}
		break
	}
	// Peel trailing punctuation. Keep a period that is part of an
	// abbreviation like "N.Y." (token still contains another period).
	end := off + len(w)
	for len(w) > 0 {
		r := rune(w[len(w)-1])
		if !refIsSplitPunct(r) {
			break
		}
		if r == '.' && strings.Count(w, ".") > 1 {
			break // abbreviation such as U.S. or N.Y.
		}
		trail = append([]refFrag{{text: string(r), start: end - 1, end: end}}, trail...)
		w = w[:len(w)-1]
		end--
	}
	var out []refFrag
	out = append(out, lead...)
	if w != "" {
		out = append(out, refFrag{text: w, start: off, end: end})
	}
	out = append(out, trail...)
	return out
}

func refIsSplitPunct(r rune) bool {
	switch r {
	case '.', ',', '?', '!', ';', ':', '(', ')', '[', ']', '{', '}', '"', '“', '”', '…':
		return true
	}
	return false
}

// refSplitContraction splits clitic contractions from a word, carving the
// word's byte span into per-piece spans when the pieces partition it
// (pieces of a case-restoration fallback share the whole word's span).
func refSplitContraction(f refFrag) []refFrag {
	w := f.text
	lw := strings.ToLower(w)
	if parts, ok := contractionSplits[lw]; ok {
		return refRestoreCase(f, parts)
	}
	for _, cl := range clitics {
		if strings.HasSuffix(lw, cl) && len(lw) > len(cl) {
			stem := w[:len(w)-len(cl)]
			suffix := w[len(w)-len(cl):]
			// "n't" needs the n restored to the suffix.
			if cl == "n't" {
				if len(stem) == 0 {
					break
				}
			}
			if stem == "" {
				break
			}
			cut := f.start + len(stem)
			return []refFrag{
				{text: stem, start: f.start, end: cut},
				{text: suffix, start: cut, end: f.end},
			}
		}
	}
	return []refFrag{f}
}

// refRestoreCase maps the canonical lower-case split back onto the original
// casing (and byte spans) where lengths allow; it falls back to the
// canonical pieces, which then share the source word's span.
func refRestoreCase(f refFrag, parts []string) []refFrag {
	orig := f.text
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]refFrag, len(parts))
	if total != len(orig) {
		for i, p := range parts {
			out[i] = refFrag{text: p, start: f.start, end: f.end}
		}
		return out
	}
	off := 0
	for i, p := range parts {
		out[i] = refFrag{
			text:  orig[off : off+len(p)],
			start: f.start + off,
			end:   f.start + off + len(p),
		}
		off += len(p)
	}
	return out
}
