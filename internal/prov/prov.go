// Package prov is NL2CM's span-provenance IR: the shared vocabulary
// through which every pipeline layer records *which input tokens* a
// derived artifact (an IX, a SPARQL triple, an OASSIS-QL triple) came
// from. The NL parser assigns each token a stable ID (its index) and a
// byte span in the original request; downstream modules carry sets of
// those IDs, and the composer resolves them back to spans and source
// text. Exact token-set intersection — not string matching — is what
// drives IX-overlap deletion during query composition, and the final
// core.Result exposes the whole mapping (triple → spans → original
// text) to the UI and the /explain endpoint.
package prov

import (
	"cmp"
	"slices"
	"sort"
	"strings"
)

// Span is a half-open byte range [Start, End) in the original request
// text.
type Span struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Empty reports whether the span covers no bytes.
func (s Span) Empty() bool { return s.End <= s.Start }

// Text returns the bytes the span covers, clamped to the source.
func (s Span) Text(source string) string {
	start, end := s.Start, s.End
	if start < 0 {
		start = 0
	}
	if end > len(source) {
		end = len(source)
	}
	if end <= start {
		return ""
	}
	return source[start:end]
}

// TokenSet is a set of stable token IDs, kept sorted and unique. The
// zero value is the empty set.
type TokenSet []int

// NewTokenSet builds a set from the given IDs, dropping duplicates and
// negatives (negative IDs mark "no source token", e.g. anonymous
// variables). The set is a new slice, nil when no ID is kept.
func NewTokenSet(ids ...int) TokenSet {
	var out TokenSet
	for _, id := range ids {
		if id < 0 {
			continue
		}
		if out == nil {
			out = make(TokenSet, 0, len(ids))
		}
		out = append(out, id)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Add returns the set with id included (negatives are ignored).
func (s TokenSet) Add(id int) TokenSet {
	if id < 0 || s.Contains(id) {
		return s
	}
	out := append(append(TokenSet(nil), s...), id)
	sort.Ints(out)
	return out
}

// Contains reports membership.
func (s TokenSet) Contains(id int) bool {
	i := sort.SearchInts(s, id)
	return i < len(s) && s[i] == id
}

// Empty reports whether the set has no members.
func (s TokenSet) Empty() bool { return len(s) == 0 }

// Union returns the merged set in a new slice, nil when both sets are
// empty.
func (s TokenSet) Union(o TokenSet) TokenSet {
	if len(s)+len(o) == 0 {
		return nil
	}
	out := make(TokenSet, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			out = append(out, s[i])
			i++
		case s[i] > o[j]:
			out = append(out, o[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	return append(out, o[j:]...)
}

// Intersect returns the members present in both sets.
func (s TokenSet) Intersect(o TokenSet) TokenSet {
	var out TokenSet
	for _, id := range s {
		if o.Contains(id) {
			out = append(out, id)
		}
	}
	return out
}

// Record traces one emitted query triple back to its source. Triple is
// the rendered OASSIS-QL form ("$x instanceOf Place"); Clause and
// Subclause locate it in the final query (Subclause is -1 for WHERE
// triples). Spans are merged byte ranges in the original request and
// Text is their excerpt, gaps elided with "...".
type Record struct {
	Triple    string   `json:"triple"`
	Clause    string   `json:"clause"`
	Subclause int      `json:"subclause"`
	Tokens    TokenSet `json:"tokens"`
	Spans     []Span   `json:"spans"`
	Text      string   `json:"text"`
}

// TokenInfo is one token of the "uncovered tokens" report: a content
// word of the request that no emitted triple derives from.
type TokenInfo struct {
	ID   int    `json:"id"`
	Span Span   `json:"span"`
	Text string `json:"text"`
}

// MergeSpans sorts the spans and merges ranges separated only by
// whitespace in the source, so per-token spans collapse into phrase
// spans ("Forest" + "Hills" → "Forest Hills").
//
// The result is a new slice, nil when no span is non-empty: the
// non-empty spans are copied into it, sorted, and merged in place.
func MergeSpans(source string, spans []Span) []Span {
	out := make([]Span, 0, len(spans))
	for _, s := range spans {
		if !s.Empty() {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, func(a, b Span) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.End, b.End)
	})
	n := 1
	for _, s := range out[1:] {
		last := &out[n-1]
		if s.Start <= last.End || strings.TrimSpace(gap(source, last.End, s.Start)) == "" {
			last.End = max(last.End, s.End)
			continue
		}
		out[n] = s
		n++
	}
	return out[:n]
}

// gap returns the source bytes between two offsets, clamped.
func gap(source string, from, to int) string {
	if from < 0 {
		from = 0
	}
	if to > len(source) {
		to = len(source)
	}
	if to <= from {
		return ""
	}
	return source[from:to]
}

// Excerpt renders spans as a source quotation, merged by MergeSpans and
// with gaps elided as "..." — the annotated printer's `# from: "reach
// ... from Forest Hills"` form.
func Excerpt(source string, spans []Span) string {
	return ExcerptMerged(source, MergeSpans(source, spans))
}

// ExcerptMerged is Excerpt of spans that MergeSpans returned: a caller
// that keeps the merged spans too quotes them without merging again.
//
// A single merged span is returned as a substring of source; several are
// written through one strings.Builder, sized up front.
func ExcerptMerged(source string, merged []Span) string {
	if len(merged) == 1 {
		return merged[0].Text(source)
	}
	size := 0
	for _, s := range merged {
		size += len(s.Text(source)) + len(" ... ")
	}
	var b strings.Builder
	b.Grow(size)
	for _, s := range merged {
		t := s.Text(source)
		if t == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" ... ")
		}
		b.WriteString(t)
	}
	return b.String()
}
