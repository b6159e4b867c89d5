package prov

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The functions below are NewTokenSet, Union, MergeSpans and Excerpt as
// they were written before the linear merges: NewTokenSet and Union
// re-sorted a copy once per added ID, MergeSpans sorted with sort.Slice
// into a second slice, and Excerpt joined a slice of parts.
// TestProvMatchesReference checks the current ones against them.

func refNewTokenSet(ids ...int) TokenSet {
	var out TokenSet
	for _, id := range ids {
		if id >= 0 {
			out = out.Add(id)
		}
	}
	return out
}

func refUnion(s, o TokenSet) TokenSet {
	out := append(TokenSet(nil), s...)
	for _, id := range o {
		out = out.Add(id)
	}
	return out
}

func refMergeSpans(source string, spans []Span) []Span {
	var in []Span
	for _, s := range spans {
		if !s.Empty() {
			in = append(in, s)
		}
	}
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool {
		if in[i].Start != in[j].Start {
			return in[i].Start < in[j].Start
		}
		return in[i].End < in[j].End
	})
	out := []Span{in[0]}
	for _, s := range in[1:] {
		last := &out[len(out)-1]
		if s.Start <= last.End || strings.TrimSpace(gap(source, last.End, s.Start)) == "" {
			if s.End > last.End {
				last.End = s.End
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

func refExcerpt(source string, spans []Span) string {
	merged := refMergeSpans(source, spans)
	parts := make([]string, 0, len(merged))
	for _, s := range merged {
		if t := s.Text(source); t != "" {
			parts = append(parts, t)
		}
	}
	return strings.Join(parts, " ... ")
}

// randIDs draws token IDs with duplicates and negatives.
func randIDs(rng *rand.Rand) []int {
	ids := make([]int, rng.Intn(12))
	for i := range ids {
		ids[i] = rng.Intn(16) - 3
	}
	return ids
}

// randSet draws a token set: nil, empty but non-nil, or built by
// NewTokenSet.
func randSet(rng *rand.Rand) TokenSet {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return TokenSet{}
	}
	return NewTokenSet(randIDs(rng)...)
}

// randSpans draws spans over a source of n bytes: overlapping, adjacent,
// empty, inverted, and reaching before or past the source.
func randSpans(rng *rand.Rand, n int) []Span {
	if rng.Intn(8) == 0 {
		return nil
	}
	spans := make([]Span, rng.Intn(10))
	for i := range spans {
		start := rng.Intn(n+6) - 3
		spans[i] = Span{Start: start, End: start + rng.Intn(10) - 2}
	}
	return spans
}

func TestProvMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sources := []string{"", "reach the falls from Forest Hills today", "a  b,c  d", "x", "   \t "}
	for iter := 0; iter < 20000; iter++ {
		ids := randIDs(rng)
		ids0 := slices.Clone(ids)
		if got, want := NewTokenSet(ids...), refNewTokenSet(ids...); !reflect.DeepEqual(got, want) {
			t.Fatalf("NewTokenSet(%v) = %#v, want %#v", ids, got, want)
		}
		if !reflect.DeepEqual(ids, ids0) {
			t.Fatalf("NewTokenSet changed its input: %v (was %v)", ids, ids0)
		}

		s, o := randSet(rng), randSet(rng)
		s0, o0 := slices.Clone(s), slices.Clone(o)
		got, want := s.Union(o), refUnion(s, o)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v.Union(%v) = %#v, want %#v", s, o, got, want)
		}
		if len(got) > 0 {
			got[0] = -100 // the result must not share memory with an input
		}
		if !reflect.DeepEqual(s, s0) || !reflect.DeepEqual(o, o0) {
			t.Fatalf("Union changed its inputs: %v, %v (were %v, %v)", s, o, s0, o0)
		}

		src := sources[rng.Intn(len(sources))]
		spans := randSpans(rng, len(src))
		spans0 := slices.Clone(spans)
		gotSpans, wantSpans := MergeSpans(src, spans), refMergeSpans(src, spans)
		if !reflect.DeepEqual(gotSpans, wantSpans) {
			t.Fatalf("MergeSpans(%q, %v) = %#v, want %#v", src, spans, gotSpans, wantSpans)
		}
		if !reflect.DeepEqual(spans, spans0) {
			t.Fatalf("MergeSpans changed its input: %v (was %v)", spans, spans0)
		}
		if got, want := Excerpt(src, spans), refExcerpt(src, spans); got != want {
			t.Fatalf("Excerpt(%q, %v) = %q, want %q", src, spans, got, want)
		}
	}
}
