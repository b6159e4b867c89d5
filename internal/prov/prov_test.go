package prov

import (
	"reflect"
	"testing"
)

func TestTokenSetOps(t *testing.T) {
	s := NewTokenSet(3, 1, 3, -2, 5)
	want := TokenSet{1, 3, 5}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("NewTokenSet = %v, want %v", s, want)
	}
	if !s.Contains(3) || s.Contains(2) || s.Contains(-2) {
		t.Errorf("Contains wrong on %v", s)
	}
	o := NewTokenSet(2, 3)
	if got := s.Intersect(o); !reflect.DeepEqual(got, TokenSet{3}) {
		t.Errorf("Intersect = %v, want [3]", got)
	}
	if got := s.Union(o); !reflect.DeepEqual(got, TokenSet{1, 2, 3, 5}) {
		t.Errorf("Union = %v", got)
	}
	if !TokenSet(nil).Empty() || s.Empty() {
		t.Error("Empty wrong")
	}
	// Add must not mutate the receiver's backing array visibly.
	base := NewTokenSet(1, 5)
	a := base.Add(3)
	b := base.Add(4)
	if !reflect.DeepEqual(a, TokenSet{1, 3, 5}) || !reflect.DeepEqual(b, TokenSet{1, 4, 5}) {
		t.Errorf("Add aliasing: a=%v b=%v", a, b)
	}
}

func TestMergeSpansAndExcerpt(t *testing.T) {
	src := "reach the falls from Forest Hills today"
	spans := []Span{
		{Start: 21, End: 27}, // Forest
		{Start: 0, End: 5},   // reach
		{Start: 28, End: 33}, // Hills
		{Start: 16, End: 20}, // from
	}
	merged := MergeSpans(src, spans)
	want := []Span{{Start: 0, End: 5}, {Start: 16, End: 33}}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("MergeSpans = %v, want %v", merged, want)
	}
	if got, want := Excerpt(src, spans), "reach ... from Forest Hills"; got != want {
		t.Errorf("Excerpt = %q, want %q", got, want)
	}
	if got := Excerpt(src, nil); got != "" {
		t.Errorf("Excerpt(nil) = %q", got)
	}
}

// TestExcerptAllocations: Excerpt merges in a stack buffer, so a
// quotation that merges to one span allocates nothing, and one of
// several merged spans allocates only its text.
func TestExcerptAllocations(t *testing.T) {
	src := "reach the falls from Forest Hills today"
	for _, c := range []struct {
		spans []Span
		want  float64
	}{
		{[]Span{{Start: 28, End: 33}, {Start: 21, End: 27}}, 0},                     // "Forest Hills"
		{[]Span{{Start: 21, End: 27}, {Start: 0, End: 5}, {Start: 28, End: 33}}, 1}, // "reach ... Forest Hills"
	} {
		if got := testing.AllocsPerRun(10, func() { Excerpt(src, c.spans) }); got != c.want {
			t.Errorf("Excerpt(%q) allocates %.0f times, want %.0f", Excerpt(src, c.spans), got, c.want)
		}
	}
}

func TestSpanText(t *testing.T) {
	if got := (Span{Start: -3, End: 100}).Text("abc"); got != "abc" {
		t.Errorf("clamped Text = %q", got)
	}
	if got := (Span{Start: 2, End: 1}).Text("abc"); got != "" {
		t.Errorf("inverted Text = %q", got)
	}
}
