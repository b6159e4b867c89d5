package ontology

import (
	"strings"
	"testing"
)

// refNormalize is the lookup key as it was computed before
// appendNormalized: one intermediate string per step.
func refNormalize(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.ReplaceAll(s, ",", " ")
	return strings.Join(strings.Fields(s), " ")
}

// FuzzNormalize checks normalize against refNormalize, and the byte
// limit of appendNormalized: it reports true exactly when the key fits,
// and then appends the same key after whatever dst already holds.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{"", "Forest Hotel, Buffalo, NY", "İstanbul", "\xff", "\u0085", "\u00a0", ",,"} {
		f.Add(s, 8)
	}
	f.Fuzz(func(t *testing.T, s string, limit int) {
		want := refNormalize(s)
		if got := normalize(s); got != want {
			t.Fatalf("normalize(%q) = %q, want %q", s, got, want)
		}
		if limit < 0 {
			limit = -(limit + 1) // no overflow at math.MinInt
		}
		got, ok := appendNormalized([]byte("prefix"), s, limit)
		if ok != (len(want) <= limit) {
			t.Fatalf("appendNormalized(%q, limit %d) ok = %v, key has %d bytes", s, limit, ok, len(want))
		}
		if ok && string(got) != "prefix"+want {
			t.Fatalf("appendNormalized(%q) = %q, want %q", s, got, "prefix"+want)
		}
	})
}

// ResolveEntity is the plan cache's per-n-gram probe: it must not
// allocate, whether the phrase resolves, is ambiguous, misses, or
// normalizes to a key longer than any label. A phrase whose key is
// exactly as long as the longest label key must still resolve.
func TestResolveEntityAllocs(t *testing.T) {
	o := NewDemoOntology()
	if d := o.View(); len(normalize("Forest Hotel, Buffalo, NY")) != d.maxKey {
		t.Fatalf("the longest label key has %d bytes; update the test's longest label", d.maxKey)
	}
	cases := []struct {
		phrase  string
		resolve bool
	}{
		{"Delaware Park", true},
		{"Forest  HOTEL, Buffalo,NY", true},
		{"Buffalo", false},
		{"no such place", false},
		{strings.Repeat("Delaware Park ", 40), false},
	}
	for _, c := range cases {
		if _, ok := o.ResolveEntity(c.phrase); ok != c.resolve {
			t.Fatalf("ResolveEntity(%q) ok = %v, want %v", c.phrase, ok, c.resolve)
		}
		if n := testing.AllocsPerRun(100, func() { o.ResolveEntity(c.phrase) }); n != 0 {
			t.Errorf("ResolveEntity(%q) made %v allocations, want 0", c.phrase, n)
		}
	}
}
