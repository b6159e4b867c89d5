package ontology

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

// refNormalize is the lookup key as it was computed before KeyBuilder:
// one intermediate string per step.
func refNormalize(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.ReplaceAll(s, ",", " ")
	return strings.Join(strings.Fields(s), " ")
}

// FuzzNormalize checks normalize against refNormalize, and KeyBuilder:
// its byte limit reports true exactly when the key fits, and appending
// s in two pieces split at a rune boundary builds the key of s.
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
		var b KeyBuilder
		got, ok := b.Append(nil, s, limit)
		if ok != (len(want) <= limit) {
			t.Fatalf("Append(%q, limit %d) ok = %v, key has %d bytes", s, limit, ok, len(want))
		}
		if ok && string(got) != want {
			t.Fatalf("Append(%q) = %q, want %q", s, got, want)
		}
		// Split at a rune boundary chosen by limit.
		cut := limit % (len(s) + 1)
		for cut > 0 && cut < len(s) && !utf8.RuneStart(s[cut]) {
			cut--
		}
		b = KeyBuilder{}
		got, _ = b.Append(nil, s[:cut], math.MaxInt)
		got, _ = b.Append(got, s[cut:], math.MaxInt)
		if string(got) != want {
			t.Fatalf("Append(%q) then Append(%q) = %q, want %q", s[:cut], s[cut:], got, want)
		}
	})
}

// ResolveEntity and ResolveKey must not allocate, whether the phrase
// resolves, is ambiguous, misses, or normalizes to a key longer than
// any label. A phrase whose key is exactly as long as the longest label
// key must still resolve.
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
		v, key := o.View(), []byte(normalize(c.phrase))
		if _, ok := v.ResolveKey(key); ok != c.resolve {
			t.Fatalf("ResolveKey(%q) ok = %v, want %v", key, ok, c.resolve)
		}
		if n := testing.AllocsPerRun(100, func() { v.ResolveKey(key) }); n != 0 {
			t.Errorf("ResolveKey(%q) made %v allocations, want 0", key, n)
		}
	}
}
