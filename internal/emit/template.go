package emit

import (
	"strconv"
	"strings"

	"nl2cm/internal/rdf"
)

// A plan-cache entry serves a same-shape question by writing the
// question's entities into the texts it rendered for its own: it renders
// its plan once with each entity slot's term replaced by the slot's
// sentinel IRI (SlotTerm), and cuts every rendered text at the
// sentinels' local names into a Template. A sentinel's local name holds
// letters and digits only, which no dialect's escaping changes, so each
// dialect writes it exactly where it writes the entity; splicing a slot
// writes the entity's text as that dialect writes it (SlotText).

// slotPrefix and slotEnd frame a sentinel's local name,
// "Nl2cmSlot<n>Z": the terminator keeps slot 1 from being a prefix of
// slot 10.
const (
	slotPrefix = "Nl2cmSlot"
	slotEnd    = 'Z'
)

// SlotTerm returns the sentinel IRI that stands for slot n in a
// template rendering.
func SlotTerm(n int) rdf.Term {
	return rdf.NewIRI("urn:nl2cm:slot#" + slotPrefix + strconv.Itoa(n) + string(slotEnd))
}

// Template is a rendered text cut at its slot sentinels: literal
// segments, each followed by a slot, and the text after the last slot.
type Template struct {
	parts []part
	tail  string
}

type part struct {
	lit  string
	slot int
}

// NewTemplate cuts s at the local names of the sentinels of slots 0 to
// n-1. Any other text, a sentinel-like name of a higher slot included,
// stays literal.
func NewTemplate(s string, n int) Template {
	c := strings.Count(s, slotPrefix)
	if c == 0 {
		return Template{tail: s}
	}
	t := Template{parts: make([]part, 0, c)}
	from, at := 0, 0
	for {
		i := strings.Index(s[at:], slotPrefix)
		if i < 0 {
			break
		}
		i += at
		j := i + len(slotPrefix)
		k := j
		for k < len(s) && '0' <= s[k] && s[k] <= '9' {
			k++
		}
		at = j
		if k == j || k == len(s) || s[k] != slotEnd {
			continue
		}
		slot, err := strconv.Atoi(s[j:k])
		if err != nil || slot >= n {
			continue
		}
		t.parts = append(t.parts, part{lit: s[from:i], slot: slot})
		from, at = k+1, k+1
	}
	t.tail = s[from:]
	return t
}

// Slotted reports whether the template holds a slot.
func (t Template) Slotted() bool { return len(t.parts) > 0 }

// Splice writes texts[n] in place of each slot n. A template without
// slots returns its text as it is, without a copy.
func (t Template) Splice(texts []string) string {
	if len(t.parts) == 0 {
		return t.tail
	}
	size := len(t.tail)
	for _, p := range t.parts {
		size += len(p.lit) + len(texts[p.slot])
	}
	var b strings.Builder
	b.Grow(size)
	for _, p := range t.parts {
		b.WriteString(p.lit)
		b.WriteString(texts[p.slot])
	}
	b.WriteString(t.tail)
	return b.String()
}

// Matches reports whether Splice(texts) would return s, without writing
// it.
func (t Template) Matches(texts []string, s string) bool {
	for _, p := range t.parts {
		if !strings.HasPrefix(s, p.lit) || !strings.HasPrefix(s[len(p.lit):], texts[p.slot]) {
			return false
		}
		s = s[len(p.lit)+len(texts[p.slot]):]
	}
	return s == t.tail
}
