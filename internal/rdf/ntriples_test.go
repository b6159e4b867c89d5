package rdf

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseNTriplesBasic(t *testing.T) {
	in := `
# a comment
<http://ex.org/park> <http://ex.org/instanceOf> <http://ex.org/Place> .
<http://ex.org/park> <http://ex.org/label> "Delaware Park" .
<http://ex.org/park> <http://ex.org/name> "parc"@fr .
<http://ex.org/park> <http://ex.org/size> "42"^^<` + XSDInteger + `> .
_:b0 <http://ex.org/p> _:b1 .
<http://ex.org/park> <http://ex.org/label> "Delaware Park"^^<` + XSDString + `> .
`
	ts, err := ParseNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseNTriples: %v", err)
	}
	if len(ts) != 6 {
		t.Fatalf("parsed %d triples, want 6", len(ts))
	}
	if ts[0].S != NewIRI("http://ex.org/park") {
		t.Errorf("triple 0 subject = %v", ts[0].S)
	}
	if ts[1].O != NewLiteral("Delaware Park") {
		t.Errorf("triple 1 object = %v", ts[1].O)
	}
	if ts[2].O != NewLangLiteral("parc", "fr") {
		t.Errorf("triple 2 object = %v", ts[2].O)
	}
	if ts[3].O != NewTypedLiteral("42", XSDInteger) {
		t.Errorf("triple 3 object = %v", ts[3].O)
	}
	if ts[4].S != NewBlank("b0") || ts[4].O != NewBlank("b1") {
		t.Errorf("triple 4 = %v", ts[4])
	}
	// An xsd:string literal is the plain literal, not a second term.
	if ts[5] != ts[1] {
		t.Errorf("triple 5 = %#v, want the plain-literal triple %#v", ts[5], ts[1])
	}
}

func TestParseNTriplesEscapes(t *testing.T) {
	in := `<http://e/s> <http://e/p> "line\nbreak \"quoted\" tab\tdone" .`
	ts, err := ParseNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseNTriples: %v", err)
	}
	want := "line\nbreak \"quoted\" tab\tdone"
	if ts[0].O.Value() != want {
		t.Fatalf("unescaped literal = %q, want %q", ts[0].O.Value(), want)
	}
}

func TestParseNTriplesErrors(t *testing.T) {
	bad := []string{
		`<http://e/s> <http://e/p> <http://e/o>`,     // missing dot
		`<http://e/s> <http://e/p "lit" .`,           // unterminated IRI
		`<http://e/s> <http://e/p> "unterminated .`,  // unterminated literal
		`<http://e/s> <http://e/p> "x"@ .`,           // empty lang
		`<http://e/s> <http://e/p> "x"^^<noend .`,    // unterminated datatype
		`<http://e/s> <http://e/p> "bad\q escape" .`, // bad escape
		`<http://e/s> %bogus <http://e/o> .`,         // bad predicate
		`_: <http://e/p> <http://e/o> .`,             // empty blank label
		`<http://e/s> <http://e/p> .`,                // missing object
		`<http://e/s> <http://e/p> <> .`,             // empty IRI: the zero Term
	}
	for _, in := range bad {
		if _, err := ParseNTriples(strings.NewReader(in)); err == nil {
			t.Errorf("ParseNTriples(%q) succeeded, want error", in)
		}
	}
}

func TestWriteNTriplesRejectsVariables(t *testing.T) {
	err := WriteNTriples(&bytes.Buffer{}, []Triple{T(NewVar("x"), NewIRI("p"), NewIRI("o"))})
	if err == nil {
		t.Fatal("WriteNTriples accepted a variable, want error")
	}
}

// TestLoadNTriples loads parsed N-Triples into a store the way the
// daemon's store endpoint does: one batch, duplicates counted once.
func TestLoadNTriples(t *testing.T) {
	in := `<http://e/a> <http://e/p> <http://e/b> .
<http://e/a> <http://e/p> <http://e/b> .
<http://e/c> <http://e/p> <http://e/d> .`
	ts, err := ParseNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseNTriples: %v", err)
	}
	s := NewShardedStore(0)
	n, _, _, err := s.Apply(Batch{Insert: ts})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if n != 2 {
		t.Fatalf("added %d, want 2 (one duplicate)", n)
	}
	if s.Snapshot().Len() != 2 {
		t.Fatalf("store Len = %d, want 2", s.Snapshot().Len())
	}
}

// randomLexeme draws a lexical form of arbitrary bytes, so quotes,
// backslashes, control bytes, invalid UTF-8 and non-ASCII all occur.
func randomLexeme(r *rand.Rand) string {
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return string(b)
}

// Property: serialize → parse round-trips any set of ground triples,
// whatever bytes their literals hold.
func TestNTriplesRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var ts []Triple
		for i := 0; i < int(n%20)+1; i++ {
			var o Term
			switch r.Intn(4) {
			case 0:
				o = NewIRI("http://e/o" + string(rune('a'+r.Intn(5))))
			case 1:
				o = NewLiteral(randomLexeme(r))
			case 2:
				o = NewLangLiteral(randomLexeme(r), "en")
			default:
				o = NewTypedLiteral(randomLexeme(r), XSDInteger)
			}
			ts = append(ts, T(NewIRI("http://e/s"), NewIRI("http://e/p"), o))
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, ts); err != nil {
			return false
		}
		got, err := ParseNTriples(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(ts) {
			return false
		}
		for i := range ts {
			if got[i] != ts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzNTriplesRoundTrip: any input that parses must write and re-parse
// to the same triples, so an exported ontology always re-imports.
func FuzzNTriplesRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"<http://e/s> <http://e/p> \"nb\u00a0sp\" .",
		"<http://e/s> <http://e/p> \"ctl\x01byte\" .",
		"<http://e/s> <http://e/p> \"x\"^^<" + XSDString + "> .",
		"<http://e/s> <http://e/p> <> .",
		`<http://e/s> <http://e/p> "line\nbreak \"q\" back\\slash tab\tdone"@en .`,
		"_:b0 <http://e/p> \"42\"^^<" + XSDInteger + "> .\n# comment\n\n_:b0 <http://e/p> \"raw\rcr\" .",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		ts, err := ParseNTriples(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, ts); err != nil {
			t.Fatalf("WriteNTriples(%v): %v", ts, err)
		}
		out := buf.String()
		got, err := ParseNTriples(&buf)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", out, err)
		}
		if len(got) != len(ts) {
			t.Fatalf("re-parse of %q: %d triples, want %d", out, len(got), len(ts))
		}
		for i := range ts {
			if got[i] != ts[i] {
				t.Fatalf("re-parse of %q: triple %d = %#v, want %#v", out, i, got[i], ts[i])
			}
		}
	})
}
