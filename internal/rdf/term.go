// Package rdf provides the RDF data substrate used throughout NL2CM: terms
// (IRIs, literals, blank nodes, variables), triples, and an indexed
// in-memory triple store with N-Triples I/O.
//
// The store backs both the general-knowledge ontologies queried by the
// SPARQL engine and the dependency-graph encoding matched by the IX
// detection patterns.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the lexical category of a Term.
type Kind int

// Term kinds, ordered so that sorting by Kind groups concrete terms before
// variables.
const (
	KindIRI Kind = iota
	KindLiteral
	KindBlank
	KindVariable
)

func (k Kind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindLiteral:
		return "literal"
	case KindBlank:
		return "blank"
	case KindVariable:
		return "variable"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Term is a single RDF term. The zero value is the empty IRI, which is not
// valid in a graph; construct terms with NewIRI, NewLiteral, NewBlank or
// NewVar.
type Term struct {
	kind Kind
	// value holds the IRI string, literal lexical form, blank node label,
	// or variable name (without the leading "$" or "?").
	value string
	// datatype holds the literal datatype IRI; empty means xsd:string.
	datatype string
	// lang holds the literal language tag, if any.
	lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{kind: KindIRI, value: iri} }

// NewLiteral returns a plain string literal term.
func NewLiteral(lex string) Term { return Term{kind: KindLiteral, value: lex} }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lex, lang string) Term {
	return Term{kind: KindLiteral, value: lex, lang: lang}
}

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{kind: KindLiteral, value: lex, datatype: datatype}
}

// NewIntLiteral returns an xsd:integer literal.
func NewIntLiteral(v int64) Term {
	return NewTypedLiteral(strconv.FormatInt(v, 10), XSDInteger)
}

// NewFloatLiteral returns an xsd:double literal.
func NewFloatLiteral(v float64) Term {
	return NewTypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), XSDDouble)
}

// NewBlank returns a blank node with the given label.
func NewBlank(label string) Term { return Term{kind: KindBlank, value: label} }

// NewVar returns a query variable term. The name must not include a
// leading "$" or "?" sigil.
func NewVar(name string) Term { return Term{kind: KindVariable, value: name} }

// Common XSD datatype IRIs.
const (
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
)

// Kind reports the term's kind.
func (t Term) Kind() Kind { return t.kind }

// Value returns the IRI string, literal lexical form, blank label, or
// variable name, depending on the kind.
func (t Term) Value() string { return t.value }

// Datatype returns the literal datatype IRI (empty for plain literals and
// non-literals).
func (t Term) Datatype() string { return t.datatype }

// Lang returns the literal language tag, if any.
func (t Term) Lang() string { return t.lang }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.kind == KindIRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.kind == KindLiteral }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.kind == KindBlank }

// IsVar reports whether the term is a query variable.
func (t Term) IsVar() bool { return t.kind == KindVariable }

// IsConcrete reports whether the term is ground data (not a variable).
func (t Term) IsConcrete() bool { return t.kind != KindVariable }

// Int returns the literal's integer value. ok is false when the term is
// not a numeric literal.
func (t Term) Int() (v int64, ok bool) {
	if t.kind != KindLiteral {
		return 0, false
	}
	v, err := strconv.ParseInt(t.value, 10, 64)
	return v, err == nil
}

// Float returns the literal's floating-point value. ok is false when the
// term is not a numeric literal.
func (t Term) Float() (v float64, ok bool) {
	if t.kind != KindLiteral {
		return 0, false
	}
	v, err := strconv.ParseFloat(t.value, 64)
	return v, err == nil
}

// Equal reports whether two terms are identical.
func (t Term) Equal(o Term) bool { return t == o }

// Compare orders terms by kind first; within literals, numeric lexical
// forms compare by value and sort before non-numeric forms, so ORDER BY
// over counts and measures is numeric ("2" < "9" < "10") rather than
// lexicographic. Numeric ties (e.g. "1" vs "01" vs "1.0") and all
// non-numeric literals fall back to value, then datatype, then lang,
// keeping Compare a total order consistent with Equal (zero only for
// identical terms). It returns -1, 0 or +1.
func (t Term) Compare(o Term) int {
	switch {
	case t.kind != o.kind:
		if t.kind < o.kind {
			return -1
		}
		return 1
	case t.kind == KindLiteral:
		tf, tok := t.Float()
		of, ook := o.Float()
		switch {
		case tok && ook:
			if tf != of {
				if tf < of {
					return -1
				}
				return 1
			}
		case tok:
			return -1 // numbers order before strings
		case ook:
			return 1
		}
	}
	switch {
	case t.value != o.value:
		if t.value < o.value {
			return -1
		}
		return 1
	case t.datatype != o.datatype:
		if t.datatype < o.datatype {
			return -1
		}
		return 1
	case t.lang != o.lang:
		if t.lang < o.lang {
			return -1
		}
		return 1
	}
	return 0
}

// String renders the term in N-Triples-like syntax: IRIs in angle
// brackets, literals quoted, blank nodes with a "_:" prefix and variables
// with a "$" sigil (OASSIS-QL style). A literal escapes only '"', '\',
// LF and CR, the escapes ParseNTriples reads, and writes every other
// byte raw, so WriteNTriples output re-parses to the same terms.
func (t Term) String() string {
	switch t.kind {
	case KindIRI:
		return "<" + t.value + ">"
	case KindLiteral:
		var b strings.Builder
		b.Grow(len(t.value) + 2)
		b.WriteByte('"')
		for i := 0; i < len(t.value); i++ {
			switch c := t.value[i]; c {
			case '"', '\\':
				b.WriteByte('\\')
				b.WriteByte(c)
			case '\n':
				b.WriteString(`\n`)
			case '\r':
				b.WriteString(`\r`)
			default:
				b.WriteByte(c)
			}
		}
		b.WriteByte('"')
		if t.lang != "" {
			b.WriteString("@" + t.lang)
		} else if t.datatype != "" && t.datatype != XSDString {
			b.WriteString("^^<" + t.datatype + ">")
		}
		return b.String()
	case KindBlank:
		return "_:" + t.value
	case KindVariable:
		return "$" + t.value
	default:
		return "?!invalid"
	}
}

// Local returns the local name of an IRI (the fragment after the last '#'
// or '/'), or the term value unchanged for other kinds. It is what the
// OASSIS-QL printer shows for ontology entities.
func (t Term) Local() string {
	if t.kind != KindIRI {
		return t.value
	}
	v := t.value
	if i := strings.LastIndexAny(v, "#/"); i >= 0 && i+1 < len(v) {
		return v[i+1:]
	}
	return v
}
