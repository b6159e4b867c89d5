package emit

import (
	"strconv"
	"strings"
	"unicode/utf8"

	"nl2cm/internal/rdf"
)

// Literal escaping, one function per dialect. Ontology entity names and
// question literals flow into rendered queries verbatim, so every
// emitter must neutralize its dialect's metacharacters — a value like
// `O'Hara` or `a\b` must never yield a syntactically invalid (or
// injectable) query. OASSIS-QL itself uses strconv.Quote in
// oassisql.TermString, which the sparql lexer unescapes symmetrically,
// and writes an entity's local name bare.
//
// Each dialect's escaping of a text inside its string literal is one
// function (sqlEscape, jsonEscape, cypherEscape), which both its
// emitter's literal (sqlString, jsonString, cypherString) and SlotText
// call. A text that needs no escaping is returned as it is, without a
// copy.

// sqlEscape escapes a text for a standard (ANSI) SQL string literal:
// embedded single quotes doubled. ANSI string literals give backslashes
// no special meaning, so `a\b` passes through unchanged.
func sqlEscape(s string) string {
	return strings.ReplaceAll(s, "'", "''")
}

// sqlString renders a standard SQL string literal: single-quoted,
// sqlEscape inside.
func sqlString(s string) string {
	return "'" + sqlEscape(s) + "'"
}

// jsonEscape escapes a text for a JSON string literal of the
// document-filter dialect: strconv.Quote's escaping of quotes,
// backslashes, control and non-printable characters, in JSON-compatible
// form, without the surrounding quotes.
func jsonEscape(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			q := strconv.Quote(s)
			return q[1 : len(q)-1]
		}
	}
	return s
}

// jsonString renders a JSON string literal, jsonEscape inside; it
// equals strconv.Quote(s).
func jsonString(s string) string {
	return `"` + jsonEscape(s) + `"`
}

// cypherEscape escapes a text for a Cypher string literal: backslashes
// and single quotes backslash-escaped, and (as the rune loop writes
// them) invalid UTF-8 bytes as U+FFFD.
func cypherEscape(s string) string {
	plain := true
	for i := 0; i < len(s) && plain; i++ {
		plain = s[i] != '\\' && s[i] != '\'' && s[i] < utf8.RuneSelf
	}
	if plain {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\'':
			b.WriteString(`\'`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// cypherString renders a Cypher string literal: single-quoted,
// cypherEscape inside.
func cypherString(s string) string {
	return "'" + cypherEscape(s) + "'"
}

// SlotText returns an entity as the named dialect writes it where the
// entity's text stands: its local name bare in OASSIS-QL, and inside
// the string literal, escaped by the dialect's escape function, in SQL,
// the document filter and Cypher. The plan cache splices it into the
// templates of a cached entry's renderings (Template).
func SlotText(backend string, t rdf.Term) string {
	switch backend {
	case "sql":
		return sqlEscape(t.Local())
	case "mongodb":
		return jsonEscape(t.Local())
	case "cypher":
		return cypherEscape(t.Local())
	}
	return t.Local()
}

// surface returns a term's dialect-neutral surface value: the bare local
// name for IRIs (matching the OASSIS-QL surface syntax), the lexical
// form for literals, the name for variables and blanks.
func surface(t rdf.Term) string {
	if t.IsIRI() {
		return t.Local()
	}
	return t.Value()
}

// ident renders a variable name as a dialect identifier, mangling any
// character outside [A-Za-z0-9_] to '_' and prefixing a digit-initial
// name. The pipeline only allocates names like "x"/"x12", so this is a
// guard for hand-built plans.
func ident(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			r = '_'
		}
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
		}
		b.WriteRune(r)
	}
	return b.String()
}
