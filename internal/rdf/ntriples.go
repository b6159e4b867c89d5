package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteNTriples serializes the triples to w in N-Triples syntax, one
// statement per line, in a form ParseNTriples reads back to the same
// triples. Variables are rejected because N-Triples is a data format.
func WriteNTriples(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range triples {
		if !t.IsGround() {
			return fmt.Errorf("rdf: cannot serialize non-ground triple %v", t)
		}
		if _, err := fmt.Fprintf(bw, "%s %s %s .\n", t.S, t.P, t.O); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseNTriples reads N-Triples statements from r. Lines that are empty or
// start with '#' are skipped. The supported grammar covers IRIs, plain,
// language-tagged and datatyped literals, and blank nodes.
func ParseNTriples(r io.Reader) ([]Triple, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Triple
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseNTLine(line)
		if err != nil {
			return nil, fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rdf: reading n-triples: %w", err)
	}
	return out, nil
}

func parseNTLine(line string) (Triple, error) {
	p := &ntParser{in: line}
	s, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	pr, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.skipSpace()
	if !p.eat('.') {
		return Triple{}, fmt.Errorf("missing terminating '.' in %q", line)
	}
	return T(s, pr, o), nil
}

type ntParser struct {
	in  string
	pos int
}

func (p *ntParser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *ntParser) eat(c byte) bool {
	if p.pos < len(p.in) && p.in[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *ntParser) term() (Term, error) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return Term{}, fmt.Errorf("unexpected end of statement")
	}
	switch p.in[p.pos] {
	case '<':
		end := strings.IndexByte(p.in[p.pos:], '>')
		if end < 0 {
			return Term{}, fmt.Errorf("unterminated IRI")
		}
		iri := p.in[p.pos+1 : p.pos+end]
		if iri == "" {
			// NewIRI("") is the zero Term, which callers use to mean
			// "no term"; it is never data.
			return Term{}, fmt.Errorf("empty IRI")
		}
		p.pos += end + 1
		return NewIRI(iri), nil
	case '"':
		return p.literal()
	case '_':
		if p.pos+1 >= len(p.in) || p.in[p.pos+1] != ':' {
			return Term{}, fmt.Errorf("malformed blank node")
		}
		start := p.pos + 2
		end := start
		for end < len(p.in) && p.in[end] != ' ' && p.in[end] != '\t' {
			end++
		}
		label := p.in[start:end]
		if label == "" {
			return Term{}, fmt.Errorf("empty blank node label")
		}
		p.pos = end
		return NewBlank(label), nil
	default:
		return Term{}, fmt.Errorf("unexpected character %q", p.in[p.pos])
	}
}

func (p *ntParser) literal() (Term, error) {
	// p.in[p.pos] == '"'
	var b strings.Builder
	i := p.pos + 1
	for i < len(p.in) {
		c := p.in[i]
		if c == '\\' {
			if i+1 >= len(p.in) {
				return Term{}, fmt.Errorf("dangling escape in literal")
			}
			switch p.in[i+1] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return Term{}, fmt.Errorf("unsupported escape \\%c", p.in[i+1])
			}
			i += 2
			continue
		}
		if c == '"' {
			break
		}
		b.WriteByte(c)
		i++
	}
	if i >= len(p.in) {
		return Term{}, fmt.Errorf("unterminated literal")
	}
	p.pos = i + 1 // past closing quote
	lex := b.String()
	// Optional language tag or datatype.
	if p.pos < len(p.in) && p.in[p.pos] == '@' {
		start := p.pos + 1
		end := start
		for end < len(p.in) && p.in[end] != ' ' && p.in[end] != '\t' {
			end++
		}
		lang := p.in[start:end]
		if lang == "" {
			return Term{}, fmt.Errorf("empty language tag")
		}
		p.pos = end
		return NewLangLiteral(lex, lang), nil
	}
	if strings.HasPrefix(p.in[p.pos:], "^^<") {
		rest := p.in[p.pos+3:]
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			return Term{}, fmt.Errorf("unterminated datatype IRI")
		}
		dt := rest[:end]
		p.pos += 3 + end + 1
		if dt == XSDString {
			// The same RDF term as the plain literal, which is how
			// Term.String writes it back.
			return NewLiteral(lex), nil
		}
		return NewTypedLiteral(lex, dt), nil
	}
	return NewLiteral(lex), nil
}
