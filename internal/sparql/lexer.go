package sparql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// TokKind classifies lexer tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokVar    // $x or ?x
	TokIRI    // <...>
	TokString // "..."
	TokNumber
	TokPunct // { } ( ) . , ; [ ]
	TokOp    // && || ! = != < <= > >= + - *
	TokAnon  // []
)

// Tok is one lexed token.
type Tok struct {
	Kind TokKind
	Text string
	Num  float64
	Pos  int // byte offset in the input
}

// Lexer tokenizes OASSIS-QL and IX detection pattern text. The host
// parsers and the PatternParser they embed share one Lexer per input.
type Lexer struct {
	in   string
	pos  int
	toks []Tok
	i    int
}

// NewLexer lexes the whole input eagerly and returns a token cursor, or
// an error describing the first bad token.
func NewLexer(in string) (*Lexer, error) {
	l := &Lexer{in: in}
	if err := l.run(); err != nil {
		return nil, err
	}
	return l, nil
}

// Peek returns the current token without consuming it.
func (l *Lexer) Peek() Tok { return l.at(l.i) }

// PeekAhead returns the token n positions ahead (0 = current).
func (l *Lexer) PeekAhead(n int) Tok { return l.at(l.i + n) }

// Next consumes and returns the current token.
func (l *Lexer) Next() Tok {
	t := l.at(l.i)
	if t.Kind != TokEOF {
		l.i++
	}
	return t
}

func (l *Lexer) at(i int) Tok {
	if i < len(l.toks) {
		return l.toks[i]
	}
	return Tok{Kind: TokEOF, Pos: len(l.in)}
}

// Errf formats a parse error at the current token.
func (l *Lexer) Errf(format string, args ...any) error {
	return l.ErrAt(l.Peek(), format, args...)
}

// ErrAt formats a parse error at the line of token t, for a host that
// reports a rule it can only check after reading past t.
func (l *Lexer) ErrAt(t Tok, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	line := 1 + strings.Count(l.in[:min(t.Pos, len(l.in))], "\n")
	return fmt.Errorf("line %d: %s", line, msg)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (l *Lexer) run() error {
	in := l.in
	for l.pos < len(in) {
		c := in[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '#':
			// comment to end of line
			for l.pos < len(in) && in[l.pos] != '\n' {
				l.pos++
			}
		case c == '$' || c == '?':
			start := l.pos
			l.pos++
			for l.pos < len(in) && isIdentByte(in[l.pos]) {
				l.pos++
			}
			name := in[start+1 : l.pos]
			if name == "" {
				return fmt.Errorf("sparql: empty variable name at offset %d", start)
			}
			l.emit(Tok{Kind: TokVar, Text: name, Pos: start})
		case c == '<':
			start := l.pos
			end := strings.IndexByte(in[l.pos:], '>')
			// "<" is an IRI delimiter only when a ">" closes it with no
			// whitespace in between; otherwise it is the less-than
			// operator ("$s <= 400").
			if end < 0 || strings.ContainsAny(in[l.pos+1:l.pos+end], " \t\n") {
				l.lexOp()
				continue
			}
			body := in[l.pos+1 : l.pos+end]
			l.pos += end + 1
			l.emit(Tok{Kind: TokIRI, Text: body, Pos: start})
		case c == '"':
			start := l.pos
			s, n, err := lexString(in[l.pos:])
			if err != nil {
				return fmt.Errorf("sparql: %v at offset %d", err, start)
			}
			l.pos += n
			l.emit(Tok{Kind: TokString, Text: s, Pos: start})
		case c == '[' && l.pos+1 < len(in) && in[l.pos+1] == ']':
			l.emit(Tok{Kind: TokAnon, Text: "[]", Pos: l.pos})
			l.pos += 2
		case c >= '0' && c <= '9':
			start := l.pos
			for l.pos < len(in) && (in[l.pos] >= '0' && in[l.pos] <= '9' || in[l.pos] == '.') {
				l.pos++
			}
			text := in[start:l.pos]
			// trailing '.' is a statement terminator, not part of the number
			text = strings.TrimSuffix(text, ".")
			l.pos = start + len(text)
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return fmt.Errorf("sparql: bad number %q at offset %d", text, start)
			}
			l.emit(Tok{Kind: TokNumber, Text: text, Num: f, Pos: start})
		case isIdentStartByte(c):
			start := l.pos
			for l.pos < len(in) {
				b := in[l.pos]
				if isIdentByte(b) {
					l.pos++
					continue
				}
				// OASSIS-QL entity names embed commas before underscores:
				// Forest_Hotel,_Buffalo,_NY
				if b == ',' && l.pos+1 < len(in) && in[l.pos+1] == '_' {
					l.pos++
					continue
				}
				break
			}
			l.emit(Tok{Kind: TokIdent, Text: in[start:l.pos], Pos: start})
		case strings.IndexByte("{}().,;", c) >= 0:
			l.emit(Tok{Kind: TokPunct, Text: string(c), Pos: l.pos})
			l.pos++
		case strings.IndexByte("&|!=<>+-*", c) >= 0:
			l.lexOp()
		default:
			if unicode.IsPrint(rune(c)) {
				return fmt.Errorf("sparql: unexpected character %q at offset %d", c, l.pos)
			}
			return fmt.Errorf("sparql: unexpected byte 0x%02x at offset %d", c, l.pos)
		}
	}
	return nil
}

func (l *Lexer) lexOp() {
	in := l.in
	start := l.pos
	two := ""
	if l.pos+1 < len(in) {
		two = in[l.pos : l.pos+2]
	}
	switch two {
	case "&&", "||", "!=", "<=", ">=", "==":
		l.pos += 2
		l.emit(Tok{Kind: TokOp, Text: two, Pos: start})
		return
	}
	l.emit(Tok{Kind: TokOp, Text: string(in[l.pos]), Pos: start})
	l.pos++
}

func (l *Lexer) emit(t Tok) { l.toks = append(l.toks, t) }

func isIdentStartByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentByte(c byte) bool {
	return isIdentStartByte(c) || c >= '0' && c <= '9' || c == '\'' || c == '-'
}

// lexString lexes a double-quoted string with backslash escapes,
// returning the unescaped value and the number of input bytes consumed.
// The escapes are Go's (strconv.UnquoteChar), the ones strconv.Quote
// writes, so every printed literal lexes back to its value.
func lexString(in string) (string, int, error) {
	var b strings.Builder
	i := 1
	for i < len(in) {
		c := in[i]
		if c == '\\' {
			v, multibyte, tail, err := strconv.UnquoteChar(in[i:], '"')
			if err != nil {
				return "", 0, fmt.Errorf("bad escape in string at %q", in[i:min(i+4, len(in))])
			}
			if multibyte {
				b.WriteRune(v)
			} else {
				b.WriteByte(byte(v))
			}
			i = len(in) - len(tail)
			continue
		}
		if c == '"' {
			return b.String(), i + 1, nil
		}
		b.WriteByte(c)
		i++
	}
	return "", 0, fmt.Errorf("unterminated string")
}
