package ix

import (
	"fmt"
	"strings"

	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// IX pattern types (paper §2.3).
const (
	TypeLexical     = "lexical"
	TypeParticipant = "participant"
	TypeSyntactic   = "syntactic"
)

// Pattern is one declarative IX detection pattern: a SPARQL-like
// selection over the dependency graph. Variables bind to graph nodes;
// triples constrain dependency edges ($head rel $dependent); filters use
// the node functions (POS, TAG, LEMMA, WORD, INDEX) and vocabulary
// membership. ParsePatterns compiles each pattern once into the matcher
// Find runs, so a Pattern's fields are read-only after parsing.
type Pattern struct {
	// Name identifies the pattern in admin tooling and IX provenance.
	Name string
	// Type is the individuality type: lexical, participant or syntactic.
	Type string
	// Uncertain marks the pattern for user verification (Figure 4):
	// matches are shown to the user before being treated as IXs.
	Uncertain bool
	// Anchor is the variable whose binding anchors the IX (typically the
	// verb or the opinion word).
	Anchor string
	// Triples are the edge constraints; Filters the boolean constraints.
	Triples []rdf.Triple
	Filters []sparql.Expr

	m *matcher
}

// String renders the pattern in its declaration syntax.
func (p *Pattern) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PATTERN %s TYPE %s", p.Name, p.Type)
	if p.Uncertain {
		b.WriteString(" UNCERTAIN")
	}
	fmt.Fprintf(&b, " ANCHOR $%s\n{", p.Anchor)
	for i, t := range p.Triples {
		if i > 0 {
			b.WriteString(" .\n ")
		}
		fmt.Fprintf(&b, "%s %s %s", patTerm(t.S), patTerm(t.P), patTerm(t.O))
	}
	for _, f := range p.Filters {
		fmt.Fprintf(&b, "\n FILTER(%s)", f)
	}
	b.WriteString("}")
	return b.String()
}

func patTerm(t rdf.Term) string {
	if t.IsVar() {
		return "$" + t.Value()
	}
	return t.Local()
}

// ParsePatterns parses a pattern file: a sequence of declarations
//
//	PATTERN <name> TYPE <lexical|participant|syntactic> [UNCERTAIN] ANCHOR $<var>
//	{ $x <rel> $y . ... FILTER(...) }
//
// Dependency relations may be written with their Stanford names (nsubj,
// dobj, amod, aux, ...) or with the paper's friendlier aliases (subject,
// object, modifier, auxiliary).
//
// Mistakes that would silently disable a pattern are load errors: an
// anchor or filter variable that no triple binds, an unknown function
// (the node functions are POS, TAG, LEMMA, WORD and INDEX, in any case)
// and a call with other than one argument. Vocabulary names are resolved
// when patterns match, so vocabularies may be loaded after the patterns.
func ParsePatterns(input string) ([]*Pattern, error) {
	lx, err := sparql.NewLexer(input)
	if err != nil {
		return nil, fmt.Errorf("ix: %w", err)
	}
	pp := sparql.NewPatternParser(lx, resolveRel)
	var out []*Pattern
	for lx.Peek().Kind != sparql.TokEOF {
		p, err := parseOne(lx, pp)
		if err != nil {
			return nil, fmt.Errorf("ix: %w", err)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("ix: no patterns in input")
	}
	return out, nil
}

// relAliases maps the paper's friendly relation names onto the parser's
// Stanford labels.
var relAliases = map[string]string{
	"subject":    "nsubj",
	"object":     "dobj",
	"modifier":   "amod",
	"auxiliary":  "aux",
	"adverb":     "advmod",
	"possessor":  "poss",
	"copula":     "cop",
	"complement": "xcomp",
}

func resolveRel(ident string) rdf.Term {
	if canon, ok := relAliases[strings.ToLower(ident)]; ok {
		return rdf.NewIRI(canon)
	}
	return rdf.NewIRI(ident)
}

func parseOne(lx *sparql.Lexer, pp *sparql.PatternParser) (*Pattern, error) {
	expectIdent := func(word string) error {
		t := lx.Next()
		if t.Kind != sparql.TokIdent || !strings.EqualFold(t.Text, word) {
			return fmt.Errorf("expected %s, found %q", word, t.Text)
		}
		return nil
	}
	if err := expectIdent("PATTERN"); err != nil {
		return nil, err
	}
	name := lx.Next()
	if name.Kind != sparql.TokIdent {
		return nil, fmt.Errorf("expected pattern name, found %q", name.Text)
	}
	if err := expectIdent("TYPE"); err != nil {
		return nil, err
	}
	typ := lx.Next()
	if typ.Kind != sparql.TokIdent {
		return nil, fmt.Errorf("expected pattern type, found %q", typ.Text)
	}
	typeName := strings.ToLower(typ.Text)
	switch typeName {
	case TypeLexical, TypeParticipant, TypeSyntactic:
	default:
		return nil, fmt.Errorf("unknown pattern type %q", typ.Text)
	}
	p := &Pattern{Name: name.Text, Type: typeName}
	if t := lx.Peek(); t.Kind == sparql.TokIdent && strings.EqualFold(t.Text, "UNCERTAIN") {
		lx.Next()
		p.Uncertain = true
	}
	if err := expectIdent("ANCHOR"); err != nil {
		return nil, err
	}
	anchor := lx.Next()
	if anchor.Kind != sparql.TokVar {
		return nil, fmt.Errorf("expected anchor variable, found %q", anchor.Text)
	}
	p.Anchor = anchor.Text
	triples, filters, err := pp.GroupPattern()
	if err != nil {
		return nil, err
	}
	p.Triples, p.Filters = triples, filters
	if len(p.Triples) == 0 && len(p.Filters) == 0 {
		return nil, fmt.Errorf("pattern %s is empty", p.Name)
	}
	if p.m, err = compilePattern(p); err != nil {
		return nil, err
	}
	return p, nil
}

// DefaultPatternSource is the pattern set that ships with NL2CM, written
// in the administrator file format. The first pattern is the paper's own
// §2.3 example (a verb with an individual subject); the others cover the
// remaining individuality types identified by the paper's analysis of
// user requests.
const DefaultPatternSource = `
# Participant individuality: a verb whose grammatical subject is an
# individual participant ("we should visit", "where do you eat").
# This is the example pattern of paper §2.3.
PATTERN participant_subject TYPE participant ANCHOR $x
{$x subject $y
FILTER(POS($x) = "verb" && $y IN V_participant)}

# Participant individuality carried by a possessive: "where do my kids eat".
PATTERN participant_possessive TYPE participant ANCHOR $v
{$v subject $s .
$s possessor $p
FILTER(POS($v) = "verb" && $p IN V_participant)}

# Lexical individuality: an opinion adjective modifying a noun
# ("interesting places", "the best thrill ride").
PATTERN lexical_adjective TYPE lexical UNCERTAIN ANCHOR $a
{$n modifier $a
FILTER(POS($a) = "adjective" && LEMMA($a) IN V_sentiment)}

# Lexical individuality: an opinion adjective as copular predicate
# ("Is chocolate milk good for kids?").
PATTERN lexical_predicate TYPE lexical UNCERTAIN ANCHOR $a
{$a copula $c
FILTER(POS($a) = "adjective" && LEMMA($a) IN V_sentiment)}

# Lexical individuality: a participial opinion predicate
# ("Which dish is overrated?").
PATTERN lexical_participle TYPE lexical UNCERTAIN ANCHOR $a
{$a auxpass $c
FILTER($a IN V_sentiment)}

# Lexical individuality: an inherently subjective verb
# ("which camera do you recommend", "dishes people like").
PATTERN lexical_verb TYPE lexical UNCERTAIN ANCHOR $v
{$v subject $s
FILTER(LEMMA($v) IN V_opinion_verb)}

# Syntactic individuality: a verb with a recommendation modal
# ("Obama should visit Buffalo").
PATTERN syntactic_modal TYPE syntactic ANCHOR $v
{$v auxiliary $m
FILTER(POS($v) = "verb" && LEMMA($m) IN V_modal)}
`

// DefaultPatterns parses DefaultPatternSource; it panics on error since
// the source is embedded and covered by tests.
func DefaultPatterns() []*Pattern {
	ps, err := ParsePatterns(DefaultPatternSource)
	if err != nil {
		panic(err)
	}
	return ps
}
