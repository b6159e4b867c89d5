package nl2cm

import (
	"context"
	"strings"
	"testing"

	"nl2cm/internal/corpus"
	"nl2cm/internal/oassisql"
)

// Every triple of every emitted query must resolve to at least one
// source token span through Result.Provenance() — corpus-wide.
func TestProvenanceCoversEveryTriple(t *testing.T) {
	tr := NewTranslator(DemoOntology())
	ctx := context.Background()
	for _, q := range corpus.Supported() {
		res, err := tr.Translate(ctx, q.Text, Options{})
		if err != nil {
			t.Errorf("%s: Translate: %v", q.ID, err)
			continue
		}
		if res.Query == nil {
			continue
		}
		var all []string
		for _, t3 := range res.Query.Where.Triples {
			all = append(all, oassisql.TripleString(t3))
		}
		for _, sc := range res.Query.Satisfying {
			for _, t3 := range sc.Pattern.Triples {
				all = append(all, oassisql.TripleString(t3))
			}
		}
		records := res.Provenance()
		for _, key := range all {
			rec, seen := records[key]
			if !seen {
				t.Errorf("%s: triple %q has no provenance record", q.ID, key)
				continue
			}
			if len(rec.Spans) == 0 || rec.Text == "" {
				t.Errorf("%s: triple %q resolves to no source span (tokens %v)", q.ID, key, rec.Tokens)
				continue
			}
			for _, part := range strings.Split(rec.Text, " ... ") {
				if !strings.Contains(q.Text, part) {
					t.Errorf("%s: provenance text %q is not quoted from the question", q.ID, rec.Text)
					break
				}
			}
		}
		// The annotated rendering must re-parse to an equivalent query.
		annotated := res.AnnotatedQuery()
		re, err := ParseQuery(annotated)
		if err != nil {
			t.Errorf("%s: annotated query does not re-parse: %v\n%s", q.ID, err, annotated)
		} else if re.String() != res.Query.String() {
			t.Errorf("%s: annotated query re-parses to a different query\n%s", q.ID, annotated)
		}
	}
}

// OASSIS-QL reads back every query the pipeline prints, the plain
// ontology queries of questions with no individual part included: the
// text parses and prints again byte for byte.
func TestCorpusQueriesReadBack(t *testing.T) {
	tr := NewTranslator(DemoOntology())
	ctx := context.Background()
	plain := 0
	for _, q := range corpus.Supported() {
		res, err := tr.Translate(ctx, q.Text, Options{})
		if err != nil {
			t.Errorf("%s: Translate: %v", q.ID, err)
			continue
		}
		printed := res.Query.String()
		re, err := ParseQuery(printed)
		if err != nil {
			t.Errorf("%s: printed query does not parse: %v\n%s", q.ID, err, printed)
			continue
		}
		if again := re.String(); again != printed {
			t.Errorf("%s: printed query reads back as a different query:\n%s\nvs\n%s", q.ID, printed, again)
		}
		if len(res.Query.Satisfying) == 0 {
			plain++
		}
	}
	if plain == 0 {
		t.Error("no supported question composes a plain ontology query")
	}
}

// The running example's annotated query must quote its source phrases.
func TestAnnotatedQueryRunningExample(t *testing.T) {
	tr := NewTranslator(DemoOntology())
	res, err := tr.Translate(context.Background(),
		"What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?",
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	annotated := res.AnnotatedQuery()
	for _, want := range []string{"# from: ", "\"interesting places\"", "\"places ... visit\"", "\"in ... fall\""} {
		if !strings.Contains(annotated, want) {
			t.Errorf("annotated query missing %q:\n%s", want, annotated)
		}
	}
}
