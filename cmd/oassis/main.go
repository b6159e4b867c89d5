// Command oassis executes OASSIS-QL queries against the built-in
// ontologies and the simulated crowd — the stand-in for the OASSIS
// crowd-powered query engine the demonstration connects NL2CM to.
//
// Usage:
//
//	oassis [-crowd n] [-seed n] [-sample n] [query-file]
//
// With no file argument the query is read from stdin. Entity and
// predicate names written as bare identifiers are resolved against the
// demo ontology namespace.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"nl2cm"
	"nl2cm/internal/crowd"
	"nl2cm/internal/ontology"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

func main() {
	crowdSize := flag.Int("crowd", 100, "simulated crowd size")
	seed := flag.Int64("seed", 7, "crowd seed")
	sample := flag.Int("sample", 0, "members asked per task (0 = all)")
	ontologyFile := flag.String("ontology", "", "load the knowledge base from an N-Triples file")
	flag.Parse()

	var src io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "oassis:", err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	text, err := io.ReadAll(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oassis: reading query:", err)
		os.Exit(1)
	}
	q, err := nl2cm.ParseQuery(string(text))
	if err != nil {
		fmt.Fprintln(os.Stderr, "oassis:", err)
		os.Exit(1)
	}
	rebase(q)

	onto := nl2cm.DemoOntology()
	if *ontologyFile != "" {
		f, err := os.Open(*ontologyFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oassis:", err)
			os.Exit(1)
		}
		onto, err = nl2cm.ReadOntology(*ontologyFile, f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "oassis:", err)
			os.Exit(1)
		}
	}
	c := nl2cm.NewCrowd(*crowdSize, *seed)
	c.Truth = crowd.DemoTruth()
	eng := nl2cm.NewEngine(onto, c)
	eng.SampleSize = *sample

	// Ctrl-C cancels the in-flight crowd evaluation instead of killing
	// the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	out, err := eng.Execute(ctx, q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oassis:", err)
		os.Exit(1)
	}
	fmt.Printf("WHERE matched %d bindings; %d crowd tasks issued\n", out.WhereBindings, out.TasksIssued)
	for _, sc := range out.Subclauses {
		fmt.Printf("subclause %d:\n", sc.Index+1)
		for _, t := range sc.Tasks {
			mark := " "
			if t.Significant {
				mark = "*"
			}
			fmt.Printf("  %s support=%.2f  %s\n", mark, t.Support, t.Question)
		}
	}
	fmt.Println("significant bindings:")
	for _, b := range out.Bindings {
		fmt.Println("  " + b.String())
	}
}

// rebase resolves bare identifiers of a hand-written query against the
// ontology namespace: known general predicates and entities move into
// the namespace, in the triples and in the WHERE filters' constants;
// crowd-facing predicates (hasLabel, habit verbs, prepositions) stay
// bare.
func rebase(q *nl2cm.Query) {
	generalPreds := map[string]bool{
		"instanceOf": true, "subClassOf": true, "label": true,
		"near": true, "locatedIn": true, "contains": true, "richIn": true,
		"hasFeature": true, "madeBy": true, "priceRange": true,
		"serves": true, "goodFor": true,
	}
	fix := func(t rdf.Term, predicate bool) rdf.Term {
		if !t.IsIRI() || strings.Contains(t.Value(), "/") {
			return t
		}
		if predicate {
			if generalPreds[t.Value()] {
				return rdf.NewIRI(ontology.NS + t.Value())
			}
			return t
		}
		return ontology.E(t.Value())
	}
	for i, tr := range q.Where.Triples {
		q.Where.Triples[i] = rdf.T(fix(tr.S, false), fix(tr.P, true), fix(tr.O, false))
	}
	for _, f := range q.Where.Filters {
		sparql.Walk(f, func(e sparql.Expr) {
			if c, ok := e.(*sparql.LitExpr); ok && c.Val.Kind == sparql.VTerm {
				c.Val.Term = fix(c.Val.Term, false)
			}
		})
	}
	for s := range q.Satisfying {
		for i, tr := range q.Satisfying[s].Pattern.Triples {
			q.Satisfying[s].Pattern.Triples[i] = rdf.T(fix(tr.S, false), fix(tr.P, true), fix(tr.O, false))
		}
	}
}
