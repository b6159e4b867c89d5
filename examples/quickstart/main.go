// Quickstart: translate the paper's running example into OASSIS-QL and
// print the query of Figure 1, then run it on the simulated crowd.
package main

import (
	"context"
	"fmt"
	"log"

	"nl2cm"
)

func main() {
	// 1. Build the general-knowledge ontology (the LinkedGeoData +
	// DBPedia substitute) and a translator over it.
	onto := nl2cm.DemoOntology()
	translator := nl2cm.NewTranslator(onto)

	// 2. Translate a natural-language question that mixes general data
	// (places near a hotel) with individual data (interestingness
	// opinions, visiting habits).
	question := "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?"
	res, err := translator.Translate(context.Background(), question, nl2cm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Verdict.Supported {
		log.Fatalf("question not supported: %s", res.Verdict.Reason)
	}
	fmt.Println("OASSIS-QL query:")
	fmt.Println(res.Query)

	// 3. Execute the query: the WHERE clause runs on the ontology, the
	// SATISFYING clause on a simulated crowd of 100 members.
	engine := nl2cm.NewDemoEngine(onto)
	out, err := engine.Execute(context.Background(), res.Query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d ontology bindings, %d crowd tasks issued\n", out.WhereBindings, out.TasksIssued)
	fmt.Println("significant answers:")
	view := onto.View() // label every answer in one view of the ontology
	for _, b := range out.Bindings {
		fmt.Println("  -", view.Label(b["x"]))
	}
}
