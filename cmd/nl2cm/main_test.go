package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"nl2cm"
)

// captureStdout runs fn with os.Stdout redirected and returns the output.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := fn()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), ferr
}

func TestHandleTranslateOnly(t *testing.T) {
	onto := nl2cm.DemoOntology()
	tr := nl2cm.NewTranslator(onto)
	out, err := captureStdout(t, func() error {
		return handle(context.Background(), tr, nil, "Which hotel in Vegas has the best thrill ride?", nl2cm.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SELECT VARIABLES") || !strings.Contains(out, "Las_Vegas") {
		t.Errorf("output:\n%s", out)
	}
}

func TestHandleUnsupported(t *testing.T) {
	onto := nl2cm.DemoOntology()
	tr := nl2cm.NewTranslator(onto)
	out, err := captureStdout(t, func() error {
		return handle(context.Background(), tr, nil, "How should I store coffee?", nl2cm.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "not supported") || !strings.Contains(out, "tip:") {
		t.Errorf("output:\n%s", out)
	}
}

func TestHandleWithExecution(t *testing.T) {
	onto := nl2cm.DemoOntology()
	tr := nl2cm.NewTranslator(onto)
	eng := nl2cm.NewDemoEngine(onto)
	out, err := captureStdout(t, func() error {
		return handle(context.Background(), tr, eng,
			"What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?",
			nl2cm.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"crowd tasks", "significant bindings", "Delaware_Park"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestHandlePrintsBindingsInVariableOrder: a binding of two variables
// prints them in name order on every run, although a binding is a map
// and Go randomizes map iteration order.
func TestHandlePrintsBindingsInVariableOrder(t *testing.T) {
	onto := nl2cm.DemoOntology()
	tr := nl2cm.NewTranslator(onto)
	eng := nl2cm.NewDemoEngine(onto)
	const want = "  $count = 8, $x = Buffalo,_NY\n"
	for i := 0; i < 50; i++ {
		out, err := captureStdout(t, func() error {
			return handle(context.Background(), tr, eng, "Which city has the most attractions?", nl2cm.Options{})
		})
		if err != nil {
			t.Fatal(err)
		}
		_, rows, ok := strings.Cut(out, "significant bindings:\n")
		if !ok || rows != want {
			t.Fatalf("run %d: binding lines %q, want %q\n%s", i, rows, want, out)
		}
	}
}

func TestHandleWithTrace(t *testing.T) {
	onto := nl2cm.DemoOntology()
	tr := nl2cm.NewTranslator(onto)
	out, err := captureStdout(t, func() error {
		return handle(context.Background(), tr, nil, "Where do you visit in Buffalo?", nl2cm.Options{Trace: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NL Parser", "IX Detector", "Final query"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q", want)
		}
	}
}

func TestApplyAdminConfig(t *testing.T) {
	dir := t.TempDir()
	if err := dumpDefaults(dir); err != nil {
		t.Fatal(err)
	}
	tr := nl2cm.NewTranslator(nl2cm.DemoOntology())
	err := applyAdminConfig(tr,
		dir+"/patterns.ixp",
		dir+"/vocab",
		dir+"/feedback.json", // missing file: fresh store
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Detector.Patterns) == 0 {
		t.Error("patterns not loaded")
	}
	// The reloaded configuration still reproduces the running example.
	res, err := tr.Translate(context.Background(), "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?", nl2cm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Query.Satisfying) != 2 {
		t.Errorf("reloaded config broke translation:\n%s", res.Query)
	}
}

func TestApplyAdminConfigErrors(t *testing.T) {
	tr := nl2cm.NewTranslator(nl2cm.DemoOntology())
	if err := applyAdminConfig(tr, "/nonexistent.ixp", "", ""); err == nil {
		t.Error("missing pattern file accepted")
	}
	if err := applyAdminConfig(tr, "", "/nonexistent-dir", ""); err == nil {
		t.Error("missing vocab dir accepted")
	}
}

func TestOntologyDumpAndReload(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/onto.nt"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := nl2cm.DemoOntology().WriteNTriples(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	onto, err := nl2cm.ReadOntology("custom", g)
	if err != nil {
		t.Fatal(err)
	}
	tr := nl2cm.NewTranslator(onto)
	res, err := tr.Translate(context.Background(), "Which parks are in Buffalo?", nl2cm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Query.Where.Triples) == 0 {
		t.Errorf("reloaded ontology broke translation:\n%s", res.Query)
	}
}
