// Command nl2cm translates natural-language questions into OASSIS-QL
// crowd-mining queries, optionally interacting with the user (IX
// verification, disambiguation, significance values, projection) and
// optionally executing the result against the built-in ontology and
// simulated crowd.
//
// Usage:
//
//	nl2cm [flags] [question...]
//
// With no question on the command line, questions are read from stdin,
// one per line.
//
// Flags:
//
//	-interactive     enable all interaction points (prompts on stdin)
//	-trace           print the administrator-mode module trace
//	-execute         run the query on the OASSIS engine substitute
//	-backend name    emit the query in another dialect (oassisql, sql,
//	                 mongodb, cypher; comma-separate for several)
//	-crowd int       simulated crowd size (default 100)
//	-seed int        crowd seed (default 7)
//	-patterns file   load IX detection patterns from an admin file
//	-vocab dir       load vocabularies (*.txt) from a directory
//	-feedback file   persist disambiguation feedback across runs
//	-dump-config dir write the default patterns and vocabularies to dir
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"nl2cm"
	"nl2cm/internal/ix"
	"nl2cm/internal/qgen"
)

func main() {
	interactive := flag.Bool("interactive", false, "enable user interaction points")
	trace := flag.Bool("trace", false, "print the admin-mode module trace")
	execute := flag.Bool("execute", false, "execute the query on the simulated crowd")
	backend := flag.String("backend", "", "backend dialect(s) to emit, comma-separated: "+strings.Join(nl2cm.Backends(), ", "))
	crowdSize := flag.Int("crowd", 100, "simulated crowd size")
	seed := flag.Int64("seed", 7, "crowd seed")
	patterns := flag.String("patterns", "", "IX detection pattern file")
	vocabDir := flag.String("vocab", "", "vocabulary directory (*.txt)")
	feedback := flag.String("feedback", "", "feedback persistence file")
	ontologyFile := flag.String("ontology", "", "load the knowledge base from an N-Triples file instead of the built-in demo ontology")
	dumpOntology := flag.String("dump-ontology", "", "write the demo ontology as N-Triples to a file and exit")
	dumpConfig := flag.String("dump-config", "", "write default patterns and vocabularies to a directory and exit")
	flag.Parse()

	if *dumpOntology != "" {
		f, err := os.Create(*dumpOntology)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nl2cm:", err)
			os.Exit(1)
		}
		err = nl2cm.DemoOntology().WriteNTriples(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "nl2cm:", err)
			os.Exit(1)
		}
		fmt.Println("wrote demo ontology to", *dumpOntology)
		return
	}

	if *dumpConfig != "" {
		if err := dumpDefaults(*dumpConfig); err != nil {
			fmt.Fprintln(os.Stderr, "nl2cm:", err)
			os.Exit(1)
		}
		fmt.Println("wrote default patterns and vocabularies to", *dumpConfig)
		return
	}

	onto := nl2cm.DemoOntology()
	if *ontologyFile != "" {
		f, err := os.Open(*ontologyFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nl2cm:", err)
			os.Exit(1)
		}
		onto, err = nl2cm.ReadOntology(*ontologyFile, f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "nl2cm:", err)
			os.Exit(1)
		}
	}
	tr := nl2cm.NewTranslator(onto)
	if err := applyAdminConfig(tr, *patterns, *vocabDir, *feedback); err != nil {
		fmt.Fprintln(os.Stderr, "nl2cm:", err)
		os.Exit(1)
	}
	if *feedback != "" {
		defer func() {
			if err := tr.Generator.Feedback.Save(*feedback); err != nil {
				fmt.Fprintln(os.Stderr, "nl2cm:", err)
			}
		}()
	}
	var eng *nl2cm.Engine
	if *execute {
		c := nl2cm.NewCrowd(*crowdSize, *seed)
		c.Truth = nl2cm.DemoTruth()
		eng = nl2cm.NewEngine(onto, c)
	}

	opt := nl2cm.Options{Trace: *trace}
	for _, name := range strings.Split(*backend, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := nl2cm.LookupBackend(name); !ok {
			fmt.Fprintf(os.Stderr, "nl2cm: unknown backend %q (have: %s)\n",
				name, strings.Join(nl2cm.Backends(), ", "))
			os.Exit(1)
		}
		opt.Backends = append(opt.Backends, name)
	}
	if *interactive {
		opt.Interactor = &nl2cm.ConsoleInteractor{R: os.Stdin, W: os.Stderr}
		opt.Policy = nl2cm.InteractivePolicy()
	}

	// Ctrl-C cancels the in-flight translation (dialogues included)
	// instead of killing the process outright, so deferred state (the
	// feedback file) is still saved.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	questions := flag.Args()
	if len(questions) > 0 {
		q := strings.Join(questions, " ")
		if err := handle(ctx, tr, eng, q, opt); err != nil {
			fmt.Fprintln(os.Stderr, "nl2cm:", err)
			os.Exit(1)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		q := strings.TrimSpace(sc.Text())
		if q == "" {
			continue
		}
		if err := handle(ctx, tr, eng, q, opt); err != nil {
			fmt.Fprintln(os.Stderr, "nl2cm:", err)
			if ctx.Err() != nil {
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "nl2cm: reading stdin:", err)
		os.Exit(1)
	}
}

func handle(ctx context.Context, tr *nl2cm.Translator, eng *nl2cm.Engine, question string, opt nl2cm.Options) error {
	res, err := tr.Translate(ctx, question, opt)
	if err != nil {
		return err
	}
	if !res.Verdict.Supported {
		fmt.Printf("This question is not supported (%s): %s\n", res.Verdict.Category, res.Verdict.Reason)
		for _, tip := range res.Verdict.Tips {
			fmt.Println("tip:", tip)
		}
		return nil
	}
	if opt.Trace {
		for _, s := range res.Trace {
			fmt.Printf("---- %s ----\n%s\n", s.Module, strings.TrimRight(s.Output, "\n"))
		}
		fmt.Println("---- Final query ----")
	}
	if len(opt.Backends) == 0 {
		fmt.Println(res.Query)
	}
	for _, name := range opt.Backends {
		rend := res.Renderings[name]
		if len(opt.Backends) > 1 {
			fmt.Printf("-- %s --\n", name)
		}
		fmt.Println(rend.Query)
		for _, n := range rend.Notes {
			fmt.Println("note:", n)
		}
	}
	if eng == nil {
		return nil
	}
	out, err := eng.Execute(ctx, res.Query)
	if err != nil {
		return fmt.Errorf("executing query: %w", err)
	}
	fmt.Printf("\n%d ontology bindings, %d crowd tasks\n", out.WhereBindings, out.TasksIssued)
	for _, sc := range out.Subclauses {
		fmt.Printf("subclause %d:\n", sc.Index+1)
		for _, t := range sc.Tasks {
			mark := " "
			if t.Significant {
				mark = "*"
			}
			fmt.Printf("  %s %.2f  %s\n", mark, t.Support, t.Question)
		}
	}
	fmt.Println("significant bindings:")
	if len(out.Bindings) == 0 {
		fmt.Println("  (none)")
	}
	for _, b := range out.Bindings {
		fmt.Println("  " + b.String())
	}
	return nil
}

// applyAdminConfig loads administrator-provided patterns, vocabularies
// and persisted feedback into the translator.
func applyAdminConfig(tr *nl2cm.Translator, patterns, vocabDir, feedback string) error {
	if patterns != "" {
		ps, err := ix.LoadPatternsFile(patterns)
		if err != nil {
			return err
		}
		tr.Detector.Patterns = ps
	}
	if vocabDir != "" {
		if _, err := ix.LoadVocabularyDir(tr.Detector.Vocabs, vocabDir); err != nil {
			return err
		}
	}
	if feedback != "" {
		f, err := qgen.LoadFeedback(feedback)
		if err != nil {
			return err
		}
		tr.Generator.Feedback = f
	}
	return nil
}

// dumpDefaults writes the shipped patterns and vocabularies so an
// administrator can edit them.
func dumpDefaults(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := ix.WriteDefaultPatterns(filepath.Join(dir, "patterns.ixp")); err != nil {
		return err
	}
	return ix.WriteVocabularyDir(ix.DefaultVocabularies(), filepath.Join(dir, "vocab"))
}
