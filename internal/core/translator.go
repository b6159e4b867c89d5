// Package core wires NL2CM's modules into the translation pipeline of the
// paper's Figure 2: verification → NL parsing → IX detection (IXFinder +
// IXCreator, with optional user verification) → General Query Generator
// (with optional disambiguation dialogues) → Individual Triple Creation →
// Query Composition (with optional significance and projection
// dialogues). It also produces the administrator-mode trace: the
// intermediate output of every module, with per-stage wall-clock
// durations, in pipeline order.
//
// # Concurrency and cancellation
//
// A Translator is safe for concurrent use: each translation reads one
// immutable ontology view, which store batches and registrations landing
// meanwhile leave alone; detector patterns, vocabularies and composition
// defaults are read-only after construction; and the translator's one
// cross-request mutable state — the disambiguation feedback store
// (qgen.Feedback) — locks internally.
// Administrator reconfiguration (swapping patterns, vocabularies or the
// feedback store) must be done before serving traffic, not while
// translations are in flight. Per-request state (Options, the
// Interactor, the admin trace) is never shared between requests.
//
// Translate honors its context between stages and inside interaction
// points; a cancelled translation returns a *StageError wrapping
// ctx.Err(), attributed to the stage that observed the cancellation.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"nl2cm/internal/compose"
	"nl2cm/internal/emit"
	"nl2cm/internal/individual"
	"nl2cm/internal/interact"
	"nl2cm/internal/ix"
	"nl2cm/internal/nlp"
	"nl2cm/internal/oassisql"
	"nl2cm/internal/ontology"
	"nl2cm/internal/qcache"
	"nl2cm/internal/qgen"
	"nl2cm/internal/verify"
)

// Stage is one admin-mode trace entry: a module's intermediate output
// and how long the module ran.
type Stage struct {
	// Module names the pipeline module ("NL Parser", "IX Detector", ...).
	Module string
	// Output is the module's rendered intermediate output.
	Output string
	// Duration is the module's wall-clock running time.
	Duration time.Duration
}

// Result is the outcome of one translation. Its provenance views
// (Provenance, ProvenanceRecords, AnnotatedQuery, Uncovered and
// CoverageTips) are methods that derive them on each call from
// Question, Graph, IXs and Plan, so a cold, an exact-hit and a rebound
// result all read them one way.
type Result struct {
	// Question is the original NL request.
	Question string
	// Verdict is the verification outcome; when not Supported, the rest
	// of the fields are zero except Trace.
	Verdict verify.Verdict
	// Graph is the parsed dependency graph.
	Graph *nlp.DepGraph
	// IXs are the accepted individual expressions; RejectedIXs those the
	// user declined during verification.
	IXs         []*ix.IX
	RejectedIXs []*ix.IX
	// General is the Query Generator output. A rebound result (see
	// CacheOutcome) leaves it nil, and so Parts, ComposeDecisions and
	// Interactions: they are the cached question's, and name its
	// entities and tokens, not this question's.
	General *qgen.Result
	// Parts are the individual query parts (nil on a rebound result).
	Parts []individual.Part
	// Plan is the backend-neutral logical query IR the composition
	// assembled; every backend rendering (including Query) derives from
	// it.
	Plan *emit.Plan
	// Query is the final OASSIS-QL query: the Plan rendered through the
	// OASSIS-QL backend.
	Query *oassisql.Query
	// Renderings holds the per-backend renderings requested via
	// Options.Backends, keyed by backend name, each with per-clause
	// provenance. Use Render for on-demand rendering of other backends.
	Renderings map[string]*emit.Rendering
	// ComposeDecisions records, per general triple, why composition kept
	// or dropped it (exact IX-overlap token sets); nil on a rebound
	// result.
	ComposeDecisions []compose.Decision
	// CacheOutcome reports how the plan cache served this translation:
	// "miss" (translated cold: the request filled the entry, or the entry
	// it found or waited for could not serve it), "hit" (exact reuse),
	// "rebound" (the cached entry with this question's entities spliced
	// into its entity slots), or "" when the request bypassed the cache
	// (no cache installed, or an interactive request).
	CacheOutcome string
	// DataEpoch is the knowledge-base epoch this translation was served
	// against: the store epoch of the one ontology view the translation
	// read. A cache-served result carries the serving epoch, at which
	// the cache replayed the cached plan's ontology reads unchanged.
	DataEpoch uint64
	// Trace holds the admin-mode intermediate outputs.
	Trace []Stage
	// Interactions is the recorded dialogue transcript (nil on a rebound
	// result).
	Interactions []interact.Exchange

	// oassis is the OASSIS-QL rendering of Plan that a plan-cache entry
	// memoizes when it is filled, so its exact hits render once, and that
	// a rebound writes from the entry's template; nil on results that
	// bypass the cache or are translated cold without filling it.
	oassis *emit.Rendering
}

// Translator is the NL2CM pipeline. Reuse one instance across requests so
// that disambiguation feedback accumulates (§4.1); it is safe for
// concurrent use (see the package comment for the sharing model).
type Translator struct {
	Onto      *ontology.Ontology
	Detector  *ix.Detector
	Generator *qgen.Generator
	Creator   *individual.Creator
	Composer  *compose.Composer

	// Cache, when non-nil, serves non-interactive translations through
	// the shape-keyed plan cache (see the qcache package): questions
	// sharing a canonical shape reuse one cold translation, re-binding
	// entity slots where they differ. Interactive requests (a non-nil
	// Options.Interactor or an asking Policy) always bypass it. Neither
	// store writes, registrations nor recorded disambiguation feedback
	// empty it: an entry is served at another ontology view or feedback
	// version only after the generator's logged reads replay there
	// unchanged. Set it before serving traffic; nil keeps the classic
	// always-cold behavior.
	Cache *qcache.Cache
}

// New builds a translator over the ontology with default detector,
// vocabularies, patterns and composition defaults.
func New(onto *ontology.Ontology) *Translator {
	return &Translator{
		Onto:      onto,
		Detector:  ix.NewDetector(),
		Generator: qgen.New(),
		Creator:   &individual.Creator{},
		Composer:  compose.New(),
	}
}

// Options configure one translation.
type Options struct {
	// Interactor answers dialogue questions; nil means automatic
	// defaults. It must not be shared with a concurrent translation
	// unless itself concurrency-safe (interact.Auto is; Scripted and
	// Recorder are not).
	Interactor interact.Interactor
	// Policy selects which interaction points are active.
	Policy interact.Policy
	// Trace enables admin-mode intermediate output collection.
	Trace bool
	// Observer, when non-nil, receives stage start/finish callbacks with
	// per-stage durations (the observability hook).
	Observer Observer
	// Backends lists extra backend dialects to render the composed plan
	// into (e.g. "sql", "mongodb", "cypher"); the results land in
	// Result.Renderings, each noting the capability fallbacks it applied.
	// An unknown name fails the Backend Emitter stage.
	Backends []string
}

// stageRunner wraps each pipeline module with the cross-cutting
// per-stage concerns: cancellation checks, wall-clock timing, observer
// callbacks, trace collection and StageError attribution.
type stageRunner struct {
	ctx context.Context
	opt Options
	res *Result
}

// run executes one module: body does its work, and trace, called only
// when the translation is traced and body succeeded, renders the
// module's intermediate output (empty to omit the trace entry). Both run
// inside the stage's span, so its duration covers the rendering. run
// returns body's error attributed to the stage.
func (s *stageRunner) run(name string, body func() error, trace func() string) error {
	if err := s.ctx.Err(); err != nil {
		return &StageError{Stage: name, Err: err}
	}
	if s.opt.Observer != nil {
		s.opt.Observer.StageStart(name)
	}
	start := time.Now()
	err := body()
	var out string
	if err == nil && s.opt.Trace {
		out = trace()
	}
	d := time.Since(start)
	if s.opt.Observer != nil {
		s.opt.Observer.StageEnd(name, d, err)
	}
	if err != nil {
		var se *StageError
		if errors.As(err, &se) {
			return err // already attributed (nested stage)
		}
		return &StageError{Stage: name, Err: err}
	}
	if out != "" {
		s.res.Trace = append(s.res.Trace, Stage{Module: name, Output: out, Duration: d})
	}
	return nil
}

// Translate runs the full pipeline on one NL question. The context
// bounds the whole translation, including user dialogues: cancellation
// or deadline expiry aborts between stages and inside interaction
// points, returning a *StageError that wraps ctx.Err(). When a plan
// cache is installed (Translator.Cache) and the request is
// non-interactive, the pipeline may be skipped entirely in favor of a
// cached same-shape translation.
//
// The returned Result is the caller's to modify: a cached translation
// is served as a copy, never as the object the cache holds. What its
// fields point to (the graph, plan, IXs, maps) may be shared with the
// cache and with other results, and must not be modified.
func (t *Translator) Translate(ctx context.Context, question string, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t.cacheable(opt) {
		return t.translateCached(ctx, question, opt)
	}
	return t.translate(ctx, t.Onto.View(), question, opt)
}

// translate is the always-cold pipeline: the seven Figure-2 stages plus
// the optional backend emitter. Every ontology read of the translation
// goes through the view v.
func (t *Translator) translate(ctx context.Context, v *ontology.View, question string, opt Options) (*Result, error) {
	res := &Result{Question: question, DataEpoch: v.Epoch()}
	st := &stageRunner{ctx: ctx, opt: opt, res: res}

	// Record the dialogue when tracing.
	interactor := opt.Interactor
	if interactor == nil {
		interactor = interact.Auto{}
	}
	var rec *interact.Recorder
	if opt.Trace {
		rec = &interact.Recorder{Inner: interactor}
		interactor = rec
	}
	collectDialogue := func() {
		if rec != nil {
			res.Interactions = rec.Transcript()
		}
	}

	// 1. Verification.
	if err := st.run(StageVerification, func() error {
		res.Verdict = verify.Check(question)
		return nil
	}, func() string {
		if !res.Verdict.Supported {
			return fmt.Sprintf("unsupported (%s): %s", res.Verdict.Category, res.Verdict.Reason)
		}
		return "supported"
	}); err != nil {
		return nil, err
	}
	if !res.Verdict.Supported {
		collectDialogue()
		return res, nil
	}

	// 2. NL parsing (POS tags + dependency graph).
	if err := st.run(StageParser, func() error {
		g, err := nlp.Parse(question)
		if err != nil {
			return fmt.Errorf("parsing question: %w", err)
		}
		res.Graph = g
		return nil
	}, func() string { return res.Graph.String() }); err != nil {
		return nil, err
	}
	g := res.Graph

	// 3. IX detection: IXFinder + IXCreator.
	var ixs []*ix.IX
	if err := st.run(StageIXDetector, func() error {
		var err error
		ixs, err = t.Detector.Detect(ctx, g)
		if err != nil {
			return fmt.Errorf("detecting IXs: %w", err)
		}
		return nil
	}, func() string { return renderIXs(g, ixs) }); err != nil {
		return nil, err
	}

	// 3b. Optional user verification of (uncertain) IXs (Figure 4).
	if err := st.run(StageIXVerify, func() error {
		var err error
		res.IXs, res.RejectedIXs, err = t.verifyIXs(ctx, question, g, ixs, interactor, opt.Policy)
		return err
	}, func() string {
		if len(res.RejectedIXs) == 0 {
			return "" // nothing rejected: no trace entry, as before
		}
		return renderIXs(g, res.IXs) + "rejected:\n" + renderIXs(g, res.RejectedIXs)
	}); err != nil {
		collectDialogue()
		return nil, err
	}

	// 4. General Query Generator (FREyA role) on the full request.
	if err := st.run(StageGenerator, func() error {
		var err error
		res.General, err = t.Generator.Generate(ctx, v, g, qgen.Options{
			Interactor: interactor,
			Policy:     opt.Policy,
		})
		if err != nil {
			return fmt.Errorf("generating general query parts: %w", err)
		}
		return nil
	}, func() string { return renderGeneral(res.General) }); err != nil {
		collectDialogue()
		return nil, err
	}

	// 5. Individual Triple Creation on the accepted IXs.
	if err := st.run(StageIndividual, func() error {
		var err error
		res.Parts, err = t.Creator.Create(ctx, g, res.IXs, res.General)
		if err != nil {
			return fmt.Errorf("creating individual triples: %w", err)
		}
		return nil
	}, func() string { return renderParts(res.Parts) }); err != nil {
		collectDialogue()
		return nil, err
	}

	// 6. Query Composition: the plan, whose pattern token sets the
	// Result's provenance views derive from, and the decisions.
	if err := st.run(StageComposer, func() error {
		out, err := t.Composer.Compose(ctx, compose.Input{
			Graph:      g,
			IXs:        res.IXs,
			General:    res.General,
			Parts:      res.Parts,
			Interactor: interactor,
			Policy:     opt.Policy,
		})
		if err != nil {
			return fmt.Errorf("composing query: %w", err)
		}
		res.Plan = out.Plan
		res.Query = out.Query
		res.ComposeDecisions = out.Decisions
		return nil
	}, func() string { return res.Query.String() }); err != nil {
		collectDialogue()
		return nil, err
	}

	// 7. Backend Emitter: render the logical plan into any extra
	// requested dialects. Skipped entirely when none are requested, so
	// the classic pipeline stays seven stages.
	if len(opt.Backends) > 0 {
		if err := st.run(StageEmitter, func() error {
			res.Renderings = make(map[string]*emit.Rendering, len(opt.Backends))
			for _, name := range opt.Backends {
				rend, err := res.Render(name)
				if err != nil {
					return fmt.Errorf("rendering backend %q: %w", name, err)
				}
				res.Renderings[name] = rend
			}
			return nil
		}, func() string {
			var b strings.Builder
			for _, name := range opt.Backends {
				rend := res.Renderings[name]
				fmt.Fprintf(&b, "-- %s --\n%s\n", name, rend.Query)
				for _, n := range rend.Notes {
					fmt.Fprintf(&b, "note: %s\n", n)
				}
			}
			return b.String()
		}); err != nil {
			collectDialogue()
			return nil, err
		}
	}
	collectDialogue()
	return res, nil
}

// Render returns the plan rendered in the named backend dialect,
// reusing a rendering already produced via Options.Backends, or the
// OASSIS-QL rendering a plan-cache entry memoized or a rebound spliced,
// when present. The
// OASSIS-QL rendering prints Query, which is that backend's structure of
// Plan. It fails only for an unknown backend or a result without a plan
// (an unsupported question).
func (r *Result) Render(backend string) (*emit.Rendering, error) {
	if rend, ok := r.Renderings[backend]; ok {
		return rend, nil
	}
	if r.Plan == nil {
		return nil, fmt.Errorf("nl2cm: no logical plan to render (unsupported or failed translation)")
	}
	if backend == emit.DefaultBackend && r.Query != nil {
		if r.oassis != nil {
			return r.oassis, nil
		}
		return emit.OassisRendering(r.Plan, r.Query), nil
	}
	return emit.Emit(backend, r.Plan)
}

// verifyIXs runs the Figure-4 dialogue: detected IXs are shown for
// confirmation. Depending on the policy, all IXs or only uncertain ones
// are asked about; with interaction disabled, all are accepted.
func (t *Translator) verifyIXs(ctx context.Context, question string, g *nlp.DepGraph, ixs []*ix.IX,
	interactor interact.Interactor, policy interact.Policy) (accepted, rejected []*ix.IX, err error) {
	if !policy.Asks(interact.PointIXVerification) || len(ixs) == 0 {
		return ixs, nil, nil
	}
	var toAsk []*ix.IX
	for _, x := range ixs {
		if policy.OnlyWhenUncertain && !x.Uncertain {
			accepted = append(accepted, x)
			continue
		}
		toAsk = append(toAsk, x)
	}
	if len(toAsk) == 0 {
		return accepted, nil, nil
	}
	spans := make([]interact.IXSpan, len(toAsk))
	for i, x := range toAsk {
		start, end := x.Span()
		bs := x.ByteSpan(g)
		spans[i] = interact.IXSpan{
			Text:      x.Text(g),
			Start:     start,
			End:       end,
			ByteStart: bs.Start,
			ByteEnd:   bs.End,
			Source:    x.SourceText(g),
			Type:      strings.Join(x.Types, "+"),
			Pattern:   patternNames(x),
			Uncertain: x.Uncertain,
		}
	}
	answers, err := interact.VerifyIXs(ctx, interactor, question, spans)
	if err != nil {
		return nil, nil, fmt.Errorf("verifying IXs: %w", err)
	}
	for i, x := range toAsk {
		if answers[i] {
			accepted = append(accepted, x)
		} else {
			rejected = append(rejected, x)
		}
	}
	return accepted, rejected, nil
}

func patternNames(x *ix.IX) string {
	var names []string
	for _, p := range x.Patterns {
		names = append(names, p.Name)
	}
	return strings.Join(names, ",")
}

func renderIXs(g *nlp.DepGraph, ixs []*ix.IX) string {
	if len(ixs) == 0 {
		return "(none)\n"
	}
	var b strings.Builder
	for _, x := range ixs {
		fmt.Fprintf(&b, "IX %q type=%s uncertain=%v anchor=%q\n",
			x.Text(g), strings.Join(x.Types, "+"), x.Uncertain, g.Nodes[x.Anchor].Text)
	}
	return b.String()
}

func renderGeneral(r *qgen.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "target: $%s\n", r.TargetVar)
	for _, t := range r.Triples {
		fmt.Fprintf(&b, "%s .\n", oassisql.TripleString(t.Triple))
	}
	if len(r.Unmatched) > 0 {
		fmt.Fprintf(&b, "unmatched: %s\n", strings.Join(r.Unmatched, ", "))
	}
	return b.String()
}

func renderParts(parts []individual.Part) string {
	if len(parts) == 0 {
		return "(none)\n"
	}
	var b strings.Builder
	for i, p := range parts {
		fmt.Fprintf(&b, "part %d (%s):\n", i+1, p.Description)
		for _, t := range p.Triples {
			fmt.Fprintf(&b, "  %s %s %s .\n",
				oassisql.TermString(t.S), oassisql.TermString(t.P), oassisql.TermString(t.O))
		}
	}
	return b.String()
}
