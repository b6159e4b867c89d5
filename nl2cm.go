// Package nl2cm is the public API of the NL2CM reproduction: a system
// that translates natural-language questions mixing general and
// individual information needs into OASSIS-QL crowd-mining queries
// (Amsterdamer, Kukliansky and Milo, "NL2CM: A Natural Language Interface
// to Crowd Mining", SIGMOD 2015).
//
// The typical flow is:
//
//	onto := nl2cm.DemoOntology()
//	tr := nl2cm.NewTranslator(onto)
//	res, err := tr.Translate(ctx, "What are the most interesting places near "+
//	    "Forest Hotel, Buffalo, we should visit in the fall?", nl2cm.Options{})
//	fmt.Println(res.Query) // the OASSIS-QL query of the paper's Figure 1
//
//	eng := nl2cm.NewDemoEngine(onto)
//	out, err := eng.Execute(ctx, res.Query) // ontology + simulated crowd
//
// The exported names are aliases of the implementation packages so the
// full documented behaviour lives with the types.
package nl2cm

import (
	"io"

	"nl2cm/internal/compose"
	"nl2cm/internal/core"
	"nl2cm/internal/corpus"
	"nl2cm/internal/crowd"
	"nl2cm/internal/crowdscale"
	"nl2cm/internal/emit"
	"nl2cm/internal/interact"
	"nl2cm/internal/ix"
	"nl2cm/internal/nlp"
	"nl2cm/internal/oassisql"
	"nl2cm/internal/ontology"
	"nl2cm/internal/qcache"
	"nl2cm/internal/qgen"
	"nl2cm/internal/rdf"
	"nl2cm/internal/session"
	"nl2cm/internal/verify"
)

// ---- Translation pipeline ----

// Translator is the NL2CM pipeline (verification, NL parsing, IX
// detection, general query generation, individual triple creation, query
// composition). Reuse one instance so disambiguation feedback
// accumulates; it is safe for concurrent use — see the core package
// comment for the sharing model.
type Translator = core.Translator

// Options configure one translation (interactor, policy, admin trace,
// observer).
type Options = core.Options

// Result is a translation outcome: verdict, dependency graph, IXs,
// general parts, individual parts, the final query, the admin trace and
// the dialogue transcript.
type Result = core.Result

// Stage is one admin-trace entry, including the module's wall-clock
// duration.
type Stage = core.Stage

// StageError attributes a translation failure to the pipeline module
// that raised it; it wraps the cause for errors.Is/As.
type StageError = core.StageError

// Observer receives per-stage start/finish callbacks during a
// translation.
type Observer = core.Observer

// ObserverFunc adapts an end-of-stage callback to Observer.
type ObserverFunc = core.ObserverFunc

// Pipeline stage names, as used in Stage.Module, StageError.Stage and
// Observer callbacks.
const (
	StageVerification = core.StageVerification
	StageParser       = core.StageParser
	StageIXDetector   = core.StageIXDetector
	StageIXVerify     = core.StageIXVerify
	StageGenerator    = core.StageGenerator
	StageIndividual   = core.StageIndividual
	StageComposer     = core.StageComposer
	// StageEmitter renders the composed plan into the extra backend
	// dialects requested via Options.Backends.
	StageEmitter = core.StageEmitter
	// StageCrowd attributes execution-side (crowd.Engine) failures and
	// observer callbacks.
	StageCrowd = core.StageCrowd
	// StagePlanCache is the shape-keyed plan cache probe/rebind that can
	// serve a translation without running the pipeline (Translator.Cache).
	StagePlanCache = core.StagePlanCache
	// StageQueue is the serving daemon's admission-control wait, recorded
	// by cmd/nl2cmd ahead of the pipeline stages.
	StageQueue = core.StageQueue
)

// NewTranslator builds a translator over an ontology with the default IX
// patterns, vocabularies and composition defaults.
func NewTranslator(onto *Ontology) *Translator { return core.New(onto) }

// ---- Plan cache ----

// PlanCache is the shape-keyed translation cache: install one on
// Translator.Cache and repeated (or same-shape) non-interactive
// questions are served from cached plans, re-binding entity slots
// instead of re-running the pipeline. It is safe for concurrent use and
// deduplicates concurrent misses of one shape (single-flight).
type PlanCache = qcache.Cache

// PlanCacheStats is a point-in-time snapshot of a PlanCache's counters
// (hits, rebinds, misses, waits, evictions, entries).
type PlanCacheStats = qcache.Stats

// NewPlanCache builds a plan cache holding up to capacity shapes
// (LRU-evicted beyond); capacity <= 0 uses qcache.DefaultCapacity.
func NewPlanCache(capacity int) *PlanCache { return qcache.New(capacity) }

// ---- Query language ----

// Query is a parsed or composed OASSIS-QL query.
type Query = oassisql.Query

// Subclause is one SATISFYING data pattern with its significance
// criterion.
type Subclause = oassisql.Subclause

// ParseQuery parses OASSIS-QL text.
func ParseQuery(input string) (*Query, error) { return oassisql.Parse(input) }

// ---- Backend emission ----

// Plan is the backend-neutral logical query IR a translation produces
// (Result.Plan): general triple patterns, a projection and an optional
// grouping step plus crowd-mining clauses, each pattern carrying its
// source provenance.
type Plan = emit.Plan

// Backend renders a Plan into one concrete query dialect.
type Backend = emit.Backend

// BackendCaps are a backend's capability flags (crowd clauses, joins,
// filters, variable predicates).
type BackendCaps = emit.Caps

// Rendering is a Plan rendered by one backend: the query text,
// per-clause provenance and capability-fallback notes.
type Rendering = emit.Rendering

// RenderedClause traces one emitted query fragment back to the logical
// pattern and question phrase it derives from.
type RenderedClause = emit.Clause

// DefaultBackend is the backend used when none is named: the paper's
// OASSIS-QL dialect.
const DefaultBackend = emit.DefaultBackend

// Backends lists the backend names, DefaultBackend first.
func Backends() []string { return emit.Names() }

// LookupBackend returns the named backend (false when unknown).
func LookupBackend(name string) (Backend, bool) { return emit.Lookup(name) }

// EmitBackend renders a plan in the named backend's dialect; it fails
// only for an unknown backend name.
func EmitBackend(name string, p *Plan) (*Rendering, error) { return emit.Emit(name, p) }

// ---- Ontologies ----

// Ontology is a general-knowledge base with label and relation indexes.
type Ontology = ontology.Ontology

// DemoOntology returns the merged LinkedGeoData+DBPedia substitute used
// by the demonstration.
func DemoOntology() *Ontology { return ontology.NewDemoOntology() }

// GeoOntology returns the LinkedGeoData substitute alone.
func GeoOntology() *Ontology { return ontology.NewGeoOntology() }

// EncyclopedicOntology returns the DBPedia substitute alone.
func EncyclopedicOntology() *Ontology { return ontology.NewEncyclopedicOntology() }

// ReadOntology loads an ontology from N-Triples data, rebuilding the
// label and class indexes (administrator knowledge-base workflow).
func ReadOntology(name string, r io.Reader) (*Ontology, error) {
	return ontology.ReadNTriples(name, r)
}

// ---- Knowledge store ----

// TripleStore is the epoch-snapshot sharded RDF store backing every
// Ontology: writes batch under a single writer and publish immutable
// snapshots; readers pin one snapshot and never observe a half-applied
// batch.
type TripleStore = rdf.ShardedStore

// StoreSnapshot is an immutable view of the triple store at one epoch.
// All read methods on a snapshot answer from the same published state
// no matter how many batches commit concurrently.
type StoreSnapshot = rdf.Snapshot

// StoreBatch is one atomic store mutation: deletes apply before
// inserts, and the whole batch is rejected if any insert is non-ground.
type StoreBatch = rdf.Batch

// StoreTriple is one (subject, predicate, object) fact.
type StoreTriple = rdf.Triple

// ParseTriples parses N-Triples text into triples suitable for a
// StoreBatch.
func ParseTriples(r io.Reader) ([]StoreTriple, error) { return rdf.ParseNTriples(r) }

// ---- Crowd execution ----

// Engine executes OASSIS-QL queries against an ontology and a simulated
// crowd. Execute takes a context (cancellation between subclauses and
// task batches). Every crowd support goes through one ScaleExecutor,
// whose sampling states memoize supports per (fact key, sample size):
// by default the engine's own, which samples every task in full, or
// Engine.Scale for sequential sampling. An executor owns no goroutines
// between calls, so an engine needs no Close — see Engine.Stats and
// ExecResult's metric fields.
type Engine = crowd.Engine

// Crowd is a simulated population of web users.
type Crowd = crowd.Crowd

// ExecResult is a query execution outcome, including engine metrics
// (tasks issued, cache hits/misses, per-subclause wall-clock).
type ExecResult = crowd.Result

// SubclauseResult is one SATISFYING subclause's evaluation.
type SubclauseResult = crowd.SubclauseResult

// Task is one crowd task with its aggregated support.
type Task = crowd.Task

// NewCrowd builds a crowd of the given size and seed.
func NewCrowd(size int, seed int64) *Crowd { return crowd.NewCrowd(size, seed) }

// NewEngine builds an execution engine.
func NewEngine(onto *Ontology, c *Crowd) *Engine { return crowd.NewEngine(onto, c) }

// NewDemoEngine builds an engine with the demonstration crowd: 100
// members, seed 7, curated truth for the paper's example questions.
func NewDemoEngine(onto *Ontology) *Engine {
	c := crowd.NewCrowd(100, 7)
	c.Truth = crowd.DemoTruth()
	return crowd.NewEngine(onto, c)
}

// DemoTruth returns the curated latent truth behind the demonstration
// crowd (the paper's running-example answer distribution).
func DemoTruth() map[string]float64 { return crowd.DemoTruth() }

// ---- Crowd mining at scale ----

// ScaleExecutor decides crowd tasks by sampling member answers in
// batches, with incremental support aggregation and sequential-sampling
// early termination, and memoizes each task's sampling state across
// calls. Each call fans its batches out over up to GOMAXPROCS
// goroutines and joins them before it returns, so an executor needs no
// Close. Attach one to Engine.Scale to decide significance by
// sequential sampling.
type ScaleExecutor = crowdscale.Executor

// ScaleConfig tunes a ScaleExecutor: its stopping rule. The zero value
// is RuleConfidence.
type ScaleConfig = crowdscale.Config

// ScaleRule selects the sequential-sampling stopping rule.
type ScaleRule = crowdscale.Rule

// The stopping rules: RuleConfidence (Hoeffding/Serfling interval,
// sublinear sample cost) and RuleExact (worst-case bounds, decisions
// provably identical to exhaustive evaluation).
const (
	RuleConfidence = crowdscale.RuleConfidence
	RuleExact      = crowdscale.RuleExact
)

// ScaleSource is a lazily-addressed crowd population: answers derive
// from (member index, fact key) on demand and are never stored.
type ScaleSource = crowdscale.Source

// ScaleStats snapshots a ScaleExecutor's monotonic counters (tasks,
// batches, member answers, early-termination savings, sampling-state
// hits and misses).
type ScaleStats = crowdscale.Stats

// ScaleMetrics is the per-execution counter delta attached to
// ExecResult.Scale when the engine runs with a ScaleExecutor.
type ScaleMetrics = crowd.ScaleMetrics

// EngineStats is the engine-lifetime counter snapshot (executions,
// tasks, support cache, optional scale section) served by /api/stats.
type EngineStats = crowd.EngineStats

// Population is a synthetic crowd of arbitrary size with skew and
// spammer controls; members are derived lazily from (Seed, member,
// key), so a million-member population occupies no memory.
type Population = crowdscale.Population

// NewScaleExecutor builds an executor whose answers come from the crowd
// (its members, truth, noise and spammers).
func NewScaleExecutor(c *Crowd, cfg ScaleConfig) (*ScaleExecutor, error) {
	return crowd.NewScaleExecutor(c, cfg)
}

// NewScaleExecutorFrom builds an executor over any lazy population
// source (e.g. a *Population).
func NewScaleExecutorFrom(src ScaleSource, cfg ScaleConfig) *ScaleExecutor {
	return crowdscale.New(src, cfg)
}

// ---- Interaction ----

// Interactor answers the system's dialogue questions: its one method,
// Ask, receives every question the pipeline poses, and the pipeline
// checks each answer (DialogueQuestion.Check) before using it.
type Interactor = interact.Interactor

// DialogueQuestion is one typed question put to an Interactor: its
// Kind says which DialogueAnswer field applies, and DefaultAnswer gives
// the automatic mode's reply.
type DialogueQuestion = interact.Question

// DialogueAnswer is an Interactor's reply to a DialogueQuestion.
type DialogueAnswer = interact.Answer

// DialogueKind is the shape of a DialogueQuestion.
type DialogueKind = interact.Kind

// The four question kinds: one flag per IXSpan, one DialogueChoice
// index, one number, one flag per DialogueVar.
const (
	KindIXVerify   = interact.KindIXVerify
	KindChoice     = interact.KindChoice
	KindNumber     = interact.KindNumber
	KindProjection = interact.KindProjection
)

// IXSpan is a detected individual expression shown for verification.
type IXSpan = interact.IXSpan

// DialogueChoice is one candidate meaning in a disambiguation question.
type DialogueChoice = interact.Choice

// DialogueVar is one projectable variable in a projection question.
type DialogueVar = interact.VarChoice

// ErrBadAnswer reports an answer that does not fit its question; a
// translation fails with a *StageError wrapping it.
var ErrBadAnswer = interact.ErrBadAnswer

// Policy selects active interaction points.
type Policy = interact.Policy

// AutoInteractor answers every dialogue with its default.
type AutoInteractor = interact.Auto

// ScriptedInteractor replays canned answers (tests, demo scripts).
type ScriptedInteractor = interact.Scripted

// ConsoleInteractor prompts on an io stream (CLI front end).
type ConsoleInteractor = interact.Console

// InteractionPoint identifies one of the four dialogue points.
type InteractionPoint = interact.Point

// The four interaction points, in pipeline order.
const (
	PointIXVerification = interact.PointIXVerification
	PointDisambiguation = interact.PointDisambiguation
	PointSignificance   = interact.PointSignificance
	PointProjection     = interact.PointProjection
)

// InteractivePolicy enables all four interaction points.
func InteractivePolicy() Policy { return interact.Interactive() }

// AutomaticPolicy disables all interaction (the §4.1 mode).
func AutomaticPolicy() Policy { return interact.Automatic() }

// ---- Dialogue sessions ----

// SessionManager owns stateful dialogue sessions: each translation runs
// in its own goroutine and parks at interaction points until a client
// answers (or a deadline substitutes the automatic default). See the
// session package for the lifecycle (capacity, TTL, eviction, metrics).
type SessionManager = session.Manager

// SessionConfig configures a SessionManager.
type SessionConfig = session.Config

// Session is one interactive translation.
type Session = session.Session

// SessionSnapshot is a point-in-time view of a session.
type SessionSnapshot = session.Snapshot

// SessionQuestion is a pending dialogue question, typed by its kind.
type SessionQuestion = session.Question

// SessionAnswer is a client's reply to a pending question.
type SessionAnswer = session.Answer

// SessionMetrics snapshots a manager's lifecycle and per-point dialogue
// counters.
type SessionMetrics = session.Metrics

// NewSessionManager builds a session manager over the config.
func NewSessionManager(cfg SessionConfig) *SessionManager { return session.NewManager(cfg) }

// ---- IX detection (the paper's core contribution) ----

// IXDetector finds and completes Individual eXpressions in dependency
// graphs using declarative patterns and vocabularies.
type IXDetector = ix.Detector

// IXPattern is one declarative detection pattern.
type IXPattern = ix.Pattern

// IX is a completed individual expression.
type IX = ix.IX

// NewIXDetector returns the default detector.
func NewIXDetector() *IXDetector { return ix.NewDetector() }

// ParseIXPatterns parses administrator pattern files.
func ParseIXPatterns(input string) ([]*IXPattern, error) { return ix.ParsePatterns(input) }

// ---- NL parsing ----

// DepGraph is a typed dependency graph.
type DepGraph = nlp.DepGraph

// ParseSentence tokenizes, tags and dependency-parses one sentence.
func ParseSentence(s string) (*DepGraph, error) { return nlp.Parse(s) }

// ---- Verification ----

// Verdict is the question-verification outcome with rephrasing tips.
type Verdict = verify.Verdict

// CheckQuestion verifies a question without translating it.
func CheckQuestion(q string) Verdict { return verify.Check(q) }

// ---- Corpus ----

// Question is one corpus entry with gold annotations.
type Question = corpus.Question

// Corpus returns the embedded forum-style question corpus.
func Corpus() []Question { return corpus.All() }

// ---- Tuning ----

// ComposerDefaults exposes the significance defaults (LIMIT 5,
// THRESHOLD 0.1 as in the paper's Figure 1).
type ComposerDefaults = compose.Defaults

// GeneratorFeedback is the learned disambiguation-ranking store.
type GeneratorFeedback = qgen.Feedback

// LoadFeedback reads a persisted feedback store; a missing file yields
// an empty store.
func LoadFeedback(path string) (*GeneratorFeedback, error) { return qgen.LoadFeedback(path) }
