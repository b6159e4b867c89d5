package crowd

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nl2cm/internal/core"
	"nl2cm/internal/crowdscale"
	"nl2cm/internal/oassisql"
	"nl2cm/internal/ontology"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// Engine is the OASSIS query engine substitute: it evaluates OASSIS-QL
// queries against an ontology (WHERE) and a simulated crowd (SATISFYING).
//
// Every crowd support goes through one crowdscale.Executor, whose
// sampling states are the engine's support memo: Scale when set, else
// the engine's own executor over Crowd, which samples every task in full
// (fixed full sampling). An executor owns no goroutines between calls,
// so an engine needs no Close.
//
// Execute is safe for concurrent use once the engine is configured;
// reconfiguration (Crowd, SampleSize, Truth, …) must happen before
// serving traffic, and must be followed by ResetCache, since memoized
// sampling states are keyed only on (fact key, sample size).
type Engine struct {
	Onto  *ontology.Ontology
	Crowd *Crowd
	// SampleSize is the number of crowd members asked per pattern; 0
	// means the whole population.
	SampleSize int
	// OpenVarLimit caps instantiations of variables that the WHERE
	// clause leaves unbound (open crowd mining); 0 means 50.
	OpenVarLimit int
	// Observer, when non-nil, receives core.StageCrowd start/end
	// callbacks around the whole execution and one "SATISFYING n" stage
	// per subclause. An Observer shared across concurrent executions
	// must be safe for concurrent use.
	Observer core.Observer
	// Scale, when non-nil, answers the engine's supports instead of its
	// own executor and decides significance by sequential sampling:
	// answers arrive in batches and each task stops as soon as its
	// stopping rule (RuleExact or RuleConfidence) decides it. Build one
	// with NewScaleExecutor (answers from the Crowd) or crowdscale.New
	// over any Source (e.g. a million-member crowdscale.Population).
	Scale *crowdscale.Executor

	// own is the engine's fixed-sample executor over Crowd, built on
	// first use.
	ownOnce sync.Once
	own     *crowdscale.Executor

	// Engine-lifetime counters: monotonic for the life of the process
	// (ResetCache never rewinds them — see its contract).
	execs atomic.Uint64
	tasks atomic.Uint64
}

// NewEngine builds an engine over the ontology with the given crowd.
func NewEngine(onto *ontology.Ontology, c *Crowd) *Engine {
	return &Engine{Onto: onto, Crowd: c}
}

// fixed returns the engine's own executor over Crowd.
func (e *Engine) fixed() *crowdscale.Executor {
	e.ownOnce.Do(func() { e.own = crowdscale.New(engineCrowd{e}, crowdscale.Config{}) })
	return e.own
}

// executor returns the executor that answers the engine's supports.
func (e *Engine) executor() *crowdscale.Executor {
	if e.Scale != nil {
		return e.Scale
	}
	return e.fixed()
}

// EngineStats is a snapshot of the engine-lifetime counters, shaped for
// the daemon's /api/stats endpoint. All counts are monotonic per
// process (ResetCache drops cached state, never counters), so deltas
// between successive snapshots are meaningful.
type EngineStats struct {
	// Executions counts Execute calls that reached evaluation.
	Executions uint64 `json:"executions"`
	// TasksIssued counts crowd tasks generated across all executions.
	TasksIssued uint64 `json:"tasks_issued"`
	// SupportCacheHits / SupportCacheMisses count the support memo's
	// outcomes, one per task: the sampling-state hits and misses of the
	// executor that answers the engine's supports.
	SupportCacheHits   uint64 `json:"support_cache_hits"`
	SupportCacheMisses uint64 `json:"support_cache_misses"`
	// CrowdSize and SampleSize describe the configured crowd.
	CrowdSize  int `json:"crowd_size"`
	SampleSize int `json:"sample_size,omitempty"`
	// Scale carries the Scale executor's counters when the engine runs
	// with one (early-termination savings, sampling states, …).
	Scale *crowdscale.Stats `json:"scale,omitempty"`
}

// Stats snapshots the engine-lifetime counters. Safe for concurrent use
// with Execute and ResetCache.
func (e *Engine) Stats() EngineStats {
	xs := e.executor().Stats()
	st := EngineStats{
		Executions:         e.execs.Load(),
		TasksIssued:        e.tasks.Load(),
		SupportCacheHits:   xs.StateHits,
		SupportCacheMisses: xs.StateMisses,
		SampleSize:         e.SampleSize,
	}
	if e.Crowd != nil {
		st.CrowdSize = e.Crowd.Size
	}
	if e.Scale != nil {
		st.Scale = &xs
	}
	return st
}

// ResetCache drops the memoized sampling states of the engine's own
// executor and, when attached, of Scale. Call it after changing the
// crowd, its Truth, or SampleSize.
//
// Contract: counters (Stats) are engine-lifetime and monotonic;
// ResetCache never rewinds them, so stats readers observe monotone
// values across resets. Safe to call concurrently with Execute —
// executions in flight write no states back into the emptied memo.
func (e *Engine) ResetCache() {
	e.fixed().Reset()
	if e.Scale != nil {
		e.Scale.Reset()
	}
}

// Task is one crowd task: a ground data pattern posed to crowd members,
// with its aggregated support.
type Task struct {
	// Binding is the first variable assignment that grounded the
	// pattern; distinct bindings grounding to the same fact-set share
	// one task (and all survive when it is significant).
	Binding sparql.Binding
	// Triples is the ground fact-set.
	Triples []rdf.Triple
	// Key is the canonical fact-set key.
	Key string
	// Question is the natural-language form posed to the crowd.
	Question string
	// Support is the aggregated answer.
	Support float64
	// Significant reports whether the pattern passed its subclause's
	// criterion.
	Significant bool
}

// SubclauseResult is the evaluation of one SATISFYING subclause.
type SubclauseResult struct {
	// Index is the subclause position (0-based).
	Index int
	// Tasks are all issued crowd tasks, sorted by descending support.
	Tasks []Task
	// Duration is the subclause's wall-clock evaluation time.
	Duration time.Duration
}

// Significant returns the tasks that passed the criterion.
func (r *SubclauseResult) Significant() []Task {
	var out []Task
	for _, t := range r.Tasks {
		if t.Significant {
			out = append(out, t)
		}
	}
	return out
}

// Result is a full query evaluation.
type Result struct {
	// Bindings are the significant variable bindings: assignments that
	// pass every subclause, projected per the SELECT clause.
	Bindings []sparql.Binding
	// Subclauses are the per-subclause evaluations.
	Subclauses []SubclauseResult
	// WhereBindings counts ontology matches before crowd filtering.
	WhereBindings int
	// TasksIssued counts the crowd tasks generated.
	TasksIssued int
	// CacheHits and CacheMisses count support-memo outcomes during this
	// execution, one per task (TasksIssued == CacheHits + CacheMisses):
	// the executor's sampling-state hits and misses. Approximate when
	// concurrent executions share the executor.
	CacheHits   int
	CacheMisses int
	// Scale, when the engine ran with a Scale executor, holds the
	// executor counter deltas attributable to this execution: member
	// answers asked, answers early termination saved, batches. Approximate
	// when concurrent executions share the executor.
	Scale *ScaleMetrics
	// Elapsed is the execution's wall-clock time.
	Elapsed time.Duration
}

// Execute evaluates the query. A query Validate refuses fails first,
// before any WHERE row or crowd task, with a *core.StageError (stage
// core.StageCrowd) that wraps the Validate error. The context bounds the
// whole execution: cancellation or deadline expiry aborts the WHERE
// evaluation (which looks at ctx at a fixed stride of candidate
// matches), and aborts between subclauses and between crowd-task
// batches, returning a *core.StageError (stage core.StageCrowd) that
// wraps ctx.Err().
func (e *Engine) Execute(ctx context.Context, q *oassisql.Query) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q == nil {
		return nil, fmt.Errorf("crowd: nil query")
	}
	if err := q.Validate(); err != nil {
		return nil, &core.StageError{Stage: core.StageCrowd, Err: err}
	}
	start := time.Now()
	e.execs.Add(1)
	x := e.executor()
	before := x.Stats()
	if e.Observer != nil {
		e.Observer.StageStart(core.StageCrowd)
	}
	res, err := e.execute(ctx, q, x)
	if e.Observer != nil {
		e.Observer.StageEnd(core.StageCrowd, time.Since(start), err)
	}
	if res != nil {
		d := x.Stats().Delta(before)
		res.CacheHits, res.CacheMisses = int(d.StateHits), int(d.StateMisses)
		if e.Scale != nil {
			res.Scale = &d
		}
		res.Elapsed = time.Since(start)
	}
	return res, err
}

func (e *Engine) execute(ctx context.Context, q *oassisql.Query, x *crowdscale.Executor) (*Result, error) {
	// Pin one ontology view for the whole execution: the WHERE
	// evaluation, the open-variable expansion and the task texts below
	// must agree on one epoch even while the daemon applies write
	// batches.
	view := e.Onto.View()
	// 1. WHERE against the ontology.
	whereQ := &sparql.Query{Where: q.Where.Triples, Filters: q.Where.Filters, Limit: -1}
	bindings, err := sparql.Eval(ctx, whereQ, view.Snapshot())
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, &core.StageError{Stage: core.StageCrowd, Err: ctxErr}
		}
		return nil, fmt.Errorf("crowd: evaluating WHERE: %w", err)
	}
	res := &Result{WhereBindings: len(bindings)}
	if len(q.Satisfying) == 0 {
		if q.Agg != nil {
			bindings = applyAggregation(q, bindings)
		}
		res.Bindings = bindings
		return res, nil
	}

	// 2. Each subclause filters the bindings by crowd support.
	surviving := bindings
	for i, sc := range q.Satisfying {
		if err := ctx.Err(); err != nil {
			return nil, &core.StageError{Stage: core.StageCrowd, Err: err}
		}
		stage := fmt.Sprintf("SATISFYING %d", i+1)
		if e.Observer != nil {
			e.Observer.StageStart(stage)
		}
		scStart := time.Now()
		scRes, kept, err := e.evalSubclause(ctx, i, sc, surviving, x, view)
		d := time.Since(scStart)
		if e.Observer != nil {
			e.Observer.StageEnd(stage, d, err)
		}
		if err != nil {
			return nil, err
		}
		scRes.Duration = d
		res.Subclauses = append(res.Subclauses, *scRes)
		res.TasksIssued += len(scRes.Tasks)
		e.tasks.Add(uint64(len(scRes.Tasks)))
		surviving = kept
	}

	// 3. Analytic extension: the grouping step runs over the rows the
	// crowd let through, so a counting query over crowd-filtered data
	// counts only significant patterns.
	if q.Agg != nil {
		surviving = applyAggregation(q, surviving)
	}

	// 4. Projection.
	res.Bindings = project(surviving, q.Select)
	return res, nil
}

// applyAggregation applies the query's aggregation extension — grouping,
// counts, ordering and the result window — to already-computed rows.
func applyAggregation(q *oassisql.Query, rows []sparql.Binding) []sparql.Binding {
	aggQ := &sparql.Query{
		GroupBy: q.Agg.GroupBy,
		Aggs:    q.Agg.Aggs,
		OrderBy: q.Agg.OrderBy,
		Limit:   -1,
	}
	if q.Agg.Limit > 0 {
		aggQ.Limit = q.Agg.Limit
	}
	return sparql.AggregateBindings(aggQ, rows)
}

// taskGroup is one crowd task together with every binding that grounds
// to its fact-set.
type taskGroup struct {
	task     Task
	bindings []sparql.Binding
}

// evalSubclause grounds the subclause pattern under each binding, asks
// the crowd (one task per distinct ground fact-set, answered by the
// executor x), applies the significance criterion and returns the
// surviving bindings. Its ontology reads go to the execution's view.
func (e *Engine) evalSubclause(ctx context.Context, idx int, sc oassisql.Subclause, bindings []sparql.Binding, x *crowdscale.Executor, view *ontology.View) (*SubclauseResult, []sparql.Binding, error) {
	expanded, err := e.expandOpenVars(sc, bindings, view)
	if err != nil {
		return nil, nil, err
	}
	scRes := &SubclauseResult{Index: idx}
	// Group bindings by the fact key of their grounded pattern: the
	// crowd is asked once per distinct ground fact-set, but every
	// binding of a significant group survives — distinct bindings may
	// ground to the same fact-set when the pattern uses only a subset
	// of the bound variables.
	var groups []*taskGroup
	byKey := map[string]*taskGroup{}
	for _, b := range expanded {
		ground := groundPattern(sc.Pattern.Triples, b)
		key := FactKey(ground)
		g, ok := byKey[key]
		if !ok {
			g = &taskGroup{task: Task{
				Binding:  b,
				Triples:  ground,
				Key:      key,
				Question: verbalize(view, ground),
			}}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.bindings = append(g.bindings, b)
	}
	keys := make([]string, len(groups))
	for i, g := range groups {
		keys[i] = g.task.Key
	}

	// The branch picks a decision rule, not a support path: Scale
	// decides significance itself by sequential sampling, on
	// estimates; the engine's own executor samples every task in full
	// and the criterion applies to the exact supports. groups are in
	// first-appearance order here — the tie-break order both
	// applySignificance and the sequential sampler guarantee.
	sequential := e.Scale != nil
	if sequential {
		if err := e.evalScale(ctx, idx, sc, x, keys, groups); err != nil {
			return nil, nil, err
		}
	} else {
		supports, err := x.Supports(ctx, keys, e.SampleSize)
		if err != nil {
			return nil, nil, &core.StageError{Stage: core.StageCrowd, Err: err}
		}
		for i, g := range groups {
			g.task.Support = supports[i]
		}
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].task.Support > groups[j].task.Support })

	// Significance (the sequential path already decided it per task).
	if !sequential {
		supports := make([]float64, len(groups))
		for i, g := range groups {
			supports[i] = g.task.Support
		}
		sig, err := applySignificance(idx, sc, supports)
		if err != nil {
			return nil, nil, err
		}
		for i, g := range groups {
			g.task.Significant = sig[i]
		}
	}
	var kept []sparql.Binding
	for _, g := range groups {
		scRes.Tasks = append(scRes.Tasks, g.task)
		if g.task.Significant {
			kept = append(kept, g.bindings...)
		}
	}
	return scRes, kept, nil
}

// applySignificance marks which of the support values (sorted
// descending, as evalSubclause produces them) pass the subclause's
// criterion: support >= threshold, or membership in the top k (bottom k
// when the ORDER is ascending). Ties at the k boundary resolve by the
// incoming (stable, first-appearance) order.
func applySignificance(idx int, sc oassisql.Subclause, supports []float64) ([]bool, error) {
	sig := make([]bool, len(supports))
	switch {
	case sc.Threshold != nil:
		for i, s := range supports {
			sig[i] = s >= *sc.Threshold
		}
	case sc.TopK != nil:
		order := make([]int, len(supports))
		for i := range order {
			order[i] = i
		}
		if !sc.TopK.Desc {
			// ascending: lowest-support first
			sort.SliceStable(order, func(a, b int) bool {
				return supports[order[a]] < supports[order[b]]
			})
		}
		for rank, i := range order {
			if rank < sc.TopK.K {
				sig[i] = true
			}
		}
	default:
		return nil, fmt.Errorf("crowd: subclause %d has no significance criterion", idx+1)
	}
	return sig, nil
}

// verbDomains approximates the semantic domain of the objects the crowd
// would propose for an open variable of a habit verb: OASSIS lets crowd
// members suggest terms; the simulation draws suggestions from the class
// a competent member would pick from.
var verbDomains = map[string]string{
	"eat": "Food", "cook": "Dish", "bake": "Dish", "drink": "Beverage",
	"order": "Dish", "serve": "Dish", "store": "Food",
	"visit": "Place", "go": "Place", "see": "Place", "stay": "Hotel",
	"explore": "Place", "hike": "Place", "walk": "Place",
	"buy": "Product", "shop": "Product", "recommend": "Place",
	"watch": "Show", "ride": "Ride",
}

// expandOpenVars instantiates subclause variables that the incoming
// bindings leave unbound (open crowd mining: "which places do you
// visit?") over the ontology's entities — restricted to the domain of
// the pattern's habit verb when one is known — capped at OpenVarLimit.
// Boundness is decided per binding: a row that binds every pattern
// variable passes through unchanged even when other rows expand. Only
// incoming rows expand: no rows (a WHERE that matched nothing, or an
// earlier subclause that kept nothing) yield no rows, while a WHERE-less
// query arrives as one empty row and expands fully.
func (e *Engine) expandOpenVars(sc oassisql.Subclause, bindings []sparql.Binding, view *ontology.View) ([]sparql.Binding, error) {
	pvars := sc.Pattern.Vars()
	anyOpen := false
	for _, b := range bindings {
		for _, v := range pvars {
			if _, ok := b[v]; !ok {
				anyOpen = true
				break
			}
		}
		if anyOpen {
			break
		}
	}
	if !anyOpen {
		return bindings, nil
	}
	limit := e.OpenVarLimit
	if limit <= 0 {
		limit = 50
	}
	entities := e.candidateEntities(sc, limit, view)
	maxRows := limit * limit
	var out []sparql.Binding
	for _, b := range bindings {
		var open []string
		for _, v := range pvars {
			if _, ok := b[v]; !ok {
				open = append(open, v)
			}
		}
		if len(open) == 0 {
			out = append(out, b)
			continue
		}
		// The row expands to len(entities)^len(open) rows: check the cap
		// before building any of them. size saturates just past the cap
		// before a product could exceed it, so it cannot overflow.
		size := 1
		for range open {
			if len(entities) > 0 && size > maxRows/len(entities) {
				size = maxRows + 1
				break
			}
			size *= len(entities)
		}
		if len(out)+size > maxRows {
			return nil, fmt.Errorf("crowd: open-variable expansion too large (%d)", len(out)+size)
		}
		rows := []sparql.Binding{b}
		for _, v := range open {
			var next []sparql.Binding
			for _, rb := range rows {
				for _, ent := range entities {
					nb := rb.Clone()
					nb[v] = ent
					next = append(next, nb)
				}
			}
			rows = next
		}
		out = append(out, rows...)
	}
	return out, nil
}

// candidateEntities returns the entities an open variable ranges over:
// the verb's domain class when known, otherwise everything with an
// instanceOf fact, capped at limit. All reads run against the
// execution's pinned view.
func (e *Engine) candidateEntities(sc oassisql.Subclause, limit int, view *ontology.View) []rdf.Term {
	var entities []rdf.Term
	if class, ok := e.patternDomain(sc); ok {
		entities = view.InstancesOf(class)
	}
	if len(entities) == 0 {
		seen := map[rdf.Term]bool{}
		view.Snapshot().MatchFunc(rdf.T(rdf.NewVar("s"), ontology.PredInstanceOf, rdf.NewVar("c")), func(t rdf.Triple) bool {
			if !seen[t.S] && !view.IsClass(t.S) {
				seen[t.S] = true
				entities = append(entities, t.S)
			}
			return true
		})
		sort.Slice(entities, func(i, j int) bool { return entities[i].Compare(entities[j]) < 0 })
	}
	if len(entities) > limit {
		entities = entities[:limit]
	}
	return entities
}

// patternDomain finds the domain class of a subclause's habit verb.
func (e *Engine) patternDomain(sc oassisql.Subclause) (rdf.Term, bool) {
	for _, t := range sc.Pattern.Triples {
		if class, ok := verbDomains[t.P.Local()]; ok {
			return ontology.E(class), true
		}
	}
	return rdf.Term{}, false
}

// groundPattern substitutes a binding into the pattern. Anonymous
// variables remain (they render as [] and aggregate over participants).
func groundPattern(pattern []rdf.Triple, b sparql.Binding) []rdf.Triple {
	sub := func(t rdf.Term) rdf.Term {
		if t.IsVar() && !oassisql.IsAnonVar(t.Value()) {
			if bt, ok := b[t.Value()]; ok {
				return bt
			}
		}
		return t
	}
	out := make([]rdf.Triple, len(pattern))
	for i, t := range pattern {
		out[i] = rdf.T(sub(t.S), sub(t.P), sub(t.O))
	}
	return out
}

// project applies the SELECT clause to the surviving bindings,
// deduplicating rows.
func project(bindings []sparql.Binding, sel oassisql.SelectClause) []sparql.Binding {
	var out []sparql.Binding
	seen := map[string]bool{}
	for _, b := range bindings {
		nb := sparql.Binding{}
		if sel.All {
			for k, v := range b {
				nb[k] = v
			}
		} else {
			for _, v := range sel.Vars {
				if t, ok := b[v]; ok {
					nb[v] = t
				}
			}
		}
		key := sparql.BindingKey(nb)
		if !seen[key] {
			seen[key] = true
			out = append(out, nb)
		}
	}
	return out
}

// Verbalize renders a ground fact-set as the natural-language question
// posed to crowd members, using the labels of the ontology's current
// view: habit patterns become frequency questions, label patterns
// become agreement questions. An execution verbalizes its tasks with
// the labels of the view it pinned.
func (e *Engine) Verbalize(ground []rdf.Triple) string { return verbalize(e.Onto.View(), ground) }

func verbalize(view *ontology.View, ground []rdf.Triple) string {
	label := func(t rdf.Term) string {
		if t.IsLiteral() {
			return t.Value()
		}
		if t.IsVar() {
			// Anonymous subjects are the asked member ("you"); any
			// variable in object position reads as "something".
			return "something"
		}
		return view.Label(t)
	}
	// Label (opinion) pattern: {X hasLabel "adj"} (+ extra triples).
	var opinion *rdf.Triple
	var rest []rdf.Triple
	for i := range ground {
		if ground[i].P.Local() == "hasLabel" {
			opinion = &ground[i]
		} else {
			rest = append(rest, ground[i])
		}
	}
	var q strings.Builder
	// finish appends " <predicate> <object>" per modifier triple and the
	// question mark.
	finish := func(ts []rdf.Triple) string {
		for _, t := range ts {
			q.WriteByte(' ')
			q.WriteString(t.P.Local())
			q.WriteByte(' ')
			q.WriteString(label(t.O))
		}
		q.WriteByte('?')
		return q.String()
	}
	if opinion != nil {
		q.WriteString("Do you agree that ")
		q.WriteString(label(opinion.S))
		q.WriteString(" is ")
		q.WriteString(label(opinion.O))
		return finish(rest)
	}
	// Habit pattern: {[] verb X} (+ modifiers {[] prep Y}).
	var main *rdf.Triple
	var mods []rdf.Triple
	for i := range ground {
		p := ground[i].P.Local()
		if isPrepLike(p) {
			mods = append(mods, ground[i])
		} else if main == nil {
			main = &ground[i]
		} else {
			mods = append(mods, ground[i])
		}
	}
	if main == nil {
		return "How often does this hold: " + FactKey(ground) + "?"
	}
	q.WriteString("How often do you ")
	q.WriteString(main.P.Local())
	q.WriteByte(' ')
	q.WriteString(label(main.O))
	return finish(mods)
}

func isPrepLike(p string) bool {
	switch p {
	case "in", "at", "on", "with", "for", "during", "near", "to", "from", "by":
		return true
	}
	return false
}
