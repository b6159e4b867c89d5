// Package compose implements NL2CM's Query Composition module (paper
// §2.6): it combines the general SPARQL triples from the Query Generator
// with the individual OASSIS-QL triples from the Individual Triple
// Creation module into one well-formed OASSIS-QL query.
//
// Composition performs, per the paper: (i) deletion of general triples
// that correspond to detected IXs (FREyA may have wrongly matched
// individual parts against the ontology); (ii) grouping of individual
// triples into SATISFYING subclauses, one per semantic event/property;
// (iii) variable alignment, so each reference to a term in the original
// sentence uses the same variable; (iv) significance criteria — a support
// threshold or a top/bottom-k selection per subclause, from defaults or
// user interaction (Figure 5); and (v) SELECT clause creation, by default
// projecting nothing out, optionally asking the user which terms to
// return (§4.1).
package compose

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"nl2cm/internal/emit"
	"nl2cm/internal/individual"
	"nl2cm/internal/interact"
	"nl2cm/internal/ix"
	"nl2cm/internal/nlp"
	"nl2cm/internal/oassisql"
	"nl2cm/internal/prov"
	"nl2cm/internal/qgen"
	"nl2cm/internal/rdf"
	"nl2cm/internal/sparql"
)

// Reasons recorded in Decision.Reason.
const (
	// ReasonNoOverlap marks a general triple kept because its origin
	// tokens intersect no IX's predicate tokens.
	ReasonNoOverlap = "no-ix-overlap"
	// ReasonIXOverlap marks a general triple dropped because it restates
	// a detected IX: its origin intersects the IX's predicate tokens.
	ReasonIXOverlap = "ix-overlap"
	// ReasonDangling marks a general triple dropped because its only
	// variable is an orphan (see pruneDangling).
	ReasonDangling = "dangling-variable"
)

// Decision records why one general triple was kept or dropped during
// composition, in terms of exact source-token sets.
type Decision struct {
	// Triple is the general triple the decision is about.
	Triple rdf.Triple `json:"-"`
	// Rendered is the triple in OASSIS-QL concrete syntax.
	Rendered string `json:"triple"`
	// Tokens is the triple's origin token set.
	Tokens prov.TokenSet `json:"tokens"`
	// Kept reports whether the triple survived into the WHERE clause.
	Kept bool `json:"kept"`
	// Reason is one of the Reason* constants.
	Reason string `json:"reason"`
	// IXAnchor is the anchor token of the overlapping IX (-1 when the
	// decision involved no IX).
	IXAnchor int `json:"ixAnchor"`
	// Overlap is the exact token intersection that triggered an
	// ix-overlap drop.
	Overlap prov.TokenSet `json:"overlap,omitempty"`
	// OrphanVar is the variable that made a dangling drop.
	OrphanVar string `json:"orphanVar,omitempty"`
}

// Output is the traced composition result: the backend-neutral logical
// plan, the OASSIS-QL query derived from it, and the provenance that
// explains both.
type Output struct {
	// Plan is the logical IR the composition assembled; every backend
	// rendering (including Query) derives from it.
	Plan *emit.Plan
	// Query is the plan rendered structurally into OASSIS-QL via the one
	// OASSIS emitter (emit.OassisQuery).
	Query *oassisql.Query
	// Decisions holds one entry per general triple the Query Generator
	// produced, kept or not, in generation order.
	Decisions []Decision
}

// Defaults are the administrator-configured significance values used when
// the user is not consulted; the shipped values match the paper's
// Figure 1 (LIMIT 5, THRESHOLD 0.1).
type Defaults struct {
	TopK      int
	Threshold float64
}

// StandardDefaults returns the Figure 1 values.
func StandardDefaults() Defaults { return Defaults{TopK: 5, Threshold: 0.1} }

// Composer builds the final query. It carries only the read-only
// significance defaults and is safe for concurrent use.
type Composer struct {
	Defaults Defaults
}

// New returns a composer with the standard defaults.
func New() *Composer { return &Composer{Defaults: StandardDefaults()} }

// Input carries everything composition needs.
type Input struct {
	Graph      *nlp.DepGraph
	IXs        []*ix.IX
	General    *qgen.Result
	Parts      []individual.Part
	Interactor interact.Interactor
	Policy     interact.Policy
}

// Compose assembles the final OASSIS-QL query and its logical plan,
// honoring cancellation between subclauses (each may open a
// significance dialogue). Every pattern of the plan carries its triple's
// source-token set, and the Output holds a Decision for every general
// triple explaining, in exact token terms, why it was kept or dropped. A
// request with no individual parts yields a plain ontology query, with
// an empty SATISFYING clause.
func (c *Composer) Compose(ctx context.Context, in Input) (*Output, error) {
	plan := &emit.Plan{Question: in.Graph.Source, Select: emit.Select{All: true}}
	out := &Output{Plan: plan}

	// (i) WHERE: general triples minus those corresponding to IXs, minus
	// dangling constraints about projected-out participants. Each kept
	// triple becomes a logical pattern carrying its source provenance.
	kept, decisions := c.filterGeneral(in)
	kept = c.pruneDangling(kept, in, decisions)
	for _, kt := range kept {
		tokens := kt.triple.TokenSet()
		plan.Where = append(plan.Where, emit.Pattern{
			Triple: kt.triple.Triple,
			Tokens: tokens,
			Source: in.Graph.Excerpt(tokens),
		})
	}
	out.Decisions = decisions

	// (ii) crowd clauses (SATISFYING): one per individual part, each with
	// (iv) a significance criterion.
	for _, part := range in.Parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sig, err := c.significance(ctx, in, part)
		if err != nil {
			return nil, err
		}
		cc := emit.CrowdClause{Significance: sig}
		for i, t := range part.Triples {
			var tokens prov.TokenSet
			if i < len(part.Origins) { // defensive: Origins may run short
				tokens = part.Origins[i]
			}
			cc.Patterns = append(cc.Patterns, emit.Pattern{
				Triple: t,
				Tokens: tokens,
				Source: in.Graph.Excerpt(tokens),
			})
		}
		plan.Crowd = append(plan.Crowd, cc)
	}

	// (iii) Variable alignment is guaranteed by construction: both the
	// general and individual modules resolve tokens through
	// in.General.NodeTerms. Verify the invariant rather than trusting it.
	if err := c.checkAlignment(in); err != nil {
		return nil, err
	}

	// (v) SELECT: by default no variable is projected out; the user may
	// restrict the output (Figure 6 discussion).
	if err := c.selectClause(ctx, plan, in); err != nil {
		return nil, err
	}

	// Analytic step: a detected counting reading ("how many ...", "the
	// most <noun>") becomes the plan's grouping part.
	c.analytic(plan, in)

	// Derive the OASSIS-QL query structurally from the plan — the one
	// OASSIS emitter — and validate the result.
	out.Query = emit.OassisQuery(plan)
	if err := out.Query.Validate(); err != nil {
		return nil, fmt.Errorf("compose: produced invalid query: %w", err)
	}
	return out, nil
}

// keptTriple is a general triple that survived a filtering stage, with
// the index of its Decision for later amendment.
type keptTriple struct {
	triple   qgen.Triple
	decision int
}

// filterGeneral deletes general triples whose origin token set intersects
// a detected IX's predicate tokens — the IX's anchor plus its non-noun
// nodes (the verb, adjective or preposition inside the IX), per
// ix.PredicateTokens. Shared nouns ("places") do not trigger deletion —
// they are exactly the join points between WHERE and SATISFYING. Every
// triple receives a Decision carrying the exact intersection.
func (c *Composer) filterGeneral(in Input) ([]keptTriple, []Decision) {
	pred := make([]prov.TokenSet, len(in.IXs))
	for i, x := range in.IXs {
		pred[i] = x.PredicateTokens(in.Graph)
	}
	var kept []keptTriple
	decisions := make([]Decision, 0, len(in.General.Triples))
	for _, t := range in.General.Triples {
		set := t.TokenSet()
		d := Decision{
			Triple:   t.Triple,
			Rendered: oassisql.TripleString(t.Triple),
			Tokens:   set,
			Kept:     true,
			Reason:   ReasonNoOverlap,
			IXAnchor: -1,
		}
		for i, x := range in.IXs {
			if ov := set.Intersect(pred[i]); !ov.Empty() {
				d.Kept = false
				d.Reason = ReasonIXOverlap
				d.IXAnchor = x.Anchor
				d.Overlap = ov
				break
			}
		}
		decisions = append(decisions, d)
		if d.Kept {
			kept = append(kept, keptTriple{triple: t, decision: len(decisions) - 1})
		}
	}
	return kept, decisions
}

// pruneDangling removes WHERE triples whose variables are orphans:
// variables that occur in exactly one WHERE triple, in no individual
// part, and are not the question focus. They arise when the Query
// Generator types a participant noun that the Individual Triple Creation
// later projects out ("do people cook ..." -> {$y instanceOf Person}).
// Drops flip the triple's Decision in place.
func (c *Composer) pruneDangling(kept []keptTriple, in Input, decisions []Decision) []keptTriple {
	occur := map[string]int{}
	for _, kt := range kept {
		for _, v := range kt.triple.Vars() {
			occur[v]++
		}
	}
	keep := map[string]bool{in.General.TargetVar: true}
	if agg := in.General.Aggregate; agg != nil {
		// The analytic step references these variables even when no
		// second triple does ("How many cameras ..." counts a noun whose
		// only triple is its class membership).
		keep[agg.CountVar] = true
		keep[agg.GroupVar] = true
	}
	for _, part := range in.Parts {
		for _, t := range part.Triples {
			for _, v := range t.Vars() {
				keep[v] = true
			}
		}
	}
	var out []keptTriple
	for _, kt := range kept {
		vars := kt.triple.Vars()
		orphan := len(vars) > 0
		orphanVar := ""
		for _, v := range vars {
			if keep[v] || occur[v] > 1 {
				orphan = false
				break
			}
			orphanVar = v
		}
		if orphan {
			d := &decisions[kt.decision]
			d.Kept = false
			d.Reason = ReasonDangling
			d.OrphanVar = orphanVar
			continue
		}
		out = append(out, kt)
	}
	return out
}

// significance picks the crowd clause's criterion: a top-k for
// superlative opinions, a support threshold otherwise; values come from
// defaults or the Figure-5 dialogue, which checks the user's answer.
// The administrator's defaults are configuration, not answers, so they
// are checked here.
func (c *Composer) significance(ctx context.Context, in Input, part individual.Part) (emit.Significance, error) {
	ask := in.Policy.Asks(interact.PointSignificance)
	if part.Superlative {
		k := c.Defaults.TopK
		if k <= 0 {
			return emit.Significance{}, fmt.Errorf("compose: non-positive top-k %d", k)
		}
		if ask {
			var err error
			k, err = interact.SelectTopK(ctx, in.Interactor, part.Description, k)
			if err != nil {
				return emit.Significance{}, fmt.Errorf("compose: selecting top-k: %w", err)
			}
		}
		return emit.Significance{TopK: k, Desc: true}, nil
	}
	th := c.Defaults.Threshold
	if part.Majority {
		// "What do most people eat?" asks for the majority of the
		// crowd: at least half must support the pattern, regardless of
		// the administrator's default.
		th = 0.5
	}
	if !(th >= 0 && th <= 1) { // also rejects NaN
		return emit.Significance{}, fmt.Errorf("compose: threshold %g outside [0,1]", th)
	}
	if ask {
		var err error
		th, err = interact.SelectThreshold(ctx, in.Interactor, part.Description, th)
		if err != nil {
			return emit.Significance{}, fmt.Errorf("compose: selecting threshold: %w", err)
		}
	}
	return emit.Significance{Threshold: th}, nil
}

// analytic installs the plan's grouping step when the general query
// generator detected a counting reading. The step applies only when the
// variables it references survived composition into the WHERE clause:
// a counted or grouping variable whose triples were all deleted (they
// restated an IX, or dangled) leaves nothing to count, and the query
// degrades to a plain selection.
func (c *Composer) analytic(p *emit.Plan, in Input) {
	agg := in.General.Aggregate
	if agg == nil {
		return
	}
	bound := map[string]bool{}
	for _, pat := range p.Where {
		pat.Triple.EachVar(func(v string) { bound[v] = true })
	}
	if !bound[agg.CountVar] {
		return
	}
	a := &emit.Aggregation{
		Aggs: []sparql.Aggregate{{Var: agg.CountVar, As: agg.Alias}},
	}
	if agg.GroupVar != "" {
		if !bound[agg.GroupVar] {
			return
		}
		// The counting superlative: group by the asked-about entity,
		// order the groups by their count and keep the extreme one.
		a.GroupBy = []string{agg.GroupVar}
		a.OrderBy = []sparql.OrderKey{{Var: agg.Alias, Desc: !agg.Ascending}}
		a.Limit = 1
	}
	p.Agg = a
	// A projection the dialogue narrowed lists pattern variables, but a
	// grouped result has values only for its grouping variables and its
	// aggregates: keep the kept grouping variables and add every
	// aggregate, so the query still declares what it orders by.
	if !p.Select.All {
		var vars []string
		for _, v := range p.Select.Vars {
			if slices.Contains(a.GroupBy, v) {
				vars = append(vars, v)
			}
		}
		for _, ag := range a.Aggs {
			vars = append(vars, ag.As)
		}
		p.Select.Vars = vars
	}
}

// checkAlignment verifies that every named variable of the SATISFYING
// clause that is ontology-grounded (appears in any general triple,
// pre-deletion) uses the same name there — i.e. references to one token
// share one variable.
func (c *Composer) checkAlignment(in Input) error {
	// Build the set of variables per token from NodeTerms.
	byVar := map[string][]int{}
	for node, t := range in.General.NodeTerms {
		if t.IsVar() {
			byVar[t.Value()] = append(byVar[t.Value()], node)
		}
	}
	coref := func(a, b int) bool {
		if in.Graph.Nodes[a].Lemma == in.Graph.Nodes[b].Lemma {
			return true
		}
		// Transparent-noun delegation ("type of camera") is intentional
		// coreference.
		return in.General.Delegations[a] == b || in.General.Delegations[b] == a
	}
	for v, nodes := range byVar {
		for _, n := range nodes[1:] {
			if !coref(nodes[0], n) {
				return fmt.Errorf("compose: variable $%s bound to distinct terms %q and %q",
					v, in.Graph.Nodes[nodes[0]].Lemma, in.Graph.Nodes[n].Lemma)
			}
		}
	}
	return nil
}

// selectClause builds the SELECT clause, optionally consulting the user
// about which terms to receive instances for.
func (c *Composer) selectClause(ctx context.Context, p *emit.Plan, in Input) error {
	if !in.Policy.Asks(interact.PointProjection) {
		return nil // default: SELECT VARIABLES
	}
	vars := p.Vars()
	if len(vars) == 0 {
		return nil
	}
	choices := make([]interact.VarChoice, len(vars))
	for i, v := range vars {
		choices[i] = interact.VarChoice{Var: v, Phrase: c.phraseFor(v, in)}
	}
	keep, err := interact.SelectProjection(ctx, in.Interactor, choices)
	if err != nil {
		return fmt.Errorf("compose: selecting projection: %w", err)
	}
	var kept []string
	for i, k := range keep {
		if k {
			kept = append(kept, vars[i])
		}
	}
	if len(kept) == len(vars) || len(kept) == 0 {
		return nil // everything kept: plain SELECT VARIABLES
	}
	sort.Strings(kept)
	p.Select.All = false
	p.Select.Vars = kept
	return nil
}

// phraseFor maps a variable back to the question phrase it stands for.
func (c *Composer) phraseFor(v string, in Input) string {
	for node, t := range in.General.NodeTerms {
		if t.IsVar() && t.Value() == v {
			if p, ok := in.General.Phrases[node]; ok && p != "" {
				return p
			}
			return in.Graph.Nodes[node].Text
		}
	}
	return ""
}
