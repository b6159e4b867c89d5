// Package eval implements the measurement harness behind the paper's
// evaluation claims: IX-detection quality against the corpus gold
// annotations (experiment E7, backing §4.1's "the quality of our
// developed translation is high for real user questions even without
// interacting with the user"), verification accuracy (E3/E10), end-to-end
// translation reports per domain (E8), the naive KB-mismatch baseline the
// introduction argues against (ablation A1), and per-pattern-type
// ablations (A2).
package eval

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"nl2cm/internal/core"
	"nl2cm/internal/corpus"
	"nl2cm/internal/crowd"
	"nl2cm/internal/interact"
	"nl2cm/internal/ix"
	"nl2cm/internal/nlp"
	"nl2cm/internal/ontology"
	"nl2cm/internal/qgen"
	"nl2cm/internal/rdf"
	"nl2cm/internal/verify"
)

// Score is a precision/recall summary.
type Score struct {
	TP, FP, FN int
}

// Precision returns TP/(TP+FP), 1 when nothing was predicted.
func (s Score) Precision() float64 {
	if s.TP+s.FP == 0 {
		return 1
	}
	return float64(s.TP) / float64(s.TP+s.FP)
}

// Recall returns TP/(TP+FN), 1 when nothing was expected.
func (s Score) Recall() float64 {
	if s.TP+s.FN == 0 {
		return 1
	}
	return float64(s.TP) / float64(s.TP+s.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (s Score) F1() float64 {
	p, r := s.Precision(), s.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func (s Score) String() string {
	return fmt.Sprintf("P=%.2f R=%.2f F1=%.2f (tp=%d fp=%d fn=%d)",
		s.Precision(), s.Recall(), s.F1(), s.TP, s.FP, s.FN)
}

// detectedAnchors runs the detector and returns the set of anchor lemmas.
func detectedAnchors(d *ix.Detector, text string) (map[string]bool, error) {
	g, err := nlp.Parse(text)
	if err != nil {
		return nil, err
	}
	ixs, err := d.Detect(context.Background(), g)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, x := range ixs {
		out[g.Nodes[x.Anchor].Lemma] = true
	}
	return out, nil
}

// ScoreIXDetection scores a detector against the gold IX annotations of
// the supported corpus questions, matching by anchor lemma.
func ScoreIXDetection(d *ix.Detector, questions []corpus.Question) (Score, error) {
	var s Score
	for _, q := range questions {
		if !q.Supported {
			continue
		}
		got, err := detectedAnchors(d, q.Text)
		if err != nil {
			return s, fmt.Errorf("eval: %s: %w", q.ID, err)
		}
		gold := map[string]bool{}
		for _, g := range q.Gold {
			gold[g.AnchorLemma] = true
		}
		for a := range got {
			if gold[a] {
				s.TP++
			} else {
				s.FP++
			}
		}
		for a := range gold {
			if !got[a] {
				s.FN++
			}
		}
	}
	return s, nil
}

// ScoreIXTypes measures, over correctly detected anchors, how often the
// detector's individuality types cover the gold types (type accuracy).
func ScoreIXTypes(d *ix.Detector, questions []corpus.Question) (correct, total int, err error) {
	for _, q := range questions {
		if !q.Supported {
			continue
		}
		g, err := nlp.Parse(q.Text)
		if err != nil {
			return 0, 0, fmt.Errorf("eval: %s: %w", q.ID, err)
		}
		ixs, err := d.Detect(context.Background(), g)
		if err != nil {
			return 0, 0, fmt.Errorf("eval: %s: %w", q.ID, err)
		}
		byLemma := map[string]*ix.IX{}
		for _, x := range ixs {
			byLemma[g.Nodes[x.Anchor].Lemma] = x
		}
		for _, gold := range q.Gold {
			x, ok := byLemma[gold.AnchorLemma]
			if !ok {
				continue // recall miss, measured elsewhere
			}
			total++
			covered := true
			for _, ty := range gold.Types {
				if !x.HasType(ty) {
					covered = false
				}
			}
			if covered {
				correct++
			}
		}
	}
	return correct, total, nil
}

// VerificationReport is the confusion summary of the verification step.
type VerificationReport struct {
	Correct, Total int
	// WrongAccepts are unsupported questions that slipped through;
	// WrongRejects are supported questions wrongly rejected.
	WrongAccepts, WrongRejects []string
}

// Accuracy returns the fraction of correct verdicts.
func (r VerificationReport) Accuracy() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Correct) / float64(r.Total)
}

// ScoreVerification checks verification verdicts against the corpus.
func ScoreVerification(questions []corpus.Question) VerificationReport {
	var rep VerificationReport
	for _, q := range questions {
		rep.Total++
		v := verify.Check(q.Text)
		switch {
		case v.Supported == q.Supported:
			rep.Correct++
		case v.Supported:
			rep.WrongAccepts = append(rep.WrongAccepts, q.ID)
		default:
			rep.WrongRejects = append(rep.WrongRejects, q.ID)
		}
	}
	return rep
}

// TranslationOutcome is one question's end-to-end translation result.
type TranslationOutcome struct {
	ID         string
	Domain     string
	Question   string
	Supported  bool
	OK         bool
	Err        string
	Query      string
	Subclauses int
	// GoldParts is the number of gold IXs (expected subclauses).
	GoldParts int
}

// TranslateAll runs the full non-interactive pipeline over questions.
func TranslateAll(tr *core.Translator, questions []corpus.Question) []TranslationOutcome {
	var out []TranslationOutcome
	for _, q := range questions {
		o := TranslationOutcome{ID: q.ID, Domain: q.Domain, Question: q.Text, GoldParts: len(q.Gold)}
		res, err := tr.Translate(context.Background(), q.Text, core.Options{})
		switch {
		case err != nil:
			o.Err = err.Error()
		case !res.Verdict.Supported:
			o.Supported = false
			o.OK = !q.Supported // correctly rejected
			o.Err = res.Verdict.Reason
		default:
			o.Supported = true
			o.Query = res.Query.String()
			o.Subclauses = len(res.Query.Satisfying)
			o.OK = q.Supported
		}
		out = append(out, o)
	}
	return out
}

// SuccessRate is the fraction of outcomes that are OK.
func SuccessRate(outcomes []TranslationOutcome) float64 {
	if len(outcomes) == 0 {
		return 1
	}
	n := 0
	for _, o := range outcomes {
		if o.OK {
			n++
		}
	}
	return float64(n) / float64(len(outcomes))
}

// NaiveDetector is the A1 baseline the paper's introduction dismisses:
// treat as individual every content word that does not match the
// knowledge base ("checking which parts of the query do not match the
// knowledge base cannot facilitate this task since most knowledge bases
// are incomplete"). It fails in both directions: opinion words that
// happen to match ontology relations ("good" ~ goodFor) are missed, and
// general words absent from the incomplete KB are false positives.
type NaiveDetector struct {
	Onto *ontology.Ontology
}

// Anchors returns the naive baseline's predicted IX anchor lemmas.
func (n *NaiveDetector) Anchors(text string) (map[string]bool, error) {
	g, err := nlp.Parse(text)
	if err != nil {
		return nil, err
	}
	v := n.Onto.View()
	out := map[string]bool{}
	for i := range g.Nodes {
		node := &g.Nodes[i]
		if !strings.HasPrefix(node.POS, "VB") && !strings.HasPrefix(node.POS, "JJ") {
			continue
		}
		if node.Lemma == "be" || node.Lemma == "do" || node.Lemma == "have" {
			continue
		}
		known := len(v.Lookup(node.Lemma)) > 0
		// The lemma as a relation, or in a "rich in", "good for" style key.
		for _, key := range []string{node.Lemma, node.Lemma + " in", node.Lemma + " for"} {
			_, ok := v.LookupRelation(key)
			known = known || ok
		}
		if !known {
			out[node.Lemma] = true
		}
	}
	return out, nil
}

// ScoreNaive scores the naive baseline against the gold annotations.
func ScoreNaive(n *NaiveDetector, questions []corpus.Question) (Score, error) {
	var s Score
	for _, q := range questions {
		if !q.Supported {
			continue
		}
		got, err := n.Anchors(q.Text)
		if err != nil {
			return s, fmt.Errorf("eval: %s: %w", q.ID, err)
		}
		gold := map[string]bool{}
		for _, g := range q.Gold {
			gold[g.AnchorLemma] = true
		}
		for a := range got {
			if gold[a] {
				s.TP++
			} else {
				s.FP++
			}
		}
		for a := range gold {
			if !got[a] {
				s.FN++
			}
		}
	}
	return s, nil
}

// AblationResult is the A2 leave-one-type-out measurement.
type AblationResult struct {
	// Dropped is the removed pattern type ("" for the full detector).
	Dropped string
	Score   Score
}

// PatternTypeAblation scores the detector with each individuality type's
// patterns removed in turn, quantifying every type's contribution.
func PatternTypeAblation(questions []corpus.Question) ([]AblationResult, error) {
	full := ix.NewDetector()
	fullScore, err := ScoreIXDetection(full, questions)
	if err != nil {
		return nil, err
	}
	out := []AblationResult{{Dropped: "", Score: fullScore}}
	types := []string{ix.TypeLexical, ix.TypeParticipant, ix.TypeSyntactic}
	for _, drop := range types {
		d := ix.NewDetector()
		var kept []*ix.Pattern
		for _, p := range d.Patterns {
			if p.Type != drop {
				kept = append(kept, p)
			}
		}
		d.Patterns = kept
		s, err := ScoreIXDetection(d, questions)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Dropped: drop, Score: s})
	}
	return out, nil
}

// LearningPoint is one round of the A3 feedback-learning measurement.
type LearningPoint struct {
	// Round counts completed user corrections (0 = before any feedback).
	Round int
	// Rank is the 1-based position of the intended entity among the
	// generator's candidates for the phrase.
	Rank int
	// AutoCorrect reports whether non-interactive mode would now pick
	// the intended entity.
	AutoCorrect bool
}

// FeedbackLearningCurve measures how disambiguation feedback improves
// ranking (paper §4.1: "The response of the user is recorded and serves
// to improve the ranking of optional entities in subsequent user
// interactions"). A simulated user repeatedly asks a question containing
// the ambiguous phrase and always corrects the system to the intended
// entity; after each round the intended entity's rank is recorded. Each
// round reads one view.
func FeedbackLearningCurve(onto *ontology.Ontology, question, phrase string,
	intended rdf.Term, rounds int) ([]LearningPoint, error) {
	gen := qgen.New()
	var out []LearningPoint
	for round := 0; round <= rounds; round++ {
		v := onto.View()
		i := slices.IndexFunc(gen.RankCandidates(v, phrase), func(c ontology.Candidate) bool { return c.Term.Equal(intended) })
		if i < 0 {
			return nil, fmt.Errorf("eval: intended entity %v not a candidate of %q", intended, phrase)
		}
		out = append(out, LearningPoint{Round: round, Rank: i + 1, AutoCorrect: i == 0})
		if round == rounds {
			break
		}
		// One interactive session in which the user picks the intended
		// entity.
		dg, err := nlp.Parse(question)
		if err != nil {
			return nil, err
		}
		pick := &intendedPicker{intended: intended, view: v}
		_, err = gen.Generate(context.Background(), v, dg, qgen.Options{
			Interactor: pick,
			Policy:     interact.Policy{Ask: map[interact.Point]bool{interact.PointDisambiguation: true}},
		})
		if err != nil {
			return nil, err
		}
		if !pick.asked {
			// The system no longer asks (or never asked); record the
			// choice directly so the curve keeps progressing, as a
			// user confirming via the editable query would.
			gen.Feedback.Record(phrase, intended)
		}
	}
	return out, nil
}

// intendedPicker is an Interactor that always chooses the option whose
// description matches the intended entity's in the view the generator
// reads, and gives every other question its default.
type intendedPicker struct {
	intended rdf.Term
	view     *ontology.View
	asked    bool
}

// Ask implements interact.Interactor.
func (p *intendedPicker) Ask(_ context.Context, q *interact.Question) (interact.Answer, error) {
	if q.Kind != interact.KindChoice {
		return q.DefaultAnswer(), nil
	}
	p.asked = true
	want := p.view.Description(p.intended)
	for i, o := range q.Choices {
		if o.Description == want {
			return interact.Answer{Choice: &i}, nil
		}
	}
	return q.DefaultAnswer(), nil
}

// ExecutionStats summarizes an end-to-end translate-and-execute run
// over the corpus (experiment E12): crowd-side workload and support-cache
// effectiveness across queries that share fact patterns.
type ExecutionStats struct {
	// Queries is the number of corpus questions that translated into an
	// executable query; Executed counts those that ran without error.
	Queries, Executed int
	// Tasks, CacheHits and CacheMisses aggregate the engine metrics over
	// all executions.
	Tasks, CacheHits, CacheMisses int
	// Elapsed is the total engine wall-clock time.
	Elapsed time.Duration
}

// HitRate returns the fraction of support lookups served from cache.
func (s ExecutionStats) HitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// ExecuteCorpus translates every supported corpus question and executes
// the resulting queries on the engine, aggregating the engine metrics.
// Questions that do not translate are skipped (translation quality is
// E8's concern); a context cancellation aborts the run.
func ExecuteCorpus(ctx context.Context, tr *core.Translator, eng *crowd.Engine, questions []corpus.Question) (ExecutionStats, error) {
	var stats ExecutionStats
	for _, q := range questions {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		res, err := tr.Translate(ctx, q.Text, core.Options{})
		if err != nil || !res.Verdict.Supported || res.Query == nil {
			continue
		}
		stats.Queries++
		out, err := eng.Execute(ctx, res.Query)
		if err != nil {
			if ctx.Err() != nil {
				return stats, err
			}
			continue
		}
		stats.Executed++
		stats.Tasks += out.TasksIssued
		stats.CacheHits += out.CacheHits
		stats.CacheMisses += out.CacheMisses
		stats.Elapsed += out.Elapsed
	}
	return stats, nil
}

// DomainBreakdown groups outcomes per domain, sorted by domain name.
func DomainBreakdown(outcomes []TranslationOutcome) []struct {
	Domain  string
	OK, All int
} {
	agg := map[string][2]int{}
	for _, o := range outcomes {
		v := agg[o.Domain]
		if o.OK {
			v[0]++
		}
		v[1]++
		agg[o.Domain] = v
	}
	var domains []string
	for d := range agg {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	out := make([]struct {
		Domain  string
		OK, All int
	}, 0, len(domains))
	for _, d := range domains {
		out = append(out, struct {
			Domain  string
			OK, All int
		}{d, agg[d][0], agg[d][1]})
	}
	return out
}
