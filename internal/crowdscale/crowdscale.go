// Package crowdscale scales the simulated-crowd execution layer to
// populations of millions of members. It decides crowd tasks by
// sampling member answers batch by batch:
//
//   - an Executor memoizes each task's sampling state (answer sum,
//     members sampled, next batch size) across calls, so a repeated
//     task resumes instead of restarting; it owns no goroutines between
//     calls — each call fans its batches out over up to GOMAXPROCS
//     goroutines, the caller among them, and joins them before it
//     returns,
//   - incremental support aggregation early-terminates each task with
//     sequential sampling: answers arrive batch by batch and a task
//     stops as soon as its confidence interval decides the significance
//     criterion (threshold comparison, or membership in the top-k via a
//     racing argument), instead of asking a fixed sample,
//   - a Source addresses the population lazily by (seed, member index) —
//     no member profile is ever materialized, so a million-member crowd
//     costs memory proportional to the sampling state, not the
//     population,
//   - Population is a synthetic million-profile generator with skew
//     and spammer controls for scale experiments.
//
// Two stopping rules are available. RuleConfidence (the default) stops a
// task once a Serfling-corrected Hoeffding interval around the running
// mean excludes the decision boundary: sample cost is near-constant in
// the population size when the true support is away from the boundary,
// and falls back to full sampling when it is not, so decisions are
// wrong only with probability <= 1e-9 per check. RuleExact uses only
// worst-case bounds (every unseen answer could be 0 or 1), which decides
// later but is provably identical to exhaustive evaluation — the
// differential-testing mode.
//
// Either way a task that reaches full sampling is decided exactly, so
// results never degrade — early termination only removes work that
// cannot change the outcome (RuleExact) or is overwhelmingly unlikely
// to (RuleConfidence).
package crowdscale

import "math"

// Source is a crowd population addressed lazily by member index: answers
// are derived on demand, never stored. Implementations must be safe for
// concurrent use and deterministic — the same (member, key) always
// yields the same answer — so sequential sampling is reproducible and
// exhaustive evaluation over the same source is a valid oracle.
//
// RuleConfidence additionally requires that answers be independent of
// member index (index-exchangeable): the sampler reads a prefix of the
// index order and treats it as a without-replacement draw from the
// population, so a source whose answers trend with member index (e.g.
// members sorted by enthusiasm) makes confidence decisions
// systematically wrong, not 1e-9-wrong. Derive member behaviour by
// hashing the index, as Population does, or pre-shuffle the index
// order. RuleExact uses only worst-case bounds and is correct for any
// deterministic source.
type Source interface {
	// Size is the population size.
	Size() int
	// Sum returns the sum of the answers of members [from, to) for the
	// fact key, each answer in [0, 1], added in member order. One call
	// per batch lets implementations hash the key once, not per member;
	// a fixed-sample support is one Sum over the whole sample, so it
	// equals a straight loop over the members bit for bit.
	Sum(key string, from, to int) float64
}

// Rule selects the sequential-sampling stopping rule.
type Rule int

const (
	// RuleConfidence stops when a Hoeffding confidence interval (with
	// Serfling's finite-population correction) around the running mean
	// decides the criterion. Sublinear in the population size; wrong
	// with probability <= delta per boundary check.
	RuleConfidence Rule = iota
	// RuleExact stops only when the unseen remainder of the population
	// cannot change the decision (worst-case bounds). Decisions are
	// provably identical to exhaustive evaluation.
	RuleExact
)

// Config tunes an Executor. The zero value is usable.
type Config struct {
	// Rule is the stopping rule (default RuleConfidence).
	Rule Rule
}

// The sampling schedule: a task's first batch asks initialBatch
// members, and each later batch twice as many as the one before, up to
// maxBatch. delta is RuleConfidence's per-check error probability.
const (
	initialBatch = 64
	maxBatch     = 8192
	delta        = 1e-9
)

// defaultMaxStates caps the sampling states an Executor memoizes.
const defaultMaxStates = 65536

// Decision is the outcome of one task's sequential sampling.
type Decision struct {
	// Key is the task's canonical fact key.
	Key string
	// Significant reports whether the task passed the criterion.
	Significant bool
	// Support is the running support estimate at stopping time; the
	// exhaustive value when Exact, and 0 when the decision needed no
	// samples at all (Sampled == 0 — e.g. top-k membership with k at
	// least the number of tasks is settled structurally).
	Support float64
	// Sampled is how many member answers back the decision (cumulative
	// over the task's sampling state, which persists across calls).
	Sampled int
	// Exact reports that every member of the effective population was
	// sampled, making Support the exhaustive value.
	Exact bool
}

// Stats is a point-in-time snapshot of an Executor's counters. All
// counters are monotonic for the life of the executor — Reset drops
// sampling states but never rewinds counters.
type Stats struct {
	// TasksDecided counts significance decisions made.
	TasksDecided uint64 `json:"tasks_decided"`
	// BatchesDispatched counts non-empty batches sampled.
	BatchesDispatched uint64 `json:"batches_dispatched"`
	// MemberAnswers counts individual member answers computed.
	MemberAnswers uint64 `json:"member_answers"`
	// AnswersSaved counts member answers a fixed-sample engine would
	// have computed but sequential stopping avoided (population minus
	// samples, accumulated per early decision that sampled this call).
	AnswersSaved uint64 `json:"answers_saved"`
	// EarlyDecided counts decisions where sequential stopping ended
	// sampling early in the deciding call; FullySampled counts
	// decisions backed by the fully sampled effective population. Early
	// decisions answered purely from a cached state (no sampling in the
	// call) add to neither, so EarlyDecided and AnswersSaved measure
	// real stopping work rather than cache hits; TasksDecided can
	// therefore exceed EarlyDecided + FullySampled.
	EarlyDecided uint64 `json:"early_decided"`
	FullySampled uint64 `json:"fully_sampled"`
	// StateHits / StateMisses count sampling-state cache outcomes: a hit
	// reuses answers accumulated by earlier decisions of the same key.
	StateHits   uint64 `json:"state_hits"`
	StateMisses uint64 `json:"state_misses"`
	// States is the number of cached sampling states.
	States int `json:"states"`
	// Population is the source's population size.
	Population int `json:"population"`
}

// Delta returns the counter difference s - prev, keeping the gauge
// fields (States, Population) at their current values.
func (s Stats) Delta(prev Stats) Stats {
	d := s
	d.TasksDecided -= prev.TasksDecided
	d.BatchesDispatched -= prev.BatchesDispatched
	d.MemberAnswers -= prev.MemberAnswers
	d.AnswersSaved -= prev.AnswersSaved
	d.EarlyDecided -= prev.EarlyDecided
	d.FullySampled -= prev.FullySampled
	d.StateHits -= prev.StateHits
	d.StateMisses -= prev.StateMisses
	return d
}

func clamp01(v float64) float64 {
	return math.Max(0, math.Min(1, v))
}
