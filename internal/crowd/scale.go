package crowd

import (
	"context"
	"fmt"

	"nl2cm/internal/core"
	"nl2cm/internal/crowdscale"
	"nl2cm/internal/oassisql"
)

// ScaleMetrics is the per-execution slice of the streaming executor's
// counters (crowdscale.Stats deltas).
type ScaleMetrics = crowdscale.Stats

// crowdSource adapts a Crowd to crowdscale.Source: answers are
// MemberAnswer's, in member order, so sequential sampling over the
// adapter consumes exactly the member sequence Crowd.Support aggregates
// — the property the differential tests rely on.
type crowdSource struct{ c *Crowd }

func (s crowdSource) Size() int { return s.c.Size }

func (s crowdSource) Batch(key string, from int, out []float64) {
	a := s.c.keyAnswers(key)
	for i := range out {
		out[i] = a.answer(from + i)
	}
}

// NewScaleExecutor builds a streaming executor whose answers come from
// the crowd, for use as Engine.Scale. The crowd must not use a trimmed
// mean: sequential-sampling bounds hold for plain means only — an order
// statistic over the full population cannot be decided from a prefix.
func NewScaleExecutor(c *Crowd, cfg crowdscale.Config) (*crowdscale.Executor, error) {
	if c == nil {
		return nil, fmt.Errorf("crowd: nil crowd")
	}
	if c.TrimFraction != 0 {
		return nil, fmt.Errorf("crowd: scale executor cannot honor TrimFraction=%v (sequential bounds hold for plain means only)", c.TrimFraction)
	}
	return crowdscale.New(crowdSource{c: c}, cfg), nil
}

// evalScale computes each group's support estimate and significance
// through the streaming executor: the subclause's criterion is handed to
// the sequential sampler, which early-terminates every task whose
// decision its interval settles. Supports on early-decided tasks are
// running estimates; exhaustive results are matched decision-for-
// decision (see crowdscale.Rule).
func (e *Engine) evalScale(ctx context.Context, idx int, sc oassisql.Subclause, groups []*taskGroup) error {
	keys := make([]string, len(groups))
	for i, g := range groups {
		keys[i] = g.task.Key
	}
	var decs []crowdscale.Decision
	var err error
	switch {
	case sc.Threshold != nil:
		decs, err = e.Scale.DecideThreshold(ctx, keys, *sc.Threshold, e.SampleSize)
	case sc.TopK != nil:
		decs, err = e.Scale.DecideTopK(ctx, keys, sc.TopK.K, sc.TopK.Desc, e.SampleSize)
	default:
		return fmt.Errorf("crowd: subclause %d has no significance criterion", idx+1)
	}
	if err != nil {
		return &core.StageError{Stage: core.StageCrowd, Err: err}
	}
	for i, g := range groups {
		g.task.Support = decs[i].Support
		g.task.Significant = decs[i].Significant
	}
	return nil
}
