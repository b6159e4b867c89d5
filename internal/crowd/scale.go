package crowd

import (
	"context"
	"fmt"

	"nl2cm/internal/core"
	"nl2cm/internal/crowdscale"
	"nl2cm/internal/oassisql"
)

// ScaleMetrics is the per-execution slice of the Scale executor's
// counters (crowdscale.Stats deltas).
type ScaleMetrics = crowdscale.Stats

// crowdSource adapts a Crowd to crowdscale.Source: a batch's sum adds
// MemberAnswer's answers in member order, so sampling over the adapter
// consumes exactly the member sequence Crowd.Support aggregates — the
// property the differential tests rely on.
type crowdSource struct{ c *Crowd }

func (s crowdSource) Size() int { return s.c.Size }

func (s crowdSource) Sum(key string, from, to int) float64 { return s.c.sum(key, from, to) }

// engineCrowd is the source of an engine's own executor: the engine's
// Crowd as it stands at each call, so a replaced crowd is asked from
// the next execution on (after ResetCache, like any reconfiguration).
type engineCrowd struct{ e *Engine }

func (s engineCrowd) Size() int { return s.e.Crowd.Size }

func (s engineCrowd) Sum(key string, from, to int) float64 { return s.e.Crowd.sum(key, from, to) }

// NewScaleExecutor builds an executor whose answers come from the
// crowd, for use as Engine.Scale.
func NewScaleExecutor(c *Crowd, cfg crowdscale.Config) (*crowdscale.Executor, error) {
	if c == nil {
		return nil, fmt.Errorf("crowd: nil crowd")
	}
	return crowdscale.New(crowdSource{c: c}, cfg), nil
}

// evalScale decides each group's significance through the Scale
// executor x: the subclause's criterion is handed to the sequential
// sampler, which early-terminates every task whose decision its
// interval settles. Supports on early-decided tasks are running
// estimates; exhaustive results are matched decision-for-decision (see
// crowdscale.Rule).
func (e *Engine) evalScale(ctx context.Context, idx int, sc oassisql.Subclause, x *crowdscale.Executor, keys []string, groups []*taskGroup) error {
	var decs []crowdscale.Decision
	var err error
	switch {
	case sc.Threshold != nil:
		decs, err = x.DecideThreshold(ctx, keys, *sc.Threshold, e.SampleSize)
	case sc.TopK != nil:
		decs, err = x.DecideTopK(ctx, keys, sc.TopK.K, sc.TopK.Desc, e.SampleSize)
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
