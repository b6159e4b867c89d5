package emit

import "nl2cm/internal/sparql"

// Helpers shared by the backends' renderings of a plan's analytic part.

// aggregateByAlias returns the aggregate whose alias is name.
func aggregateByAlias(aggs []sparql.Aggregate, name string) (sparql.Aggregate, bool) {
	for _, a := range aggs {
		if a.As == name {
			return a, true
		}
	}
	return sparql.Aggregate{}, false
}

// aggProjection returns the output order of an aggregated plan: the
// projected variables when explicit, else every group variable followed
// by every aggregate alias.
func aggProjection(p *Plan) []string {
	if !p.Select.All && len(p.Select.Vars) > 0 {
		return p.Select.Vars
	}
	out := append([]string(nil), p.Agg.GroupBy...)
	for _, a := range p.Agg.Aggs {
		out = append(out, a.As)
	}
	return out
}
