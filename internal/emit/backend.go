package emit

import (
	"fmt"

	"nl2cm/internal/prov"
)

// Caps declares what a backend's dialect can express. A plan feature a
// backend cannot express degrades with a recorded note (Rendering.Notes):
// crowd clauses on a general-only backend are dropped, and variables
// bound only in a dropped clause are left out of the projection. Every
// backend renders every plan Query Composition builds.
type Caps struct {
	// Crowd: the dialect expresses crowd-mining (SATISFYING) clauses with
	// significance criteria. Backends without it emit the general part
	// only and note the dropped clauses.
	Crowd bool `json:"crowd"`
	// Joins: the dialect natively joins patterns over shared variables.
	// Backends without it emit variable placeholders and note that
	// cross-document links need application-side resolution.
	Joins bool `json:"joins"`
	// Filters: the dialect has FILTER expressions over the general
	// selection.
	Filters bool `json:"filters"`
	// VarPredicates: the dialect allows a variable in predicate position.
	VarPredicates bool `json:"varPredicates"`
	// Aggregates: the dialect expresses the plan's analytic part (GROUP
	// BY, aggregate functions, result windows).
	Aggregates bool `json:"aggregates"`
}

// Clause is the provenance of one emitted fragment: which piece of the
// rendered query came from which logical pattern, and from which source
// tokens of the question.
type Clause struct {
	// Fragment is the emitted dialect text for the pattern (one SQL
	// conjunct, one JSON field, one MATCH pattern, one triple line).
	Fragment string `json:"fragment"`
	// Pattern is the logical pattern in neutral (OASSIS-QL surface)
	// syntax, the key into core.Result.Provenance.
	Pattern string `json:"pattern"`
	// Clause locates the pattern: "where" or "satisfying".
	Clause string `json:"clause"`
	// Subclause is the crowd-clause index (-1 for the general part).
	Subclause int `json:"subclause"`
	// Tokens is the source-token set the pattern derives from.
	Tokens prov.TokenSet `json:"tokens,omitempty"`
	// Source is the question excerpt the pattern derives from.
	Source string `json:"source,omitempty"`
}

// Clause location names, shared with the oassisql printer's vocabulary.
const (
	ClauseWhere      = "where"
	ClauseSatisfying = "satisfying"
)

// Rendering is one backend's emission of a plan.
type Rendering struct {
	// Backend is the emitting backend's name.
	Backend string `json:"backend"`
	// Query is the rendered query text.
	Query string `json:"query"`
	// Clauses trace each emitted fragment to its logical pattern and
	// source tokens, in emission order.
	Clauses []Clause `json:"clauses,omitempty"`
	// Notes record capability fallbacks applied during emission (dropped
	// crowd clauses, join placeholders).
	Notes []string `json:"notes,omitempty"`
}

// Backend renders plans into one concrete query dialect. Implementations
// must be safe for concurrent use; the shipped ones are stateless.
type Backend interface {
	// Name is the backend's table key ("oassisql", "sql", ...).
	Name() string
	// Caps declares what the dialect can express.
	Caps() Caps
	// Emit renders the plan, noting each capability fallback it applies.
	Emit(p *Plan) *Rendering
}

// DefaultBackend is the name of the backend every plan can render to.
const DefaultBackend = "oassisql"

// backends is the fixed backend table in Names order: the default
// backend first, the rest sorted by name.
var backends = [...]Backend{OassisBackend{}, CypherBackend{}, MongoBackend{}, SQLBackend{}}

// Lookup returns the named backend.
func Lookup(name string) (Backend, bool) {
	for _, b := range backends {
		if b.Name() == name {
			return b, true
		}
	}
	return nil, false
}

// Names returns the backend names, the default backend first, the rest
// sorted.
func Names() []string {
	out := make([]string, len(backends))
	for i, b := range backends {
		out[i] = b.Name()
	}
	return out
}

// All returns the backends in Names order.
func All() []Backend { return append([]Backend(nil), backends[:]...) }

// Emit renders the plan with the named backend. It fails only for an
// unknown backend name.
func Emit(name string, p *Plan) (*Rendering, error) {
	b, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("emit: unknown backend %q (have %v)", name, Names())
	}
	return b.Emit(p), nil
}
