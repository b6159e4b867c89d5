package sparql

import (
	"fmt"
	"strconv"

	"nl2cm/internal/rdf"
)

// This file holds the grouping step of Eval and AggregateBindings, the
// analytic extension's semantics:
//
//   - Grouping keys are the GROUP BY variables; an unbound group
//     variable is its own key component, distinct from every bound value.
//     No GROUP BY with counts means one global group — which exists
//     (COUNT = 0) even over zero input rows.
//   - COUNT($v) counts a group's rows where $v is bound, as an
//     xsd:integer.
//
// Output rows carry exactly the group variables and count aliases;
// ORDER BY and LIMIT then apply unchanged.

// FreshAlias derives an output alias for a count without an explicit
// AS: count_x, suffixed with _2, _3 … until it collides with nothing the
// taken predicate knows.
func FreshAlias(varName string, taken func(string) bool) string {
	base := "count_" + varName
	name := base
	for i := 2; taken(name); i++ {
		name = fmt.Sprintf("%s_%d", base, i)
	}
	return name
}

// termArena hands out per-group slot-row term slices (the group
// representatives) from chunked blocks, so building many groups costs a
// handful of allocations instead of one per group. Blocks are abandoned
// (not grown) when full, so handed-out slices stay valid as more groups
// arrive. Its blocks hold at most block rows, sized by the input so a
// query with few rows allocates few terms.
type termArena struct {
	w     int // row width
	block int // rows per block
	buf   []rdf.Term
	used  int
}

// newTermArena returns an arena of width-w rows for grouping the given
// number of input rows, which form at most rows groups (one, the
// global group, when there are none).
func newTermArena(w, rows int) *termArena {
	return &termArena{w: w, block: min(256, rows+1)}
}

func (a *termArena) take() []rdf.Term {
	if a.w == 0 {
		return nil
	}
	if len(a.buf)-a.used < a.w {
		a.buf = make([]rdf.Term, a.block*a.w)
		a.used = 0
	}
	s := a.buf[a.used : a.used+a.w : a.used+a.w]
	a.used += a.w
	return s
}

// groupSizeHint sizes the group map and emission-order slice: most
// grouped queries collapse many rows per group, so a fraction of the row
// count avoids both rehashing and gross over-allocation.
func groupSizeHint(rows int) int {
	hint := rows/8 + 1
	if hint > 1024 {
		hint = 1024
	}
	return hint
}

// AggregateBindings applies a query's solution modifiers — grouping,
// counts, ORDER BY and LIMIT — to already-computed solution rows,
// through the same step Eval ends with. It serves callers (the crowd
// engine) that interleave their own filtering between pattern matching
// and aggregation. Rows are not modified; the result is freshly
// allocated.
func AggregateBindings(q *Query, rows []Binding) []Binding {
	c := compileQuery(q)
	for _, b := range rows {
		for v := range b {
			c.slot(v)
		}
	}
	// One buffer holds every converted row.
	w := len(c.names)
	buf := make([]rdf.Term, len(rows)*w)
	slotted := make([][]rdf.Term, len(rows))
	for i, b := range rows {
		r := buf[i*w : (i+1)*w : (i+1)*w]
		for v, t := range b {
			r[c.slots[v]] = t
		}
		slotted[i] = r
	}
	e := &exec{c: c}
	return e.finish(q, slotted)
}

// appendGroupKeyPart appends one group-key component: a bound marker so
// an unbound variable can never collide with any bound value, then the
// collision-free term encoding. The append-based form lets the grouping
// step reuse one buffer across rows instead of allocating a string per
// row.
func appendGroupKeyPart(buf []byte, t rdf.Term, bound bool) []byte {
	if !bound {
		return append(buf, '-')
	}
	buf = append(buf, '+')
	return appendTermKey(buf, t)
}

// appendTermKey appends the length-prefixed encoding of every term field
// (the []byte counterpart of writeTermKey).
func appendTermKey(buf []byte, t rdf.Term) []byte {
	buf = append(buf, byte('0'+t.Kind()))
	for _, part := range [3]string{t.Value(), t.Datatype(), t.Lang()} {
		buf = strconv.AppendInt(buf, int64(len(part)), 10)
		buf = append(buf, ':')
		buf = append(buf, part...)
	}
	return buf
}

// aggregateRows is the grouping step over slot rows. Count aliases
// occupy slots registered by compileQuery; output rows bind exactly the
// group slots and the alias slots. Groups emit in first-appearance
// order.
func (e *exec) aggregateRows(q *Query, rows [][]rdf.Term) [][]rdf.Term {
	groupSlots := make([]int, len(q.GroupBy))
	for i, v := range q.GroupBy {
		slot, ok := e.c.slots[v]
		if !ok {
			slot = -1 // variable no row binds: always unbound
		}
		groupSlots[i] = slot
	}
	argSlots := make([]int, len(q.Aggs))
	for i, a := range q.Aggs {
		slot, ok := e.c.slots[a.Var]
		if !ok {
			slot = -1
		}
		argSlots[i] = slot
	}
	hint := groupSizeHint(len(rows))
	// Group representatives live in a slice in first-appearance order,
	// the map holds indexes into it, and group g's counts are
	// counts[g*n : (g+1)*n]. Representatives come from a chunked arena —
	// with many small groups (the superlative-plan shape) the per-group
	// allocations dominate the analytic path, so each is amortized over a
	// chunk.
	//
	// The group key is assembled in a reused byte buffer and looked up
	// via groups[string(key)] — the compiler elides that conversion's
	// allocation — so only the first row of each group materializes a
	// key string.
	n := len(q.Aggs)
	reps := make([][]rdf.Term, 0, hint)
	counts := make([]int64, 0, hint*n)
	groups := make(map[string]int32, hint)
	terms := newTermArena(len(e.c.names), len(rows))
	newGroup := func() {
		reps = append(reps, terms.take())
		for range n {
			counts = append(counts, 0)
		}
	}
	var keyBuf []byte
	for _, r := range rows {
		keyBuf = keyBuf[:0]
		for _, slot := range groupSlots {
			t := unbound
			if slot >= 0 {
				t = r[slot]
			}
			keyBuf = appendGroupKeyPart(keyBuf, t, t != unbound)
		}
		idx, ok := groups[string(keyBuf)]
		if !ok {
			idx = int32(len(reps))
			newGroup()
			for _, slot := range groupSlots {
				if slot >= 0 {
					reps[idx][slot] = r[slot]
				}
			}
			groups[string(keyBuf)] = idx
		}
		for i, slot := range argSlots {
			if slot >= 0 && r[slot] != unbound {
				counts[int(idx)*n+i]++
			}
		}
	}
	if len(reps) == 0 && len(q.GroupBy) == 0 {
		// A global count over zero rows still produces one group.
		newGroup()
	}
	for g, rep := range reps {
		for i, a := range q.Aggs {
			rep[e.c.slots[a.As]] = rdf.NewIntLiteral(counts[g*n+i])
		}
	}
	return reps
}
