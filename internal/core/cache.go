package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"nl2cm/internal/emit"
	"nl2cm/internal/nlp"
	"nl2cm/internal/ontology"
	"nl2cm/internal/qcache"
	"nl2cm/internal/verify"
)

// cacheEntry is what one translation leaves in the plan cache: the full
// cold result and, when it can serve a same-shape question, its texts
// cut at the entity slots of its question's shape (splice), so a later
// same-shape question is served by writing its own entities into them.
type cacheEntry struct {
	res    *Result
	splice *splice
	// confirmed is the latest stamp at which the generator's reads
	// (res.General.Reads) were made or replayed and returned what they
	// return in res. mu guards it, so no reader sees a torn pair.
	mu        sync.Mutex
	confirmed stamp
}

// stamp names the state a translation reads: the version of the
// ontology view it pinned and the version of the feedback store, which
// the generator's ranked lookups read through Feedback.Boost.
type stamp struct{ view, feedback uint64 }

// cacheable reports whether this request may be served from (and fill)
// the plan cache: only non-interactive translations qualify, because a
// dialogue's answers are request-specific state no other request may
// inherit. Interactive sessions therefore bypass the cache entirely.
func (t *Translator) cacheable(opt Options) bool {
	return t.Cache != nil && opt.Interactor == nil && len(opt.Policy.Ask) == 0
}

// holds reports whether the entry is what a translation of its question
// would produce at the request's stamp, whose view is v. The General
// Query Generator is the only stage that reads the ontology or the
// feedback, and it logs every read it makes: label lookups, ranked
// candidates (feedback boosts included) and relation lemmas. So the
// entry holds when it was confirmed at the stamp, or when every logged
// read replays on v to what it returned. A replay that holds records
// the stamp, unless the entry holds a newer one, so later requests at
// it skip the replay.
func (t *Translator) holds(e *cacheEntry, v *ontology.View, at stamp) bool {
	e.mu.Lock()
	c := e.confirmed
	e.mu.Unlock()
	if c == at {
		return true
	}
	if g := e.res.General; g != nil && !t.Generator.Replay(v, g.Reads) {
		return false
	}
	e.mu.Lock()
	if c := e.confirmed; c.view <= at.view && c.feedback <= at.feedback {
		e.confirmed = at
	}
	e.mu.Unlock()
	return true
}

// translateCached serves one translation through the plan cache. It
// pins one ontology view and reads the feedback version (so a choice
// recorded during a replay or a fill leaves the entry stamped with the
// older version, and the next request replays it), tokenizes the
// question once, canonicalizes it to its shape on the view, and probes
// the cache (single-flight on misses). An entry found by a hit or a
// completed flight is served only if it holds at that stamp; otherwise
// it is dropped and refilled through the single flight, once. A served
// entry is either reused (exact question) or rebound by splicing the
// question's entities into its texts, and counts as a hit. Cold paths
// run the full pipeline on the view, report "miss" and count as one;
// a fill leaves its result behind for the next same-shape question.
// Every result returned is the caller's own copy: the entry's result is
// never handed out.
func (t *Translator) translateCached(ctx context.Context, question string, opt Options) (*Result, error) {
	start := time.Now()
	if opt.Observer != nil {
		opt.Observer.StageStart(StagePlanCache)
	}
	endObs := func(err error) {
		if opt.Observer != nil {
			opt.Observer.StageEnd(StagePlanCache, time.Since(start), err)
		}
	}

	view := t.Onto.View()
	at := stamp{view.Version(), t.Generator.Feedback.Version()}
	toks := nlp.Tokenize(question)
	shape := qcache.CanonicalizeTokens(question, toks, view)
	key := qcache.Key{Shape: shape.Key, Backends: qcache.BackendKey(opt.Backends)}
	for dropped := false; ; dropped = true {
		v, flight, outcome := t.Cache.Lookup(key)
		switch outcome {
		case qcache.Wait:
			// Someone else is translating this shape right now; share
			// their work. Their failure is not ours (it may be their
			// request's cancellation), so on error fall back to a cold
			// translation — unless our own context is done too.
			wv, err := flight.Wait(ctx)
			if err == nil {
				v = wv
				break
			}
			if ctx.Err() != nil {
				endObs(ctx.Err())
				return nil, &StageError{Stage: StagePlanCache, Err: ctx.Err()}
			}
			endObs(nil)
			return t.translateMiss(ctx, view, question, opt)

		case qcache.Miss:
			// We own the fill. Close the cache stage first so the
			// pipeline's stage timings are attributed to the pipeline,
			// then run cold and publish the result for waiters and future
			// requests.
			endObs(nil)
			probe := time.Since(start)
			res, err := t.translate(ctx, view, question, opt)
			if err != nil {
				flight.Fail(err)
				return nil, err
			}
			// Mutations must land before Fulfill publishes res to waiters.
			res.CacheOutcome = "miss"
			if opt.Trace {
				res.Trace = append(res.Trace, Stage{
					Module:   StagePlanCache,
					Output:   fmt.Sprintf("miss — cached under shape %q, data epoch %d", shape.Key, res.DataEpoch),
					Duration: probe,
				})
			}
			if res.Plan != nil {
				// Exact hits serve this one OASSIS-QL rendering. The
				// error is nil: the plan is present and the backend known.
				res.oassis, _ = res.Render(emit.DefaultBackend)
			}
			flight.Fulfill(&cacheEntry{res: res, splice: newSplice(res, shape.Entities), confirmed: at})
			// The caller may change its result (the daemon prepends its
			// queue stage to the trace) while hits copy the entry's.
			own := *res
			return &own, nil
		}

		// Hit (direct, or via a completed flight).
		entry, ok := v.(*cacheEntry)
		if !ok {
			endObs(nil)
			return t.translateMiss(ctx, view, question, opt)
		}
		if t.holds(entry, view, at) {
			if res, served := t.serveHit(question, toks, shape, entry, view, opt, start); served {
				t.Cache.NoteHit(res.CacheOutcome == "rebound")
				endObs(nil)
				return res, nil
			}
			// Same shape but not rebindable (unsupported verdict,
			// different parse, entities the splice refuses): translate
			// cold. The shape entry stays — exact repeats of either
			// question still hit.
			endObs(nil)
			return t.translateMiss(ctx, view, question, opt)
		}
		// A read changed since the entry was made: drop it and refill
		// through the single flight. A refill that does not hold either
		// (it was made at another view or feedback version) is not
		// retried: this request translates cold and leaves the cache
		// alone.
		if dropped {
			endObs(nil)
			return t.translateMiss(ctx, view, question, opt)
		}
		t.Cache.DropStale(key, entry)
	}
}

// translateMiss translates a request that reached the cache cold without
// filling it: it reports "miss" and counts as one.
func (t *Translator) translateMiss(ctx context.Context, v *ontology.View, question string, opt Options) (*Result, error) {
	res, err := t.translate(ctx, v, question, opt)
	if err != nil {
		return nil, err
	}
	res.CacheOutcome = "miss"
	t.Cache.NoteMiss()
	return res, nil
}

// serveHit builds a Result for the question from a cached entry. An
// exact question repeat copies the cached result. A same-shape question
// with different entities gets the entry's texts with its own entities
// spliced in, over its own tokens (toks as Tokenize returns them;
// serveHit tags them in place); see Result for the fields it leaves
// nil.
func (t *Translator) serveHit(question string, toks []nlp.Token, shape qcache.Shape, entry *cacheEntry, view *ontology.View, opt Options, start time.Time) (*Result, bool) {
	old := entry.res
	if old.Question == question {
		res := *old
		res.CacheOutcome = "hit"
		res.DataEpoch = view.Epoch()
		res.Trace = nil
		if opt.Trace {
			res.Trace = []Stage{{
				Module:   StagePlanCache,
				Output:   hitTrace(shape.Key, res.DataEpoch, -1, ""),
				Duration: time.Since(start),
			}}
		}
		return &res, true
	}

	// Re-binding is only sound when every entity mention resolved
	// unambiguously (guaranteed by shape equality) and the question
	// parses as the cached one did: its tagged tokens agree with the
	// cached graph's on all the dependency parser reads
	// (nlp.DepGraph.WithTokens), so the cached heads and relations are
	// the question's own parse. Shape equality guarantees identical
	// token structure, so the cached token sets index the question's
	// graph correctly; the splice reads byte spans from it.
	if entry.splice == nil {
		return nil, false
	}
	// The entry's verdict is its own question's, and an entity's text
	// can change what verification reads: a label holding a question
	// mark makes the request two questions.
	if !verify.Check(question).Supported {
		return nil, false
	}
	nlp.Tag(toks)
	g, ok := old.Graph.WithTokens(toks, question)
	if !ok {
		return nil, false
	}
	res, ok := entry.splice.rebind(old, question, g, shape.Entities)
	if !ok {
		return nil, false
	}
	res.DataEpoch = view.Epoch()
	res.CacheOutcome = "rebound"
	if opt.Trace {
		res.Trace = []Stage{{
			Module:   StagePlanCache,
			Output:   hitTrace(shape.Key, res.DataEpoch, len(entry.splice.slots), old.Question),
			Duration: time.Since(start),
		}}
	}
	return res, true
}

// hitTrace is the Plan Cache trace line of a served entry, built with
// strconv appends in a stack buffer: `hit (exact) — shape "…", data
// epoch N` for an exact hit (slots < 0), and for a rebind `hit (rebound
// N entity slot(s)) — shape "…", data epoch N, from "…"`.
func hitTrace(shape string, epoch uint64, slots int, from string) string {
	var buf [512]byte
	b := buf[:0]
	if slots < 0 {
		b = append(b, "hit (exact)"...)
	} else {
		b = append(b, "hit (rebound "...)
		b = strconv.AppendInt(b, int64(slots), 10)
		b = append(b, " entity slot(s))"...)
	}
	b = append(b, " — shape "...)
	b = strconv.AppendQuote(b, shape)
	b = append(b, ", data epoch "...)
	b = strconv.AppendUint(b, epoch, 10)
	if slots >= 0 {
		b = append(b, ", from "...)
		b = strconv.AppendQuote(b, from)
	}
	return string(b)
}
