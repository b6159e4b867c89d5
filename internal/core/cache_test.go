package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nl2cm/internal/corpus"
	"nl2cm/internal/emit"
	"nl2cm/internal/individual"
	"nl2cm/internal/interact"
	"nl2cm/internal/ix"
	"nl2cm/internal/nlp"
	"nl2cm/internal/ontology"
	"nl2cm/internal/qcache"
	"nl2cm/internal/rdf"
)

// allBackends is every registered dialect, checked for byte-identity in
// the differential tests.
func allBackends() []string { return emit.Names() }

// TestCacheDifferentialCorpus asserts that for every corpus question,
// the translation served through the plan cache — first as the filling
// miss, then as an exact-shape hit — is byte-identical to a cold
// translation on the OASSIS-QL query and every backend rendering.
func TestCacheDifferentialCorpus(t *testing.T) {
	onto := ontology.NewDemoOntology()
	cold := New(onto)
	cached := New(onto)
	cached.Cache = qcache.New(256)
	ctx := context.Background()
	opt := Options{Backends: allBackends()}

	for _, q := range corpus.All() {
		coldRes, coldErr := cold.Translate(ctx, q.Text, opt)
		missRes, missErr := cached.Translate(ctx, q.Text, opt)
		hitRes, hitErr := cached.Translate(ctx, q.Text, opt)
		if (coldErr == nil) != (missErr == nil) || (coldErr == nil) != (hitErr == nil) {
			t.Errorf("%s: error mismatch: cold=%v miss=%v hit=%v", q.ID, coldErr, missErr, hitErr)
			continue
		}
		if coldErr != nil {
			continue
		}
		compareResults(t, q.ID+"/miss", coldRes, missRes)
		compareResults(t, q.ID+"/hit", coldRes, hitRes)
	}
	st := cached.Cache.Stats()
	if st.Hits == 0 {
		t.Errorf("no cache hits over the corpus replay: stats %+v", st)
	}
}

// compareResults compares a served result with the reference
// translation: the OASSIS-QL query, every backend rendering (which pins
// the plan), and every other exported field but Trace and CacheOutcome.
// A rebound result must leave General, Parts, ComposeDecisions and
// Interactions nil; the other outcomes must match the reference on
// those too.
func compareResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Verdict.Supported != got.Verdict.Supported {
		t.Errorf("%s: supported %v vs %v", label, want.Verdict.Supported, got.Verdict.Supported)
		return
	}
	if !reflect.DeepEqual(want.Verdict, got.Verdict) {
		t.Errorf("%s: verdict %+v, cold %+v", label, got.Verdict, want.Verdict)
	}
	if !want.Verdict.Supported {
		return
	}
	if w, g := want.Query.String(), got.Query.String(); w != g {
		t.Errorf("%s: OASSIS-QL differs:\ncold:\n%s\ncached:\n%s", label, w, g)
		return
	}
	// Every backend's rendering, clause provenance and notes included;
	// a capability error must match as well.
	for _, name := range allBackends() {
		wr, werr := want.Render(name)
		gr, gerr := got.Render(name)
		switch {
		case fmt.Sprint(werr) != fmt.Sprint(gerr):
			t.Errorf("%s: backend %s: error %v, cold %v", label, name, gerr, werr)
		case werr == nil && !reflect.DeepEqual(wr, gr):
			t.Errorf("%s: backend %s differs:\ncold:\n%s %+v\ncached:\n%s %+v", label, name, wr.Query, wr.Clauses, gr.Query, gr.Clauses)
		}
	}
	if d := graphDiff(want.Graph, got.Graph); d != "" {
		t.Errorf("%s: graph differs: %s", label, d)
	}
	if w, g := ixSummary(want.IXs), ixSummary(got.IXs); w != g {
		t.Errorf("%s: IXs differ:\ncold:\n%s\ncached:\n%s", label, w, g)
	}
	if w, g := ixSummary(want.RejectedIXs), ixSummary(got.RejectedIXs); w != g {
		t.Errorf("%s: rejected IXs differ:\ncold:\n%s\ncached:\n%s", label, w, g)
	}
	if want.Plan.Question != got.Plan.Question {
		t.Errorf("%s: plan question %q, cold %q", label, got.Plan.Question, want.Plan.Question)
	}
	if !reflect.DeepEqual(want.Renderings, got.Renderings) {
		t.Errorf("%s: requested renderings differ", label)
	}
	if !reflect.DeepEqual(want.Provenance(), got.Provenance()) {
		t.Errorf("%s: provenance differs:\ncold:   %+v\ncached: %+v", label, want.ProvenanceRecords(), got.ProvenanceRecords())
	}
	if w, g := want.AnnotatedQuery(), got.AnnotatedQuery(); w != g {
		t.Errorf("%s: annotated query differs:\ncold:\n%s\ncached:\n%s", label, w, g)
	}
	if w, g := want.Uncovered(), got.Uncovered(); !reflect.DeepEqual(w, g) {
		t.Errorf("%s: uncovered %v; cold %v", label, g, w)
	}
	if w, g := want.CoverageTips(), got.CoverageTips(); !reflect.DeepEqual(w, g) {
		t.Errorf("%s: tips %q; cold %q", label, g, w)
	}
	if want.Plan.PureGeneral() != got.Plan.PureGeneral() || want.DataEpoch != got.DataEpoch {
		t.Errorf("%s: pure general %v at epoch %d; cold %v at %d", label, got.Plan.PureGeneral(), got.DataEpoch, want.Plan.PureGeneral(), want.DataEpoch)
	}
	if got.CacheOutcome == "rebound" {
		if got.General != nil || got.Parts != nil || got.ComposeDecisions != nil || got.Interactions != nil {
			t.Errorf("%s: rebound result carries the cached question's general part, parts, decisions or dialogue", label)
		}
		return
	}
	if !reflect.DeepEqual(want.General, got.General) || partsSummary(want.Parts) != partsSummary(got.Parts) ||
		!reflect.DeepEqual(want.ComposeDecisions, got.ComposeDecisions) || !reflect.DeepEqual(want.Interactions, got.Interactions) {
		t.Errorf("%s: general part, parts, decisions or dialogue differ from cold", label)
	}
}

// graphDiff describes the first difference between two dependency
// graphs: node count, any node (every token field, head, relation),
// the extra edges, or the source; "" when they are equal.
func graphDiff(a, b *nlp.DepGraph) string {
	if a == nil || b == nil {
		if a != b {
			return fmt.Sprintf("graph %v vs %v", a, b)
		}
		return ""
	}
	if len(a.Nodes) != len(b.Nodes) {
		return fmt.Sprintf("%d nodes vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return fmt.Sprintf("node %d: %+v vs %+v", i, a.Nodes[i], b.Nodes[i])
		}
	}
	if !slices.Equal(a.Extra, b.Extra) {
		return fmt.Sprintf("extra edges %v vs %v", a.Extra, b.Extra)
	}
	if a.Source != b.Source {
		return fmt.Sprintf("source %q vs %q", a.Source, b.Source)
	}
	return ""
}

// partsSummary renders individual parts field by field, their IXs by
// ixSummary.
func partsSummary(parts []individual.Part) string {
	var b strings.Builder
	for _, p := range parts {
		fmt.Fprintf(&b, "%s %v %v %q %v %v %v\n", strings.TrimSpace(ixSummary([]*ix.IX{p.IX})),
			p.Triples, p.Origins, p.Description, p.Superlative, p.Habit, p.Majority)
	}
	return b.String()
}

// ixSummary renders IXs by what identifies them: anchor, nodes, types,
// contributing pattern names and uncertainty.
func ixSummary(ixs []*ix.IX) string {
	var b strings.Builder
	for _, x := range ixs {
		fmt.Fprintf(&b, "%d %v %v %s %v\n", x.Anchor, x.Nodes, x.Types, patternNames(x), x.Uncertain)
	}
	return b.String()
}

// TestCacheRebindDifferential: a same-shape question with different
// entities is served by re-binding the cached plan, and the re-bound
// translation must be byte-identical to a cold translation of that
// question: the OASSIS-QL query, every backend, and the provenance
// excerpts. Pairs are three hand-written ones plus every corpus-derived
// variant (corpusVariants). A variant whose parse differs from its base
// question's must be refused by the rebind and translated cold.
func TestCacheRebindDifferential(t *testing.T) {
	onto := ontology.NewDemoOntology()
	pairs := [][2]string{
		{"Where do families eat near Delaware Park?", "Where do families eat near Central Park?"},
		{"Which restaurants near Woodlawn Beach do locals recommend?", "Which restaurants near Niagara Falls do locals recommend?"},
		{"What should we visit near Anchor Bar?", "What should we visit near Buffalo Zoo?"},
	}
	hand := len(pairs)
	pairs = append(pairs, corpusVariants(onto)...)
	// lexical are variants that share their base's shape and parse but
	// not its meaning: "kids" and "children" are participant words to
	// the IX detector and "adults" is not, so the rebound plan keeps the
	// base's participant triple. They are served rebound and differ from
	// cold until the shape key keeps such vocabulary words literal.
	lexical := map[string]bool{
		"Which foods do adults like?":                            true,
		"Should my adults swim at Woodlawn Beach in the summer?": true,
		"What do adults drink for breakfast?":                    true,
	}
	ctx := context.Background()
	opt := Options{Backends: allBackends()}
	cold := New(onto)
	rebound, refused := 0, 0
	for i, pair := range pairs {
		label := fmt.Sprintf("pair %d (%q from %q)", i, pair[1], pair[0])
		cached := New(onto)
		cached.Cache = qcache.New(64)

		// Verify the pair actually shares a shape; otherwise the test
		// exercises nothing.
		sa := qcache.Canonicalize(pair[0], onto)
		sb := qcache.Canonicalize(pair[1], onto)
		if sa.Key != sb.Key {
			t.Fatalf("%s: shapes differ:\n  %q\n  %q", label, sa.Key, sb.Key)
		}

		if _, err := cached.Translate(ctx, pair[0], opt); err != nil {
			t.Fatalf("%s: warm-up: %v", label, err)
		}
		got, err := cached.Translate(ctx, pair[1], opt)
		if err != nil {
			t.Fatalf("%s: rebind translate: %v", label, err)
		}
		want, err := cold.Translate(ctx, pair[1], opt)
		if err != nil {
			t.Fatalf("%s: cold translate: %v", label, err)
		}
		if got.CacheOutcome == "rebound" {
			rebound++
		} else {
			refused++
		}
		if lexical[pair[1]] {
			if got.CacheOutcome != "rebound" || got.Query.String() == want.Query.String() {
				t.Errorf("%s: lexical variant now %s and equal to cold: drop it from the list", label, got.CacheOutcome)
			}
			continue
		}
		if i < hand && got.CacheOutcome != "rebound" {
			t.Errorf("%s: served %q, want a rebind", label, got.CacheOutcome)
		}
		compareResults(t, label, want, got)

		// Provenance excerpts must re-derive from the *new* question.
		wantRecs, gotRecs := want.Provenance(), got.Provenance()
		if len(gotRecs) != len(wantRecs) {
			t.Errorf("%s: %d provenance records, cold has %d", label, len(gotRecs), len(wantRecs))
		}
		for key, rec := range wantRecs {
			gotRec, ok := gotRecs[key]
			if !ok {
				t.Errorf("%s: rebind lost provenance for %s", label, key)
				continue
			}
			if rec.Text != gotRec.Text {
				t.Errorf("%s: provenance text for %s: cold %q, rebound %q", label, key, rec.Text, gotRec.Text)
			}
		}
	}
	// 197 corpus variants: 184 share their base's parse and rebind (181
	// sound plus the 3 lexical ones); 13 parse differently and are
	// translated cold.
	if n := len(pairs) - hand; n != 197 || rebound != hand+184 || refused != 13 {
		t.Errorf("%d corpus variants, %d rebound, %d refused; want 197, %d and 13", n, rebound, refused, hand+184)
	}
}

// sameParse reports whether two dependency graphs have the same
// structure: equal tags, heads and relations node for node, and equal
// extra edges. A same-shape question can still parse differently ("Is
// grilled chicken good for kids?" against "Is chocolate milk good for
// kids?"), and a plan rebound across different parses would differ
// from the question's cold translation. It is the oracle of the
// tag-level rebind guard, nlp.DepGraph.WithTokens.
func sameParse(a, b *nlp.DepGraph) bool {
	if a == nil || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		x, y := &a.Nodes[i], &b.Nodes[i]
		if x.POS != y.POS || x.Head != y.Head || x.Rel != y.Rel {
			return false
		}
	}
	return slices.Equal(a.Extra, b.Extra)
}

// TestSameParse: the oracle compares node count, every node's tag, head
// and relation, and the extra edges; a difference in any one of them
// refuses the rebind.
func TestSameParse(t *testing.T) {
	base, err := nlp.Parse("Where do families eat near Delaware Park?")
	if err != nil {
		t.Fatal(err)
	}
	same, err := nlp.Parse("Where do families eat near Central Park?")
	if err != nil {
		t.Fatal(err)
	}
	if !sameParse(base, same) {
		t.Fatal("same-structure parses compared unequal")
	}
	mutations := map[string]func(g *nlp.DepGraph){
		"node count": func(g *nlp.DepGraph) { g.Nodes = g.Nodes[:len(g.Nodes)-1] },
		"tag":        func(g *nlp.DepGraph) { g.Nodes[2].POS = "VB" },
		"head":       func(g *nlp.DepGraph) { g.Nodes[2].Head = 0 },
		"relation":   func(g *nlp.DepGraph) { g.Nodes[2].Rel = nlp.RelDep },
		"extra edge": func(g *nlp.DepGraph) { g.Extra = append(g.Extra, nlp.Edge{Head: 3, Dep: 2, Rel: nlp.RelDObj}) },
	}
	for name, mutate := range mutations {
		g := *same
		g.Nodes = slices.Clone(same.Nodes)
		g.Extra = slices.Clone(same.Extra)
		mutate(&g)
		if sameParse(base, &g) {
			t.Errorf("parses differing in %s compared equal", name)
		}
	}
}

// TestRebindGuardAgreesWithParse runs the rebind guard over every
// ordered pair of corpus questions and variants with equal token counts.
// Whenever the guard accepts a question's tagged tokens over another's
// graph, the graph it serves must equal the question's own parse, field
// for field, and sameParse must hold.
func TestRebindGuardAgreesWithParse(t *testing.T) {
	onto := ontology.NewDemoOntology()
	var texts []string
	for _, q := range corpus.All() {
		texts = append(texts, q.Text)
	}
	for _, pair := range corpusVariants(onto) {
		texts = append(texts, pair[1])
	}
	graphs := make([]*nlp.DepGraph, len(texts))
	for i, q := range texts {
		graphs[i], _ = nlp.Parse(q)
	}
	pairs, accepted := 0, 0
	for i, base := range graphs {
		for j, want := range graphs {
			if i == j || base == nil || want == nil || len(base.Nodes) != len(want.Nodes) {
				continue
			}
			pairs++
			toks := nlp.Tokenize(texts[j])
			nlp.Tag(toks)
			got, ok := base.WithTokens(toks, texts[j])
			if !ok {
				continue
			}
			accepted++
			if d := graphDiff(want, got); d != "" || !sameParse(base, want) {
				t.Fatalf("guard served %q over %q: %s", texts[j], texts[i], d)
			}
		}
	}
	t.Logf("%d same-length pairs, %d accepted", pairs, accepted)
	if accepted == 0 {
		t.Error("the guard accepted no pair")
	}
}

// TestCacheFillRace: a filler that changes its result after Translate
// (the daemon prepends its queue stage to the trace) must not race with
// exact hits of the same entry. Run under -race.
func TestCacheFillRace(t *testing.T) {
	onto := ontology.NewDemoOntology()
	tr := New(onto)
	tr.Cache = qcache.New(16)
	ctx := context.Background()
	const q = "Where do families eat near Delaware Park?"
	opt := Options{Trace: true}
	res, err := tr.Translate(ctx, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		for i := 0; i < 50; i++ {
			hit, err := tr.Translate(ctx, q, opt)
			if err == nil && (hit.CacheOutcome != "hit" || len(hit.Trace) != 1) {
				err = fmt.Errorf("repeat %d: %s with %d trace stages, want a hit with 1", i, hit.CacheOutcome, len(hit.Trace))
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 50; i++ {
		res.Trace = append([]Stage{{Module: StageQueue}}, res.Trace...)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// corpusVariants derives same-shape variants of the supported corpus
// questions by the benchmark's serve-hot rule: one slot at a time, each
// entity mention is swapped for every other entity sharing one of its
// classes whose label resolves to that entity alone, keeping the swaps
// that leave the shape key unchanged. Each pair is (base, variant).
func corpusVariants(onto *ontology.Ontology) [][2]string {
	snap := onto.Snapshot()
	byClass := map[rdf.Term][]rdf.Term{}
	snap.MatchFunc(rdf.T(rdf.NewVar("s"), ontology.PredInstanceOf, rdf.NewVar("c")), func(t rdf.Triple) bool {
		byClass[t.O] = append(byClass[t.O], t.S)
		return true
	})
	for _, ts := range byClass {
		sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	}
	var out [][2]string
	for _, q := range corpus.Supported() {
		shape := qcache.Canonicalize(q.Text, onto)
		pos := 0
		for _, slot := range shape.Entities {
			at := strings.Index(q.Text[pos:], slot.Phrase)
			if at < 0 {
				break
			}
			at += pos
			pos = at + len(slot.Phrase)
			seen := map[rdf.Term]bool{slot.Term: true}
			for _, class := range snap.Objects(slot.Term, ontology.PredInstanceOf) {
				for _, cand := range byClass[class] {
					if seen[cand] {
						continue
					}
					seen[cand] = true
					label := onto.Label(cand)
					if t, ok := onto.ResolveEntity(label); !ok || t != cand {
						continue
					}
					text := q.Text[:at] + label + q.Text[at+len(slot.Phrase):]
					if qcache.Canonicalize(text, onto).Key == shape.Key {
						out = append(out, [2]string{q.Text, text})
					}
				}
			}
		}
	}
	return out
}

// TestCacheBypassesInteractiveRequests: a request with an interactor or
// an asking policy must never touch the cache — dialogue answers are
// request-private.
func TestCacheBypassesInteractiveRequests(t *testing.T) {
	onto := ontology.NewDemoOntology()
	tr := New(onto)
	tr.Cache = qcache.New(16)
	ctx := context.Background()
	q := "Where do families eat near Delaware Park?"

	if _, err := tr.Translate(ctx, q, Options{Interactor: interact.Auto{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Translate(ctx, q, Options{Policy: interact.Interactive()}); err != nil {
		t.Fatal(err)
	}
	if st := tr.Cache.Stats(); st.Hits+st.Misses+st.Waits != 0 {
		t.Errorf("interactive requests touched the cache: %+v", st)
	}
}

// TestCacheFeedbackKeepsUnrelatedPlans: recording disambiguation
// feedback empties no cache. A plan none of whose ranked reads the
// choice changes ("Delaware Park" is no "buffalo") is still served as a
// hit, after a replay under the new feedback version.
func TestCacheFeedbackKeepsUnrelatedPlans(t *testing.T) {
	onto := ontology.NewDemoOntology()
	tr := New(onto)
	tr.Cache = qcache.New(16)
	ctx := context.Background()
	q := "Where do families eat near Delaware Park?"

	for _, want := range []string{"miss", "hit"} {
		res, err := tr.Translate(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheOutcome != want {
			t.Fatalf("before feedback: outcome %q, want %q", res.CacheOutcome, want)
		}
	}
	tr.Generator.Feedback.Record("buffalo", ontology.E("Buffalo,_NY"))
	res, err := tr.Translate(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := tr.Cache.Stats(); res.CacheOutcome != "hit" || st.Misses != 1 || st.Stale != 0 || st.Entries != 1 {
		t.Errorf("after feedback: outcome %q, stats %+v; want a hit, 1 miss, no stale drop, 1 entry", res.CacheOutcome, st)
	}
}

// TestCacheObserverSeesPlanCacheStage: the observability hook must see
// the Plan Cache stage on cached paths, and the hit trace must name it.
func TestCacheObserverSeesPlanCacheStage(t *testing.T) {
	onto := ontology.NewDemoOntology()
	tr := New(onto)
	tr.Cache = qcache.New(16)
	ctx := context.Background()
	q := "Where do families eat near Delaware Park?"

	seen := map[string]int{}
	var mu sync.Mutex
	opt := Options{
		Trace: true,
		Observer: ObserverFunc(func(stage string, d time.Duration, err error) {
			mu.Lock()
			seen[stage]++
			mu.Unlock()
		}),
	}
	if _, err := tr.Translate(ctx, q, opt); err != nil {
		t.Fatal(err)
	}
	res, err := tr.Translate(ctx, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if seen[StagePlanCache] != 2 {
		t.Errorf("observer saw Plan Cache %d times, want 2 (miss + hit)", seen[StagePlanCache])
	}
	if len(res.Trace) != 1 || res.Trace[0].Module != StagePlanCache {
		t.Errorf("hit trace = %+v, want a single Plan Cache stage", res.Trace)
	}
}
