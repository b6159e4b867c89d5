package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nl2cm"
	"nl2cm/internal/corpus"
	"nl2cm/internal/ix"
	"nl2cm/internal/ontology"
	"nl2cm/internal/qcache"
	"nl2cm/internal/rdf"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wTranslateCold = "translate-cold"
	wServeHot      = "serve-hot"
	wServeWrite    = "serve-write"
	wExecuteCrowd  = "execute-crowd"
)

var workloads = []string{wTranslateCold, wServeHot, wServeWrite, wExecuteCrowd}

// Op-list shape. The timed phase cycles through the list, so these fix
// how much distinct input one run sees, not how long it runs.
const (
	coldPasses   = 16   // translate-cold: passes over the 81-question corpus
	serveReads   = 8192 // serve-hot: Zipf draws
	writeReads   = 4000 // serve-write: Zipf draws
	writeEvery   = 20   // serve-write: a write batch before every 20th read
	freshPool    = 16   // serve-write: fresh entities the batches cycle through
	crowdPasses  = 8    // execute-crowd: passes over the supported questions
	zipfExponent = 1.0
	rankSeed     = 1    // deals Zipf popularity ranks; fixed across runs
	planCacheCap = 1024 // the daemon's default -plan-cache
	crowdSize    = 100  // the daemon's default -crowd-size
	crowdSeed    = 7    // the daemon's default -crowd-seed
)

// dialects are the backends a translate-cold op may request.
var dialects = []string{"oassisql", "sql", "mongodb", "cypher"}

// goldenFile names each dialect's golden emission file under testdata/.
var goldenFile = map[string]string{
	"oassisql": "golden_oassisql.txt",
	"sql":      "golden_sql.txt",
	"mongodb":  "golden_mongo.txt",
	"cypher":   "golden_cypher.txt",
}

type opKind uint8

const (
	opTranslate opKind = iota // Translate + Render, as POST /api/translate
	opExecute                 // Translate + Engine.Execute, as POST /execute
	opWrite                   // ShardedStore.Apply, as POST /api/store
)

// op is one request of the closed-loop client.
type op struct {
	kind    opKind
	item    int    // index into bench.items; -1 for a fresh-entity read
	dialect string // opTranslate: the requested backend
	reset   bool   // opExecute: first op of a pass, drops the support memo
}

// item is one question the op list may ask, with its expected output.
type item struct {
	id        string
	text      string
	shape     string
	variant   bool   // a same-shape entity variant of a corpus question
	supported bool   // gold verification verdict
	category  string // gold rejection category when unsupported
	// want maps a dialect to the expected rendering (query plus notes).
	want map[string]string
}

// fresh is one entity the serve-write batches insert, with the read
// that names it.
type fresh struct {
	local string
	batch nl2cm.StoreBatch // deletes the previous fresh entity, inserts this one
	text  string           // a corpus question with this entity in a slot
	want  string           // cold rendering of text while the entity exists
}

// bench is one workload set up and ready to run.
type bench struct {
	name    string
	onto    *nl2cm.Ontology
	tr      *nl2cm.Translator
	eng     *nl2cm.Engine
	items   []item
	ops     []op
	warm    int // ops the warm-up pass runs
	pass    int // ops per pass over the items; a timed stretch ends on a pass boundary
	fresh   []fresh
	writes  int      // batches applied so far
	unsound int      // variants left out: the cache's answer differs from the cold one
	exec    []string // execute-crowd: canonical bindings per item, from the warm-up pass
	backend map[string][]string
	sample  int // effective crowd sample size
	tracer  *tracer
	obs     nl2cm.Observer // tracer as an Observer; nil when untraced

	next   int      // position in ops of the next op
	record []string // when non-nil, cache outcomes are appended in op order
	stats  runStats
}

// runStats are the untimed tallies the output checks keep.
type runStats struct {
	outcomes   map[string]int
	translates int
	rejected   int
	writes     int
	failed     int
	firstErr   error
	itemTime   map[int]float64 // execute-crowd: seconds per item
	whereRows  int
	tasks      int
}

func newStats() runStats {
	return runStats{outcomes: map[string]int{}, itemTime: map[int]float64{}}
}

// setup builds the named workload from the seed: the ontology, the
// translator and engine as cmd/nl2cmd configures them, the op list, the
// output oracles, and a checked warm-up pass.
func setup(name string, seed int64, root string) (*bench, error) {
	onto := nl2cm.DemoOntology()
	tr := nl2cm.NewTranslator(onto)
	tr.Detector.Stats = ix.NewMatchStats(10)
	c := nl2cm.NewCrowd(crowdSize, crowdSeed)
	c.Truth = nl2cm.DemoTruth()
	b := &bench{
		name:    name,
		onto:    onto,
		tr:      tr,
		eng:     nl2cm.NewEngine(onto, c),
		sample:  crowdSize,
		pass:    1,
		backend: map[string][]string{},
		stats:   newStats(),
	}
	for _, d := range dialects {
		if d != nl2cm.DefaultBackend {
			b.backend[d] = []string{d}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var err error
	switch name {
	case wTranslateCold:
		err = b.setupCold(rng, root)
	case wServeHot, wServeWrite:
		err = b.setupServe(rng)
	case wExecuteCrowd:
		err = b.setupCrowd(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := b.warmUp(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	return b, nil
}

// setupCold asks every corpus question once per pass, in seeded order,
// each in a seeded dialect, with no plan cache; outputs are checked
// against the golden emission files.
func (b *bench) setupCold(rng *rand.Rand, root string) error {
	golden := map[string]map[string]string{}
	for d, f := range goldenFile {
		g, err := loadGolden(filepath.Join(root, "testdata", f))
		if err != nil {
			return err
		}
		golden[d] = g
	}
	for _, q := range corpus.All() {
		it := item{id: q.ID, text: q.Text, supported: q.Supported, category: q.UnsupportedCategory}
		if q.Supported {
			it.want = map[string]string{}
			for d := range goldenFile {
				w, ok := golden[d][q.ID]
				if !ok {
					return fmt.Errorf("no %s golden entry for %s", d, q.ID)
				}
				it.want[d] = w
			}
		}
		b.items = append(b.items, it)
	}
	for p := 0; p < coldPasses; p++ {
		for _, i := range rng.Perm(len(b.items)) {
			b.ops = append(b.ops, op{kind: opTranslate, item: i, dialect: dialects[rng.Intn(len(dialects))]})
		}
	}
	b.warm = len(b.ops)
	b.pass = len(b.items)
	return nil
}

// setupServe builds the cached-serving stream: every supported corpus
// question plus its same-shape entity variants, drawn Zipf-distributed.
// The plan cache is warmed with every base shape, and a variant is kept
// only when the cache serves it by rebinding to exactly the cold
// translation. serve-write adds a write batch before every
// writeEvery-th read and a read naming the entity it inserted.
func (b *bench) setupServe(rng *rand.Rand) error {
	cold := nl2cm.NewTranslator(b.onto)
	b.tr.Cache = nl2cm.NewPlanCache(planCacheCap)
	bases, err := b.baseItems(cold)
	if err != nil {
		return err
	}
	for _, it := range bases {
		res, err := b.tr.Translate(context.Background(), it.text, nl2cm.Options{Trace: true})
		if err != nil {
			return fmt.Errorf("warming %s: %w", it.id, err)
		}
		if got, err := render(res, nl2cm.DefaultBackend); err != nil || got != it.want[nl2cm.DefaultBackend] {
			return fmt.Errorf("warming %s: cached translation differs from the cold one (%v)", it.id, err)
		}
	}
	b.items = bases
	for _, v := range variants(b.onto, bases) {
		want, err := coldRender(cold, v.text)
		if err != nil {
			return err
		}
		res, err := b.tr.Translate(context.Background(), v.text, nl2cm.Options{Trace: true})
		if err != nil {
			return fmt.Errorf("warming %s: %w", v.id, err)
		}
		got, err := render(res, nl2cm.DefaultBackend)
		if err != nil || res.CacheOutcome != "rebound" || got != want {
			// The cache serves this variant differently from a cold
			// translation: a fault of the cache, not of the stream, and
			// kept out of it so that every timed op can succeed.
			b.unsound++
			continue
		}
		v.want = map[string]string{nl2cm.DefaultBackend: want}
		b.items = append(b.items, v)
	}

	reads := serveReads
	if b.name == wServeWrite {
		reads = writeReads
		if err := b.setupFresh(cold, bases); err != nil {
			return err
		}
	}
	freshAt := -1
	for r, i := range zipfStream(rng, b.items, reads) {
		if b.name == wServeWrite && r%writeEvery == 0 {
			b.ops = append(b.ops, op{kind: opWrite})
			// One read of each window names the entity just inserted.
			freshAt = r + rng.Intn(writeEvery)
		}
		if r == freshAt {
			i = -1
		}
		b.ops = append(b.ops, op{kind: opTranslate, item: i, dialect: nl2cm.DefaultBackend})
	}
	b.warm = len(b.ops)
	return nil
}

// baseItems returns the supported corpus questions with their cold
// OASSIS-QL renderings.
func (b *bench) baseItems(cold *nl2cm.Translator) ([]item, error) {
	var out []item
	for _, q := range corpus.Supported() {
		want, err := coldRender(cold, q.Text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		out = append(out, item{
			id:        q.ID,
			text:      q.Text,
			shape:     qcache.Canonicalize(q.Text, b.onto).Key,
			supported: true,
			want:      map[string]string{nl2cm.DefaultBackend: want},
		})
	}
	return out, nil
}

// setupFresh prepares serve-write's batches. Each inserts a fresh
// one-word City and deletes the previous one, so the store size stays
// constant; the read naming it is a corpus question whose one-word City
// slot is swapped for the fresh label. Its oracle is a cold translation
// made while that entity is in the store.
func (b *bench) setupFresh(cold *nl2cm.Translator, bases []item) error {
	city := ontology.E("City")
	var tmpl item
	var slot qcache.Binding
	snap := b.onto.Snapshot()
search:
	for _, it := range bases {
		for _, e := range qcache.Canonicalize(it.text, b.onto).Entities {
			if !strings.ContainsAny(e.Phrase, " ,-") && hasClass(snap, e.Term, city) {
				tmpl, slot = it, e
				break search
			}
		}
	}
	if tmpl.id == "" {
		return fmt.Errorf("no corpus question has a one-word City slot for the fresh-entity reads")
	}
	triples := func(local string) []rdf.Triple {
		e := ontology.E(local)
		return []rdf.Triple{
			rdf.T(e, ontology.PredLabel, rdf.NewLiteral(local)),
			rdf.T(e, ontology.PredInstanceOf, city),
		}
	}
	b.fresh = make([]fresh, freshPool)
	for i := range b.fresh {
		b.fresh[i].local = "Quox" + letters(i)
	}
	for i := range b.fresh {
		f := &b.fresh[i]
		prev := b.fresh[(i+freshPool-1)%freshPool]
		f.batch = nl2cm.StoreBatch{Delete: triples(prev.local), Insert: triples(f.local)}
		f.text = strings.Replace(tmpl.text, slot.Phrase, f.local, 1)
		if _, _, _, err := b.onto.Store.Apply(nl2cm.StoreBatch{Insert: f.batch.Insert}); err != nil {
			return err
		}
		want, err := coldRender(cold, f.text)
		if err != nil {
			return err
		}
		if _, _, _, err := b.onto.Store.Apply(nl2cm.StoreBatch{Delete: f.batch.Insert}); err != nil {
			return err
		}
		if !strings.Contains(want, f.local) {
			return fmt.Errorf("cold translation of %q does not bind %s", f.text, f.local)
		}
		f.want = want
	}
	// The first timed batch deletes the last pool entity: insert it now.
	_, _, _, err := b.onto.Store.Apply(nl2cm.StoreBatch{Insert: b.fresh[freshPool-1].batch.Insert})
	return err
}

// setupCrowd runs every supported question through the daemon's default
// engine once per pass, in seeded order, each pass starting with an
// empty support memo. The warm-up pass records the oracle bindings.
func (b *bench) setupCrowd(rng *rand.Rand) error {
	b.tr.Cache = nl2cm.NewPlanCache(planCacheCap)
	for _, q := range corpus.Supported() {
		b.items = append(b.items, item{id: q.ID, text: q.Text, supported: true,
			shape: qcache.Canonicalize(q.Text, b.onto).Key})
		if _, err := b.tr.Translate(context.Background(), q.Text, nl2cm.Options{Trace: true}); err != nil {
			return fmt.Errorf("warming %s: %w", q.ID, err)
		}
	}
	for p := 0; p < crowdPasses; p++ {
		for k, i := range rng.Perm(len(b.items)) {
			b.ops = append(b.ops, op{kind: opExecute, item: i, reset: k == 0})
		}
	}
	b.warm = len(b.items)
	b.pass = len(b.items)
	b.exec = make([]string, len(b.items))
	for i := 0; i < b.warm; i++ {
		o := &b.ops[i]
		r := b.do(context.Background(), o)
		if r.err != nil {
			return fmt.Errorf("%s: %w", b.items[o.item].id, r.err)
		}
		b.exec[o.item] = canonBindings(r.exec)
	}
	return nil
}

// warmUp runs the first b.warm ops untimed and checks them; the timed
// phase then starts again from the top of the list.
func (b *bench) warmUp() error {
	ctx := context.Background()
	for i := 0; i < b.warm; i++ {
		o := &b.ops[i]
		if err := b.check(o, b.do(ctx, o)); err != nil {
			return err
		}
	}
	b.next = 0
	b.stats = newStats()
	return nil
}

// variants swaps, one slot at a time, each entity mention of a base
// question for every other entity sharing one of its classes whose
// label resolves to it alone, keeping the swaps that leave the shape
// key unchanged.
func variants(onto *nl2cm.Ontology, bases []item) []item {
	snap := onto.Snapshot()
	byClass := map[rdf.Term][]rdf.Term{}
	snap.MatchFunc(rdf.T(rdf.NewVar("s"), ontology.PredInstanceOf, rdf.NewVar("c")), func(t rdf.Triple) bool {
		byClass[t.O] = append(byClass[t.O], t.S)
		return true
	})
	for _, ts := range byClass {
		sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	}
	var out []item
	for _, it := range bases {
		n := 0
		pos := 0
		for _, slot := range qcache.Canonicalize(it.text, onto).Entities {
			at := strings.Index(it.text[pos:], slot.Phrase)
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
					text := it.text[:at] + label + it.text[at+len(slot.Phrase):]
					if qcache.Canonicalize(text, onto).Key != it.shape {
						continue
					}
					n++
					out = append(out, item{id: fmt.Sprintf("%s~%d", it.id, n), text: text,
						shape: it.shape, variant: true, supported: true})
				}
			}
		}
	}
	return out
}

// zipfStream draws n item indices with Zipf-distributed popularity.
// Popularity ranks are dealt once, by a fixed shuffle stratified so that
// every block of ranks holds corpus questions and variants in their
// population ratio; the seed draws the stream. Which questions are hot
// is thus the same for every seed, and a seed changes the order and
// sample of requests, not the mix a run measures.
func zipfStream(rng *rand.Rand, items []item, n int) []int {
	var bases, vars []int
	for i, it := range items {
		if it.variant {
			vars = append(vars, i)
		} else {
			bases = append(bases, i)
		}
	}
	deal := rand.New(rand.NewSource(rankSeed))
	deal.Shuffle(len(bases), func(i, j int) { bases[i], bases[j] = bases[j], bases[i] })
	deal.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	ranked := make([]int, 0, len(items))
	nb, taken := len(bases), 0
	for r := range items {
		// Rank r+1 takes a corpus question while they are behind their share.
		if taken < (r+1)*nb/len(items) || len(vars) == 0 {
			ranked, bases = append(ranked, bases[0]), bases[1:]
			taken++
		} else {
			ranked, vars = append(ranked, vars[0]), vars[1:]
		}
	}
	cdf := make([]float64, len(ranked))
	sum := 0.0
	for r := range ranked {
		sum += 1 / math.Pow(float64(r+1), zipfExponent)
		cdf[r] = sum
	}
	out := make([]int, n)
	for k := range out {
		r := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		if r >= len(ranked) {
			r = len(ranked) - 1
		}
		out[k] = ranked[r]
	}
	return out
}

func hasClass(snap *rdf.Snapshot, t, class rdf.Term) bool {
	for _, c := range snap.Objects(t, ontology.PredInstanceOf) {
		if c == class {
			return true
		}
	}
	return false
}

// letters spells i in base 26 with lower-case letters ("a", "b", … "ba").
func letters(i int) string {
	s := string(rune('a' + i%26))
	for i /= 26; i > 0; i /= 26 {
		s = string(rune('a'+i%26)) + s
	}
	return s
}

// coldRender translates the question with no plan cache and returns its
// OASSIS-QL rendering.
func coldRender(cold *nl2cm.Translator, text string) (string, error) {
	res, err := cold.Translate(context.Background(), text, nl2cm.Options{})
	if err != nil {
		return "", fmt.Errorf("cold translation of %q: %w", text, err)
	}
	if !res.Verdict.Supported {
		return "", fmt.Errorf("cold translation of %q: rejected: %s", text, res.Verdict.Reason)
	}
	return render(res, nl2cm.DefaultBackend)
}

// render formats a result's rendering in one dialect the way the golden
// files hold it: the query text followed by any fallback notes.
func render(res *nl2cm.Result, dialect string) (string, error) {
	rend, err := res.Render(dialect)
	if err != nil {
		return "", err
	}
	return renderEntry(rend), nil
}

func renderEntry(r *nl2cm.Rendering) string {
	s := strings.TrimRight(r.Query, "\n")
	for _, n := range r.Notes {
		s += "\nnote: " + n
	}
	return s
}

// loadGolden parses a golden file in the "=== <id>" format.
func loadGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading golden file: %w", err)
	}
	out := map[string]string{}
	var id string
	var lines []string
	flush := func() {
		if id != "" {
			out[id] = strings.Join(lines, "\n")
		}
	}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if rest, found := strings.CutPrefix(line, "=== "); found {
			flush()
			id, lines = rest, nil
			continue
		}
		lines = append(lines, line)
	}
	flush()
	return out, nil
}

// canonBindings renders an execution's bindings as a sorted multiset.
func canonBindings(r *nl2cm.ExecResult) string {
	rows := make([]string, 0, len(r.Bindings))
	for _, bnd := range r.Bindings {
		vars := make([]string, 0, len(bnd))
		for v := range bnd {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var parts []string
		for _, v := range vars {
			parts = append(parts, v+"="+bnd[v].String())
		}
		rows = append(rows, strings.Join(parts, " "))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}
