package ix

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"nl2cm/internal/corpus"
	"nl2cm/internal/nlp"
)

// futureWishSource is TestCustomPatternAndVocabulary's administrator
// pattern; e11Source is the paper's §2.3 pattern as experiment E11 runs
// it.
const (
	futureWishSource = `PATTERN future_wish TYPE syntactic ANCHOR $v
{$v auxiliary $m
FILTER(WORD($m) IN V_wish)}`
	e11Source = `PATTERN participant_subject TYPE participant ANCHOR $x
{$x subject $y
filter(POS($x) = "verb" && $y in V_participant)}`
)

// grammarSources cover the filter grammar and the triple forms: ||, !,
// !=, < and >=, + and -, IN lists, NOT IN, INDEX/TAG/WORD, nodes compared
// with literals, variable relations, repeated and anonymous variables,
// several rows per anchor, constant subjects and unknown vocabularies.
var grammarSources = []string{
	`PATTERN or_not TYPE lexical ANCHOR $a
{$n modifier $a
FILTER(POS($a) = "adjective" || !(LEMMA($a) IN V_sentiment))}`,
	`PATTERN index_window TYPE syntactic ANCHOR $v
{$v subject $s
FILTER(INDEX($s) < INDEX($v) && INDEX($v) - INDEX($s) >= 1 && INDEX($s) + 1 != 0)}`,
	`PATTERN tag_list TYPE syntactic ANCHOR $v
{$v auxiliary $m
FILTER(TAG($v) IN ("VB", "VBP", "VBZ") && WORD($m) NOT IN ("will", "can"))}`,
	`PATTERN node_vs_literal TYPE lexical ANCHOR $x
{$x $r $y
FILTER($y != "n2" && $x > "n1" && $r = subject)}`,
	`PATTERN any_relation TYPE participant ANCHOR $y
{$x $r $y
FILTER($y IN V_participant && $r IN ("nsubj", "poss", "dobj"))}`,
	`PATTERN two_hops TYPE participant ANCHOR $v
{$v $r $s .
$s $q $p
FILTER($p IN V_participant)}`,
	`PATTERN shared_relation TYPE syntactic ANCHOR $h
{$h $r $a .
$h $r $b
FILTER(INDEX($a) < INDEX($b))}`,
	`PATTERN self_loop TYPE lexical ANCHOR $x
{$x subject $x}`,
	`PATTERN anonymous TYPE lexical ANCHOR $v
{$v subject [] .
$v object []}`,
	`PATTERN constant_object TYPE lexical ANCHOR $v
{$v subject Buffalo}`,
	`PATTERN missing_vocabulary TYPE lexical ANCHOR $v
{$v subject $s
FILTER(POS($v) = verb || $s IN V_nowhere)}`,
	`PATTERN numeric_words TYPE lexical ANCHOR $n
{$h $r $n
FILTER(WORD($n) > 2 || WORD($n) = "2" || TAG($n) = CD || INDEX($n) = "3")}`,
	`PATTERN type_errors TYPE lexical ANCHOR $v
{$v $r $s
FILTER(INDEX($v) > 4 || POS($r) = "verb" || LEMMA("x") = "x" || $r + 1 = 2)}`,
	`PATTERN relation_anchor TYPE lexical ANCHOR $r
{$h $r $d}`,
	`PATTERN relation_text TYPE lexical ANCHOR $d
{$h $r $d
FILTER($r IN V_rel || $r < "b" || $r >= $d || true && 1)}`,
	`PATTERN constant_only TYPE lexical ANCHOR $v
{$v cop $c
FILTER("a" != "b" && !false)}`,
}

// testPatternSource is every pattern the oracle tests run: the shipped
// set, the test-file patterns and the grammar patterns.
func testPatternSource() string {
	return DefaultPatternSource + "\n" + futureWishSource + "\n" + e11Source + "\n" + strings.Join(grammarSources, "\n")
}

// oracleDetector returns a detector over the patterns with the default
// vocabularies plus V_wish and V_rel, a vocabulary of relation names.
func oracleDetector(t testing.TB, src string) *Detector {
	t.Helper()
	ps, err := ParsePatterns(src)
	if err != nil {
		t.Fatalf("ParsePatterns: %v", err)
	}
	d := &Detector{Patterns: ps, Vocabs: DefaultVocabularies()}
	d.Vocabs.Register(NewVocabulary("V_wish", "wanna", "gonna", "want"))
	d.Vocabs.Register(NewVocabulary("V_rel", "nsubj", "poss"))
	return d
}

// sameMatches reports the first difference between Find's matches and
// the oracle's: pattern, anchor, node set and order.
func sameMatches(got, want []Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, oracle %d:\n got %s\nwant %s", len(got), len(want), renderMatches(got), renderMatches(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Pattern != w.Pattern || g.Anchor != w.Anchor || fmt.Sprint(g.Nodes) != fmt.Sprint(w.Nodes) {
			return fmt.Errorf("match %d differs:\n got %s\nwant %s", i, renderMatches(got), renderMatches(want))
		}
	}
	return nil
}

func renderMatches(ms []Match) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprintf("%s@%d%v", m.Pattern.Name, m.Anchor, m.Nodes)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func checkAgainstOracle(t *testing.T, d *Detector, g *nlp.DepGraph) {
	t.Helper()
	ctx := context.Background()
	want, err := d.findOracle(ctx, g)
	if err != nil {
		t.Fatalf("findOracle(%q): %v", g.Source, err)
	}
	got, err := d.Find(ctx, g)
	if err != nil {
		t.Fatalf("Find(%q): %v", g.Source, err)
	}
	if err := sameMatches(got, want); err != nil {
		t.Errorf("%q: %v", g.Source, err)
	}
}

func TestFindMatchesOracle(t *testing.T) {
	d := oracleDetector(t, testPatternSource())
	n := 0
	for _, q := range corpus.All() {
		g, err := nlp.Parse(q.Text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q.Text, err)
		}
		checkAgainstOracle(t, d, g)
		n++
	}
	// Sentences with Extra edges, possessives and several participant
	// subjects of one verb.
	for _, s := range []string{
		"Trips I wanna take.",
		"Which snacks do my kids eat?",
		"Dishes people like that we cook.",
		"We and our kids should visit the zoo.",
		"Where should we visit in Buffalo?",
	} {
		checkAgainstOracle(t, d, parse(t, s))
		n++
	}
	if n < 80 {
		t.Fatalf("checked only %d sentences", n)
	}
}

// TestFindConcurrent runs one detector from several goroutines at once:
// the compiled matchers are shared and every call has its own frame, so
// each call returns what a lone call returns.
func TestFindConcurrent(t *testing.T) {
	d := oracleDetector(t, testPatternSource())
	var graphs []*nlp.DepGraph
	var want []string
	for _, q := range corpus.All()[:24] {
		g := parse(t, q.Text)
		ms, err := d.Find(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		graphs, want = append(graphs, g), append(want, renderMatches(ms))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range graphs {
				k := (i + w) % len(graphs)
				ms, err := d.Find(context.Background(), graphs[k])
				if err != nil {
					t.Error(err)
					return
				}
				if got := renderMatches(ms); got != want[k] {
					t.Errorf("%q: concurrent Find %s, alone %s", graphs[k].Source, got, want[k])
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestFindMatchesOracleWithoutVocabularies(t *testing.T) {
	d := oracleDetector(t, testPatternSource())
	d.Vocabs = nil
	checkAgainstOracle(t, d, parse(t, "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?"))
}

func TestFindVocabulariesStayLive(t *testing.T) {
	d := oracleDetector(t, futureWishSource)
	g := parse(t, "Trips I wanna take.")
	before, err := d.Find(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := d.Vocabs.Get("V_wish")
	v.Remove("wanna")
	after, err := d.Find(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || len(after) != 0 {
		t.Errorf("matches before/after editing V_wish = %d/%d, want 1/0", len(before), len(after))
	}
}

func TestFindRejectsUncompiledPattern(t *testing.T) {
	d := &Detector{Patterns: []*Pattern{{Name: "handmade", Anchor: "x"}}, Vocabs: DefaultVocabularies()}
	_, err := d.Find(context.Background(), parse(t, "We visit parks."))
	if err == nil || !strings.Contains(err.Error(), "handmade") {
		t.Errorf("Find with a hand-built pattern: err = %v, want an error naming it", err)
	}
}

func TestFindHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewDetector().Find(ctx, parse(t, "We visit parks.")); err == nil {
		t.Error("Find with a cancelled context succeeded")
	}
}

// TestFindAllocs pins the matcher's allocations on the running example:
// the frame, the match slice and one node slice per match (3 matches).
func TestFindAllocs(t *testing.T) {
	d := NewDetector()
	g := parse(t, "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?")
	ms, err := d.Find(context.Background(), g)
	if err != nil || len(ms) != 3 {
		t.Fatalf("Find = %d matches, %v; want 3", len(ms), err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.Find(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Find allocates %.0f times per call", allocs)
	if allocs > 8 {
		t.Errorf("Find allocates %.0f times per call, want at most 8", allocs)
	}
}

func TestPatternTyposAreLoadErrors(t *testing.T) {
	const sentence = "Where should we visit in Buffalo?"
	good := `PATTERN verb_subject TYPE participant ANCHOR $x
{$x subject $y
FILTER(POS($x) = "verb")}`
	d := oracleDetector(t, good)
	ms, err := d.Find(context.Background(), parse(t, sentence))
	if err != nil || len(ms) != 1 {
		t.Fatalf("the correct pattern matched %d times (%v), want 1", len(ms), err)
	}
	for typo, want := range map[string]string{
		`PSO($x) = "verb"`:     "unknown function PSO()",
		`POS($x, $y) = "verb"`: "POS() takes 1 argument, got 2",
		`POS($z) = "verb"`:     "filter variable $z is not bound",
	} {
		src := strings.Replace(good, `POS($x) = "verb"`, typo, 1)
		_, err := ParsePatterns(src)
		if err == nil || !strings.Contains(err.Error(), "verb_subject") || !strings.Contains(err.Error(), want) {
			t.Errorf("ParsePatterns with %s: err = %v, want %q naming the pattern", typo, err, want)
		}
	}
}

// fuzzGraphs is a fixed set of corpus graphs FuzzParsePatterns matches
// every accepted pattern source against.
var fuzzGraphs = sync.OnceValue(func() []*nlp.DepGraph {
	var out []*nlp.DepGraph
	for i, q := range corpus.All() {
		if i%6 != 0 {
			continue
		}
		if g, err := nlp.Parse(q.Text); err == nil {
			out = append(out, g)
		}
	}
	return out
})

// FuzzFind matches the default and test-file patterns against the parse
// of arbitrary text: Find must equal the sparql.Eval oracle.
func FuzzFind(f *testing.F) {
	for _, s := range []string{
		"What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?",
		"Which snacks do my kids eat?",
		"Trips I wanna take.",
		"Is chocolate milk good for kids?",
		"Which dish is overrated?",
		"Where do you visit in Buffalo?",
		"We and our kids should visit the zoo.",
		"",
		"3 2 1 nan inf",
	} {
		f.Add(s)
	}
	d := oracleDetector(f, DefaultPatternSource+"\n"+futureWishSource+"\n"+e11Source)
	f.Fuzz(func(t *testing.T, text string) {
		g, err := nlp.Parse(text)
		if err != nil {
			return
		}
		checkAgainstOracle(t, d, g)
	})
}

// FuzzParsePatterns feeds arbitrary pattern sources to ParsePatterns: no
// input may panic, and every accepted source must match exactly as the
// oracle does over the fixed corpus graphs.
func FuzzParsePatterns(f *testing.F) {
	f.Add(DefaultPatternSource)
	for _, s := range grammarSources {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ps, err := ParsePatterns(src)
		if err != nil {
			return
		}
		for _, p := range ps {
			if len(p.Triples) > 4 {
				return // keep the oracle's cartesian products small
			}
		}
		d := &Detector{Patterns: ps, Vocabs: DefaultVocabularies()}
		for _, g := range fuzzGraphs() {
			checkAgainstOracle(t, d, g)
		}
	})
}

// TestFindMatchesOracleRandomized compares Find with the oracle over
// random graphs and random patterns. Small relation and word alphabets
// give many rows per anchor, Extra edges and relation counts that
// differ, so the join order and the edge order decide which row each
// anchor keeps.
func TestFindMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rels := []string{"nsubj", "dobj", "poss", "aux", "amod"}
	relNames := []string{"subject", "object", "possessor", "aux", "amod", "nsubj"}
	tags := []string{"VB", "VBZ", "NN", "JJ", "PRP", "MD", "CD"}
	words := []string{"we", "visit", "good", "should", "3", "nan", "kids", "n2"}
	vars := []string{"a", "b", "c", "d"}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }

	randomGraph := func() *nlp.DepGraph {
		n := 3 + rng.Intn(12)
		g := &nlp.DepGraph{Nodes: make([]nlp.Node, n)}
		for i := range g.Nodes {
			w := pick(words)
			nd := nlp.Node{Token: nlp.Token{Index: i, Text: w, Lower: w, Lemma: pick(words), POS: pick(tags)}, Head: rng.Intn(n+1) - 1, Rel: pick(rels)}
			if nd.Head == i || nd.Head < 0 {
				nd.Head, nd.Rel = -1, nlp.RelRoot
			}
			g.Nodes[i] = nd
		}
		for k := rng.Intn(7); k > 0; k-- {
			g.Extra = append(g.Extra, nlp.Edge{Head: rng.Intn(n), Dep: rng.Intn(n), Rel: pick(rels)})
		}
		return g
	}
	var atom func(vs []string, depth int) string
	atom = func(vs []string, depth int) string {
		x, y := "$"+pick(vs), "$"+pick(vs)
		if depth < 2 && rng.Intn(3) == 0 {
			op := pick([]string{"&&", "||"})
			return "(" + atom(vs, depth+1) + " " + op + " " + atom(vs, depth+1) + ")"
		}
		switch rng.Intn(9) {
		case 0:
			return "POS(" + x + ") = " + pick([]string{`"verb"`, `"noun"`, "verb"})
		case 1:
			return x + " IN " + pick([]string{"V_participant", "V_sentiment", "V_rel"})
		case 2:
			return "INDEX(" + x + ") " + pick([]string{"<", ">=", "!="}) + " INDEX(" + y + ")"
		case 3:
			return "WORD(" + x + ") " + pick([]string{"=", ">", "<"}) + " " + pick([]string{`"3"`, "2", `"nan"`, `"n2"`})
		case 4:
			return x + " " + pick([]string{"=", "!=", "<"}) + " " + pick([]string{y, `"n2"`, "nsubj", `"nsubj"`})
		case 5:
			return "TAG(" + x + ") IN (\"VB\", \"NN\", " + y + ")"
		case 6:
			return "!(" + atom(vs, depth+1) + ")"
		case 7:
			return "LEMMA(" + x + ") NOT IN V_sentiment"
		}
		return "INDEX(" + x + ") " + pick([]string{"+", "-"}) + " INDEX(" + y + ") " + pick([]string{"<", "=", ">"}) + " " + pick([]string{"0", "5", `"9"`})
	}
	randomPattern := func(i int) string {
		var b strings.Builder
		var used []string
		nt := 1 + rng.Intn(4)
		for k := 0; k < nt; k++ {
			s, o := pick(vars), pick(vars)
			p := pick(relNames)
			if rng.Intn(4) == 0 {
				p = "$" + pick([]string{"r", "q"})
				used = append(used, p[1:])
			}
			used = append(used, s, o)
			fmt.Fprintf(&b, "$%s %s $%s .\n", s, p, o)
		}
		for k := rng.Intn(3); k > 0; k-- {
			fmt.Fprintf(&b, "FILTER(%s)\n", atom(used, 0))
		}
		return fmt.Sprintf("PATTERN r%d TYPE lexical ANCHOR $%s\n{%s}\n", i, pick(used), b.String())
	}

	for round := 0; round < 1000; round++ {
		var src strings.Builder
		for i := 0; i < 4; i++ {
			src.WriteString(randomPattern(i))
		}
		d := oracleDetector(t, src.String())
		for k := 0; k < 5; k++ {
			g := randomGraph()
			want, err := d.findOracle(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Find(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameMatches(got, want); err != nil {
				t.Fatalf("round %d:\n%s\ngraph %+v\n%v", round, src.String(), g, err)
			}
		}
	}
}

// TestPlanFollowsSparqlPlanner pins the join order on graphs where the
// sparql planner's ÷16 per bound variable and its disconnected-pattern
// penalty decide it. Over the sentence-sized random graphs above, a
// different join order rarely changes which row an anchor keeps.
func TestPlanFollowsSparqlPlanner(t *testing.T) {
	// One aux edge, two poss edges, and the rest dep edges, all from
	// node 0.
	graph := func(edges int) *nlp.DepGraph {
		g := &nlp.DepGraph{Nodes: make([]nlp.Node, edges+1)}
		g.Nodes[0] = nlp.Node{Head: -1, Rel: nlp.RelRoot}
		for i := 1; i <= edges; i++ {
			rel := nlp.RelDep
			switch i {
			case 1:
				rel = nlp.RelAux
			case 2, 3:
				rel = nlp.RelPoss
			}
			g.Nodes[i] = nlp.Node{Token: nlp.Token{Index: i}, Head: 0, Rel: rel}
		}
		return g
	}
	ps, err := ParsePatterns(`PATTERN p TYPE lexical ANCHOR $v
{$v aux $m . $v $r $s . $s poss $p . $m $r $w}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		edges int
		want  string
	}{
		// After aux and $v $r $s: 10/16² for $m $r $w beats 2/16 for
		// $s poss $p.
		{10, "[0 1 3 2]"},
		// After aux: 40/16 for the connected $v $r $s beats the
		// disconnected $s poss $p, whose raw count is 2.
		{40, "[0 1 2 3]"},
	} {
		f := newFrame(graph(c.edges), nil, 1)
		if got := fmt.Sprint(ps[0].m.plan(f)); got != c.want {
			t.Errorf("%d edges: plan %s, want %s", c.edges, got, c.want)
		}
	}
}
