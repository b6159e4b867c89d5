package crowd

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nl2cm/internal/oassisql"
	"nl2cm/internal/ontology"
	"nl2cm/internal/rdf"
)

func demoEngine() *Engine {
	c := NewCrowd(100, 7)
	c.Truth = DemoTruth()
	return NewEngine(ontology.NewDemoOntology(), c)
}

func TestFactKeyCanonical(t *testing.T) {
	a := []rdf.Triple{
		rdf.T(rdf.NewVar("_anon1"), rdf.NewIRI("visit"), ontology.E("Delaware_Park")),
		rdf.T(rdf.NewVar("_anon2"), rdf.NewIRI("in"), ontology.E("Fall")),
	}
	b := []rdf.Triple{
		rdf.T(rdf.NewVar("_anon9"), rdf.NewIRI("in"), ontology.E("Fall")),
		rdf.T(rdf.NewVar("_anon3"), rdf.NewIRI("visit"), ontology.E("Delaware_Park")),
	}
	if FactKey(a) != FactKey(b) {
		t.Errorf("keys differ:\n%s\n%s", FactKey(a), FactKey(b))
	}
	if FactKey(a) != "[] in Fall & [] visit Delaware_Park" {
		t.Errorf("key = %q", FactKey(a))
	}
}

func TestCrowdDeterministicPerSeed(t *testing.T) {
	c1 := NewCrowd(50, 3)
	c2 := NewCrowd(50, 3)
	c3 := NewCrowd(50, 4)
	key := "some pattern"
	if c1.Support(key, 0) != c2.Support(key, 0) {
		t.Error("same seed, different support")
	}
	if c1.Support(key, 0) == c3.Support(key, 0) {
		t.Error("different seeds agree exactly (suspicious)")
	}
}

func TestCrowdAnswersBounded(t *testing.T) {
	f := func(seed int64, member uint8, key string) bool {
		c := NewCrowd(256, seed)
		v := c.MemberAnswer(int(member), key)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrowdTruthRespected(t *testing.T) {
	c := NewCrowd(500, 11)
	c.Truth = map[string]float64{"popular": 0.9, "niche": 0.05}
	if s := c.Support("popular", 0); math.Abs(s-0.9) > 0.08 {
		t.Errorf("popular support = %g, want ~0.9", s)
	}
	if s := c.Support("niche", 0); s > 0.2 {
		t.Errorf("niche support = %g, want small", s)
	}
}

func TestCrowdSampling(t *testing.T) {
	c := NewCrowd(100, 5)
	full := c.Support("k", 0)
	sampled := c.Support("k", 10)
	if math.Abs(full-sampled) > 0.3 {
		t.Errorf("sample diverges wildly: full=%g sample=%g", full, sampled)
	}
	if c.Support("k", 200) != full {
		t.Error("oversized sample != full population")
	}
	empty := NewCrowd(0, 1)
	if empty.Support("k", 0) != 0 {
		t.Error("empty crowd support != 0")
	}
}

func TestMemberAnswerOutOfRange(t *testing.T) {
	c := NewCrowd(10, 1)
	if c.MemberAnswer(-1, "k") != 0 || c.MemberAnswer(10, "k") != 0 {
		t.Error("out-of-range member answered")
	}
}

// The running example end to end: Figure 1's query against the demo
// crowd must return Delaware Park and Buffalo Zoo (paper §2.1: "the
// Delaware Park and Buffalo Zoo may be returned").
func TestExecuteRunningExample(t *testing.T) {
	q := oassisql.MustParse(`SELECT VARIABLES
WHERE
{$x instanceOf Place.
$x near Forest_Hotel,_Buffalo,_NY}
SATISFYING
{$x hasLabel "interesting"}
ORDER BY DESC(SUPPORT)
LIMIT 5
AND
{[] visit $x.
[] in Fall}
WITH SUPPORT THRESHOLD = 0.1`)
	// The parsed query uses bare-IRI terms; rebase them into the
	// ontology namespace.
	rebase(q)
	eng := demoEngine()
	res, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.WhereBindings != 5 {
		t.Errorf("WHERE bindings = %d, want 5", res.WhereBindings)
	}
	got := map[string]bool{}
	for _, b := range res.Bindings {
		got[b["x"].Local()] = true
	}
	if !got["Delaware_Park"] || !got["Buffalo_Zoo"] {
		t.Errorf("final bindings = %v, want Delaware_Park and Buffalo_Zoo", got)
	}
	// Anchor Bar fails the 0.1 fall-visit threshold.
	if got["Anchor_Bar"] {
		t.Error("Anchor_Bar passed the visit threshold")
	}
	if res.TasksIssued == 0 {
		t.Error("no crowd tasks issued")
	}
}

// rebase maps bare-IRI terms of a hand-written query into the ontology
// namespace (ontology entities print as local names).
func rebase(q *oassisql.Query) {
	fix := func(t rdf.Term) rdf.Term {
		if t.IsIRI() && !strings.Contains(t.Value(), "/") {
			switch t.Value() {
			case "instanceOf", "near", "locatedIn", "label":
				return rdf.NewIRI(ontology.NS + t.Value())
			case "hasLabel", "visit", "in", "eat", "cook", "buy", "store", "at":
				return t // crowd predicates stay bare
			default:
				return ontology.E(t.Value())
			}
		}
		return t
	}
	for i, tr := range q.Where.Triples {
		q.Where.Triples[i] = rdf.T(fix(tr.S), fix(tr.P), fix(tr.O))
	}
	for s := range q.Satisfying {
		for i, tr := range q.Satisfying[s].Pattern.Triples {
			q.Satisfying[s].Pattern.Triples[i] = rdf.T(fix(tr.S), fix(tr.P), fix(tr.O))
		}
	}
}

func TestExecuteTopKAscending(t *testing.T) {
	q := oassisql.MustParse(`SELECT VARIABLES
WHERE
{$x instanceOf Place.
$x near Forest_Hotel,_Buffalo,_NY}
SATISFYING
{$x hasLabel "interesting"}
ORDER BY ASC(SUPPORT)
LIMIT 2`)
	rebase(q)
	eng := demoEngine()
	res, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	sig := res.Subclauses[0].Significant()
	if len(sig) != 2 {
		t.Fatalf("significant = %d, want 2", len(sig))
	}
	// Ascending selects the least interesting: Anchor Bar must be in.
	found := false
	for _, task := range sig {
		if strings.Contains(task.Question, "Anchor Bar") {
			found = true
		}
	}
	if !found {
		t.Errorf("bottom-k missing Anchor Bar: %+v", sig)
	}
}

func TestExecuteOpenVariables(t *testing.T) {
	// Pure-individual query: "Where do you visit in Buffalo?" — $x is
	// unbound by WHERE and instantiated over ontology entities.
	q := oassisql.MustParse(`SELECT VARIABLES
WHERE
{}
SATISFYING
{[] visit $x.
[] in Fall}
WITH SUPPORT THRESHOLD = 0.3`)
	rebase(q)
	eng := demoEngine()
	res, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// The empty WHERE is one empty row, which the subclause expands.
	if res.WhereBindings != 1 {
		t.Errorf("WHERE bindings = %d, want the one empty row", res.WhereBindings)
	}
	if len(res.Subclauses[0].Tasks) == 0 {
		t.Fatal("no tasks for open variable")
	}
	// Delaware Park (0.42 in the demo truth) passes a 0.3 threshold.
	pass := map[string]bool{}
	for _, b := range res.Bindings {
		pass[b["x"].Local()] = true
	}
	if !pass["Delaware_Park"] {
		t.Errorf("bindings = %v, want Delaware_Park", pass)
	}
}

// Rows that do not exist get no crowd tasks: a WHERE that matches
// nothing, or a subclause that keeps nothing, leaves nothing for the
// crowd to ground, so open variables are not filled with arbitrary
// entities that violate WHERE.
func TestExecuteNoRowsNoTasks(t *testing.T) {
	cases := []struct {
		name  string
		query string
		tasks []int // per subclause
		where int
	}{
		{"where-matches-nothing", `SELECT VARIABLES
WHERE
{$x instanceOf Show.
$x locatedIn Bellagio}
SATISFYING
{$x hasLabel "overrated"}
WITH SUPPORT THRESHOLD = 0.1`, []int{0}, 0},
		{"first-subclause-keeps-nothing", `SELECT VARIABLES
WHERE
{$x instanceOf Place.
$x near Forest_Hotel,_Buffalo,_NY}
SATISFYING
{$x hasLabel "interesting"}
WITH SUPPORT THRESHOLD = 1.0
AND
{[] visit $x.
[] in Fall}
WITH SUPPORT THRESHOLD = 0.1`, []int{5, 0}, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := oassisql.MustParse(c.query)
			rebase(q)
			res, err := demoEngine().Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if res.WhereBindings != c.where {
				t.Errorf("WHERE bindings = %d, want %d", res.WhereBindings, c.where)
			}
			for i, want := range c.tasks {
				if got := len(res.Subclauses[i].Tasks); got != want {
					t.Errorf("subclause %d issued %d tasks, want %d", i+1, got, want)
				}
			}
			if len(res.Bindings) != 0 {
				t.Errorf("bindings = %v, want none", res.Bindings)
			}
		})
	}
}

func TestExecuteProjection(t *testing.T) {
	q := oassisql.MustParse(`SELECT $x
WHERE
{$x instanceOf Hotel.
$x hasFeature $y}
SATISFYING
{$y hasLabel "good"}
ORDER BY DESC(SUPPORT)
LIMIT 1`)
	rebase(q)
	// hasFeature must resolve into the namespace
	for i, tr := range q.Where.Triples {
		if tr.P.Value() == "hasFeature" {
			q.Where.Triples[i] = rdf.T(tr.S, ontology.PredHasFeature, tr.O)
		}
	}
	eng := demoEngine()
	res, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 1 {
		t.Fatalf("bindings = %v, want 1 (top hotel)", res.Bindings)
	}
	b := res.Bindings[0]
	if _, ok := b["y"]; ok {
		t.Error("projected-out variable $y present in result")
	}
	if b["x"].Local() != "Stratosphere" {
		t.Errorf("best thrill-ride hotel = %v, want Stratosphere", b["x"])
	}
}

func TestExecutePureGeneralQuery(t *testing.T) {
	q := &oassisql.Query{
		Select: oassisql.SelectClause{All: true},
		Where: oassisql.Pattern{Triples: []rdf.Triple{
			rdf.T(rdf.NewVar("x"), ontology.PredInstanceOf, ontology.E("Park")),
		}},
	}
	eng := demoEngine()
	res, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) == 0 || res.TasksIssued != 0 {
		t.Errorf("pure general: bindings=%d tasks=%d", len(res.Bindings), res.TasksIssued)
	}
}

func TestExecuteNilQuery(t *testing.T) {
	if _, err := demoEngine().Execute(context.Background(), nil); err == nil {
		t.Error("nil query accepted")
	}
}

func TestVerbalization(t *testing.T) {
	eng := demoEngine()
	cases := []struct {
		triples []rdf.Triple
		want    string
	}{
		{
			[]rdf.Triple{rdf.T(ontology.E("Delaware_Park"), rdf.NewIRI("hasLabel"), rdf.NewLiteral("interesting"))},
			"Do you agree that Delaware Park is interesting?",
		},
		{
			[]rdf.Triple{
				rdf.T(rdf.NewVar("_anon1"), rdf.NewIRI("visit"), ontology.E("Delaware_Park")),
				rdf.T(rdf.NewVar("_anon2"), rdf.NewIRI("in"), ontology.E("Fall")),
			},
			"How often do you visit Delaware Park in fall?",
		},
	}
	for _, c := range cases {
		if got := eng.Verbalize(c.triples); got != c.want {
			t.Errorf("Verbalize = %q, want %q", got, c.want)
		}
	}
}

// Support decisions are stable: running the same query twice gives
// identical results (no time- or map-order dependence).
func TestExecuteDeterministic(t *testing.T) {
	q := oassisql.MustParse(`SELECT VARIABLES
WHERE
{$x instanceOf Place.
$x near Forest_Hotel,_Buffalo,_NY}
SATISFYING
{$x hasLabel "interesting"}
ORDER BY DESC(SUPPORT)
LIMIT 3`)
	rebase(q)
	eng := demoEngine()
	r1, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Bindings) != len(r2.Bindings) {
		t.Fatalf("non-deterministic result sizes: %d vs %d", len(r1.Bindings), len(r2.Bindings))
	}
	for i := range r1.Subclauses[0].Tasks {
		a, b := r1.Subclauses[0].Tasks[i], r2.Subclauses[0].Tasks[i]
		if a.Key != b.Key || a.Support != b.Support {
			t.Fatalf("task %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// Sampling efficiency: asking more members shrinks the support
// estimation error — the trade-off the OASSIS engine manages when it
// decides how many crowd members to ask per task.
func TestSamplingErrorDecreases(t *testing.T) {
	c := NewCrowd(2000, 21)
	keys := make([]string, 60)
	for i := range keys {
		keys[i] = fmt.Sprintf("pattern-%d", i)
	}
	meanAbsErr := func(sample int) float64 {
		sum := 0.0
		for _, k := range keys {
			full := c.Support(k, 0)
			est := c.Support(k, sample)
			sum += math.Abs(full - est)
		}
		return sum / float64(len(keys))
	}
	small := meanAbsErr(5)
	large := meanAbsErr(500)
	if large >= small {
		t.Errorf("error did not shrink with sample size: n=5 err=%.4f, n=500 err=%.4f", small, large)
	}
	if large > 0.02 {
		t.Errorf("large-sample error %.4f too big", large)
	}
}

func TestEngineSampleSizeChangesSupport(t *testing.T) {
	eng := demoEngine()
	eng.SampleSize = 3
	q := oassisql.MustParse(`SELECT VARIABLES
WHERE
{$x instanceOf Place.
$x near Forest_Hotel,_Buffalo,_NY}
SATISFYING
{$x hasLabel "interesting"}
ORDER BY DESC(SUPPORT)
LIMIT 5`)
	rebase(q)
	res, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subclauses[0].Tasks) == 0 {
		t.Fatal("no tasks")
	}
	// Results remain deterministic under sampling.
	res2, err := eng.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Subclauses[0].Tasks[0].Support != res2.Subclauses[0].Tasks[0].Support {
		t.Error("sampled support not deterministic")
	}
}

// Worker quality: spam workers answer uniformly at random, which drags
// a strongly supported pattern's support towards 0.5.
func TestSpamWorkersBiasSupport(t *testing.T) {
	clean := NewCrowd(400, 9)
	clean.Truth = map[string]float64{"k": 0.9}
	spammy := NewCrowd(400, 9)
	spammy.Truth = map[string]float64{"k": 0.9}
	spammy.SpamFraction = 0.3

	truth := 0.9
	errClean := math.Abs(clean.Support("k", 0) - truth)
	errSpam := math.Abs(spammy.Support("k", 0) - truth)
	if errSpam <= errClean {
		t.Errorf("spam did not hurt: clean=%.3f spam=%.3f", errClean, errSpam)
	}
}

func TestSpammerMembershipDeterministic(t *testing.T) {
	c := NewCrowd(100, 3)
	c.SpamFraction = 0.25
	n := 0
	for i := 0; i < c.Size; i++ {
		if c.IsSpammer(i) != c.IsSpammer(i) {
			t.Fatal("spammer membership flapped")
		}
		if c.IsSpammer(i) {
			n++
		}
	}
	if n < 10 || n > 45 {
		t.Errorf("spammer count = %d of 100 with fraction 0.25", n)
	}
	clean := NewCrowd(100, 3)
	if clean.IsSpammer(0) {
		t.Error("zero fraction produced a spammer")
	}
}

func TestVerbalizeOpinionWithComplement(t *testing.T) {
	eng := demoEngine()
	got := eng.Verbalize([]rdf.Triple{
		rdf.T(ontology.E("Chocolate_Milk"), rdf.NewIRI("hasLabel"), rdf.NewLiteral("good")),
		rdf.T(ontology.E("Chocolate_Milk"), rdf.NewIRI("for"), ontology.E("Kids")),
	})
	want := "Do you agree that chocolate milk is good for kids?"
	if got != want {
		t.Errorf("Verbalize = %q, want %q", got, want)
	}
}

func TestVerbalizeVariableObject(t *testing.T) {
	eng := demoEngine()
	got := eng.Verbalize([]rdf.Triple{
		rdf.T(rdf.NewVar("_anon1"), rdf.NewIRI("eat"), rdf.NewVar("y")),
	})
	if !strings.Contains(got, "something") {
		t.Errorf("Verbalize = %q", got)
	}
}

func TestSubclauseResultSignificant(t *testing.T) {
	r := SubclauseResult{Tasks: []Task{
		{Key: "a", Significant: true},
		{Key: "b"},
		{Key: "c", Significant: true},
	}}
	sig := r.Significant()
	if len(sig) != 2 || sig[0].Key != "a" || sig[1].Key != "c" {
		t.Errorf("Significant = %v", sig)
	}
}
