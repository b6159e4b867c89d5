package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"nl2cm/internal/corpus"
	"nl2cm/internal/emit"
	"nl2cm/internal/interact"
	"nl2cm/internal/oassisql"
	"nl2cm/internal/ontology"
)

const runningExample = "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?"

// figure1 is the paper's Figure 1 target text.
const figure1 = `SELECT VARIABLES
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
WITH SUPPORT THRESHOLD = 0.1`

func newTranslator() *Translator { return New(ontology.NewDemoOntology()) }

func TestTranslateFigure1Exact(t *testing.T) {
	res, err := newTranslator().Translate(context.Background(), runningExample, Options{})
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if got := res.Query.String(); got != figure1 {
		t.Errorf("translation does not reproduce Figure 1:\n--- got ---\n%s\n--- want ---\n%s", got, figure1)
	}
}

// TestTranslateBackends threads extra backend dialects through Options
// and checks the emitter stage fills Result.Renderings, that the plan is
// exposed, and that Render reuses/produces renderings on demand.
func TestTranslateBackends(t *testing.T) {
	res, err := newTranslator().Translate(context.Background(), runningExample,
		Options{Backends: []string{"sql", "mongodb"}, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("Result.Plan not set")
	}
	if len(res.Plan.Where) == 0 || len(res.Plan.Crowd) == 0 {
		t.Errorf("plan missing parts: %d where, %d crowd", len(res.Plan.Where), len(res.Plan.Crowd))
	}
	for _, name := range []string{"sql", "mongodb"} {
		rend := res.Renderings[name]
		if rend == nil {
			t.Fatalf("no rendering for %q", name)
		}
		if rend.Query == "" || len(rend.Clauses) == 0 {
			t.Errorf("%s rendering empty or without clause provenance: %+v", name, rend)
		}
	}
	// The trace gained the emitter stage.
	last := res.Trace[len(res.Trace)-1]
	if last.Module != StageEmitter || !strings.Contains(last.Output, "-- sql --") {
		t.Errorf("last trace stage = %s:\n%s", last.Module, last.Output)
	}
	// On-demand rendering for a backend not requested up front.
	rend, err := res.Render("cypher")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rend.Query, "MATCH") {
		t.Errorf("cypher rendering = %q", rend.Query)
	}
	// A cached rendering is returned as-is.
	if again, err := res.Render("sql"); err != nil || again != res.Renderings["sql"] {
		t.Errorf("Render did not reuse the cached sql rendering (err=%v)", err)
	}
}

// TestTranslateUnknownBackend attributes an unknown backend name to the
// emitter stage.
func TestTranslateUnknownBackend(t *testing.T) {
	_, err := newTranslator().Translate(context.Background(), runningExample,
		Options{Backends: []string{"oracle"}})
	if err == nil || !strings.Contains(err.Error(), StageEmitter) {
		t.Fatalf("err = %v, want %s failure", err, StageEmitter)
	}
}

func TestTranslateUnsupported(t *testing.T) {
	res, err := newTranslator().Translate(context.Background(), "How should I store coffee?", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.Supported {
		t.Fatal("descriptive question accepted")
	}
	if res.Query != nil {
		t.Error("unsupported question produced a query")
	}
	if len(res.Verdict.Tips) == 0 {
		t.Error("no rephrasing tips")
	}
}

func TestTranslatePureGeneral(t *testing.T) {
	res, err := newTranslator().Translate(context.Background(), "Which parks are in Buffalo?", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.PureGeneral() {
		t.Errorf("PureGeneral() = false; query:\n%s", res.Query)
	}
	if len(res.Query.Where.Triples) == 0 {
		t.Error("pure general query has empty WHERE")
	}
}

func TestTranslateTraceStages(t *testing.T) {
	res, err := newTranslator().Translate(context.Background(), runningExample, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	for _, s := range res.Trace {
		stages = append(stages, s.Module)
	}
	// The admin monitor shows the pipeline of Figure 2 in order.
	want := []string{"Verification", "NL Parser", "IX Detector",
		"General Query Generator", "Individual Triple Creation", "Query Composition"}
	if len(stages) != len(want) {
		t.Fatalf("trace stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("trace stages = %v, want %v", stages, want)
		}
	}
	for _, s := range res.Trace {
		if s.Output == "" {
			t.Errorf("stage %s has empty output", s.Module)
		}
	}
}

func TestTranslateNoTraceByDefault(t *testing.T) {
	res, err := newTranslator().Translate(context.Background(), runningExample, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 0 {
		t.Errorf("trace collected without Trace option: %d stages", len(res.Trace))
	}
}

// TestUntracedTranslationSkipsTraceText checks that the stages build
// their trace text only for a traced translation: over the supported
// corpus, an untraced translation allocates at least 35 fewer objects
// per question than a traced one.
func TestUntracedTranslationSkipsTraceText(t *testing.T) {
	tr := newTranslator()
	var questions []string
	for _, q := range corpus.All() {
		if q.Supported {
			questions = append(questions, q.Text)
		}
	}
	ctx := context.Background()
	perQuestion := func(opt Options) float64 {
		return testing.AllocsPerRun(2, func() {
			for _, q := range questions {
				if _, err := tr.Translate(ctx, q, opt); err != nil {
					t.Fatalf("Translate(%q): %v", q, err)
				}
			}
		}) / float64(len(questions))
	}
	untraced := perQuestion(Options{})
	traced := perQuestion(Options{Trace: true})
	t.Logf("allocations per question: untraced %.1f, traced %.1f", untraced, traced)
	if traced-untraced < 35 {
		t.Errorf("allocations per question: untraced %.1f, traced %.1f; want the untraced run at least 35 lower",
			untraced, traced)
	}
}

func TestTranslateIXVerificationRejectsSpan(t *testing.T) {
	// The user rejects the lexical IX ("interesting" is not to be asked
	// to the crowd); only the habit subclause remains.
	opt := Options{
		Interactor: &interact.Scripted{IXAnswers: [][]bool{{false, true}}},
		Policy:     interact.Policy{Ask: map[interact.Point]bool{interact.PointIXVerification: true}},
	}
	res, err := newTranslator().Translate(context.Background(), runningExample, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IXs) != 1 || len(res.RejectedIXs) != 1 {
		t.Fatalf("accepted %d rejected %d, want 1/1", len(res.IXs), len(res.RejectedIXs))
	}
	if len(res.Query.Satisfying) != 1 {
		t.Fatalf("subclauses = %d, want 1:\n%s", len(res.Query.Satisfying), res.Query)
	}
	if strings.Contains(res.Query.String(), "interesting") {
		t.Errorf("rejected IX still in query:\n%s", res.Query)
	}
}

func TestTranslateOnlyUncertainAsked(t *testing.T) {
	// With OnlyWhenUncertain, only the lexical (uncertain) IX is shown;
	// a single-flag answer must match.
	opt := Options{
		Interactor: &interact.Scripted{IXAnswers: [][]bool{{true}}},
		Policy: interact.Policy{
			Ask:               map[interact.Point]bool{interact.PointIXVerification: true},
			OnlyWhenUncertain: true,
		},
	}
	res, err := newTranslator().Translate(context.Background(), runningExample, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IXs) != 2 {
		t.Fatalf("accepted %d IXs, want 2", len(res.IXs))
	}
}

func TestTranslateFullInteraction(t *testing.T) {
	// A volunteer-user script covering all four interaction points
	// (Figures 3-6): accept both IXs, set k=3 and threshold 0.2.
	opt := Options{
		Interactor: &interact.Scripted{
			IXAnswers:        [][]bool{{true, true}},
			TopKAnswers:      []int{3},
			ThresholdAnswers: []float64{0.2},
		},
		Policy: interact.Interactive(),
		Trace:  true,
	}
	res, err := newTranslator().Translate(context.Background(), runningExample, opt)
	if err != nil {
		t.Fatal(err)
	}
	q := res.Query.String()
	if !strings.Contains(q, "LIMIT 3") {
		t.Errorf("user k not applied:\n%s", q)
	}
	if !strings.Contains(q, "THRESHOLD = 0.2") {
		t.Errorf("user threshold not applied:\n%s", q)
	}
	if len(res.Interactions) == 0 {
		t.Error("no interaction transcript recorded")
	}
}

func TestTranslateDialogueTranscript(t *testing.T) {
	opt := Options{
		Interactor: &interact.Scripted{},
		Policy:     interact.Interactive(),
		Trace:      true,
	}
	res, err := newTranslator().Translate(context.Background(), runningExample, opt)
	if err != nil {
		t.Fatal(err)
	}
	points := map[interact.Point]bool{}
	for _, ex := range res.Interactions {
		points[ex.Point] = true
	}
	for _, want := range []interact.Point{
		interact.PointIXVerification, interact.PointSignificance, interact.PointProjection,
	} {
		if !points[want] {
			t.Errorf("no transcript entry for %v", want)
		}
	}
}

func TestTranslateFeedbackPersistsAcrossQuestions(t *testing.T) {
	tr := newTranslator()
	// First question: the user picks Buffalo, IL explicitly.
	opt := Options{
		Interactor: &interact.Scripted{DisambiguationAnswers: []int{1}},
		Policy:     interact.Policy{Ask: map[interact.Point]bool{interact.PointDisambiguation: true}},
	}
	res1, err := tr.Translate(context.Background(), "Where do you visit in Buffalo?", opt)
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for _, tr := range res1.Query.Satisfying[0].Pattern.Triples {
		if strings.HasPrefix(tr.O.Local(), "Buffalo,_") {
			first = tr.O.Local()
		}
	}
	if first == "Buffalo,_NY" || first == "" {
		t.Fatalf("scripted answer ignored: %q", first)
	}
	// The feedback store now knows the preference.
	if tr.Generator.Feedback.Boost("Buffalo", ontology.E(first)) == 0 {
		t.Error("feedback not recorded through the pipeline")
	}
}

func TestTranslateErrorsPropagate(t *testing.T) {
	opt := Options{
		Interactor: &interact.Scripted{IXAnswers: [][]bool{{true}}}, // wrong shape: 2 spans
		Policy:     interact.Policy{Ask: map[interact.Point]bool{interact.PointIXVerification: true}},
	}
	if _, err := newTranslator().Translate(context.Background(), runningExample, opt); err == nil {
		t.Error("shape-mismatched script accepted")
	}
}

// answerFunc is an Interactor built from a function, for faulty
// custom Interactors.
type answerFunc func(q *interact.Question) interact.Answer

func (f answerFunc) Ask(_ context.Context, q *interact.Question) (interact.Answer, error) {
	return f(q), nil
}

// TestMalformedAnswers gives a custom Interactor one malformed answer
// per kind of question. Each must fail the translation with a
// *StageError wrapping interact.ErrBadAnswer, attributed to the stage
// that asked — with the admin trace (which records the dialogue) on or
// off, and never with a panic.
func TestMalformedAnswers(t *testing.T) {
	const buffalo = "Where do you visit in Buffalo?"
	number := func(n float64) *float64 { return &n }
	choice := func(c int) *int { return &c }
	for _, tc := range []struct {
		name, question string
		point          interact.Point
		bad            interact.Kind // the question kind answered badly
		answer         interact.Answer
		stage          string
	}{
		{"short-ix-flags", runningExample, interact.PointIXVerification, interact.KindIXVerify,
			interact.Answer{Accept: []bool{true}}, StageIXVerify},
		{"choice-out-of-range", buffalo, interact.PointDisambiguation, interact.KindChoice,
			interact.Answer{Choice: choice(7)}, StageGenerator}, // of five candidates
		{"nan-number", runningExample, interact.PointSignificance, interact.KindNumber,
			interact.Answer{Number: number(math.NaN())}, StageComposer},
		{"infinite-number", runningExample, interact.PointSignificance, interact.KindNumber,
			interact.Answer{Number: number(math.Inf(1))}, StageComposer},
		{"missing-number", runningExample, interact.PointSignificance, interact.KindNumber,
			interact.Answer{}, StageComposer},
		{"short-projection-flags", runningExample, interact.PointProjection, interact.KindProjection,
			interact.Answer{Accept: []bool{}}, StageComposer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := answerFunc(func(q *interact.Question) interact.Answer {
				if q.Kind == tc.bad {
					return tc.answer
				}
				return q.DefaultAnswer()
			})
			for _, trace := range []bool{false, true} {
				_, err := newTranslator().Translate(context.Background(), tc.question, Options{
					Interactor: in,
					Policy:     interact.Policy{Ask: map[interact.Point]bool{tc.point: true}},
					Trace:      trace,
				})
				var se *StageError
				if !errors.As(err, &se) {
					t.Fatalf("trace=%v: err = %T (%v), want *StageError", trace, err, err)
				}
				if se.Stage != tc.stage || !errors.Is(err, interact.ErrBadAnswer) {
					t.Errorf("trace=%v: err = %v, want ErrBadAnswer in stage %q", trace, err, tc.stage)
				}
			}
		})
	}
}

func TestTranslateDemoQuestions(t *testing.T) {
	// The paper's named demo questions all translate non-interactively.
	tr := newTranslator()
	for _, q := range []string{
		"Which hotel in Vegas has the best thrill ride?",
		"What type of digital camera should I buy?",
		"Is chocolate milk good for kids?",
	} {
		res, err := tr.Translate(context.Background(), q, Options{})
		if err != nil {
			t.Errorf("Translate(%q): %v", q, err)
			continue
		}
		if !res.Verdict.Supported {
			t.Errorf("Translate(%q) rejected: %s", q, res.Verdict.Reason)
			continue
		}
		if len(res.Query.Satisfying) == 0 {
			t.Errorf("Translate(%q) produced no individual parts:\n%s", q, res.Query)
		}
	}
}

// The paper's §4.1 projection variation: "What are the most interesting
// places we should visit with a tour guide?" — the user can drop the
// guide variable from the output.
func TestTranslateTourGuideProjection(t *testing.T) {
	question := "What are the most interesting places we should visit with a tour guide?"
	// First, default: both variables returned (SELECT VARIABLES).
	res, err := newTranslator().Translate(context.Background(), question, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Query.Select.All {
		t.Fatalf("default SELECT = %+v", res.Query.Select)
	}
	vars := res.Query.Vars()
	if len(vars) != 2 {
		t.Fatalf("query vars = %v, want places + guide", vars)
	}
	// Now the user keeps only the first variable (the places).
	opt := Options{
		Interactor: &interact.Scripted{ProjectionAnswers: [][]bool{{true, false}}},
		Policy:     interact.Policy{Ask: map[interact.Point]bool{interact.PointProjection: true}},
	}
	res2, err := newTranslator().Translate(context.Background(), question, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Query.Select.All || len(res2.Query.Select.Vars) != 1 {
		t.Fatalf("projected SELECT = %+v", res2.Query.Select)
	}
	if res2.Query.Select.Vars[0] != "x" {
		t.Errorf("kept variable = %v, want x", res2.Query.Select.Vars)
	}
	if !strings.HasPrefix(res2.Query.String(), "SELECT $x\n") {
		t.Errorf("query:\n%s", res2.Query)
	}
}

// keepOnly answers the projection dialogue by keeping only the variable
// that pick chooses among n, and every other question with its default.
func keepOnly(pick func(n int) int) answerFunc {
	return func(q *interact.Question) interact.Answer {
		a := q.DefaultAnswer()
		if q.Point == interact.PointProjection {
			k := pick(len(a.Accept))
			for i := range a.Accept {
				a.Accept[i] = i == k
			}
		}
		return a
	}
}

// TestProjectionDialogueRenderings renders every supported corpus
// question in every dialect after the projection dialogue kept only the
// first variable, then only the last: every rendering succeeds, SQL and
// Cypher project only kept variables (noting each kept one they cannot
// select), and the OASSIS-QL text parses back.
func TestProjectionDialogueRenderings(t *testing.T) {
	tr := newTranslator()
	// projected returns the output names of a rendering's projection
	// line: the first line with the prefix, items split at ", ", each
	// item's alias after " AS ".
	projected := func(query, prefix string) []string {
		for _, line := range strings.Split(query, "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				var names []string
				for _, item := range strings.Split(rest, ", ") {
					if _, alias, ok := strings.Cut(item, " AS "); ok {
						item = alias
					}
					names = append(names, item)
				}
				return names
			}
		}
		return nil
	}
	narrowed, staged := 0, 0
	for _, pick := range []func(int) int{
		func(int) int { return 0 },
		func(n int) int { return n - 1 },
	} {
		opt := Options{
			Interactor: keepOnly(pick),
			Policy:     interact.Policy{Ask: map[interact.Point]bool{interact.PointProjection: true}},
			Backends:   emit.Names(),
		}
		for _, q := range corpus.All() {
			if !q.Supported {
				continue
			}
			res, err := tr.Translate(context.Background(), q.Text, opt)
			if err != nil {
				t.Errorf("%s: %v", q.ID, err)
				continue
			}
			for _, name := range opt.Backends {
				if r := res.Renderings[name]; r == nil || r.Query == "" {
					t.Errorf("%s: no %s rendering", q.ID, name)
				}
			}
			text := res.Renderings[emit.DefaultBackend].Query
			if _, err := oassisql.Parse(text); err != nil {
				t.Errorf("%s: OASSIS-QL rendering does not parse: %v\n%s", q.ID, err, text)
			}
			if res.Plan.Select.All {
				continue
			}
			narrowed++
			if strings.Contains(res.Renderings["cypher"].Query, "\nWITH ") {
				staged++
			}
			kept := res.Plan.Select.Vars
			for _, check := range []struct{ backend, prefix string }{{"sql", "SELECT "}, {"cypher", "RETURN "}} {
				r := res.Renderings[check.backend]
				names := projected(r.Query, check.prefix)
				for _, n := range names {
					if n != "1" && !slices.Contains(kept, n) {
						t.Errorf("%s: %s projects %s, kept only %v:\n%s", q.ID, check.backend, n, kept, r.Query)
					}
				}
				for _, v := range kept {
					if !slices.Contains(names, v) && !slices.ContainsFunc(r.Notes, func(n string) bool {
						return strings.Contains(n, "$"+v+" ")
					}) {
						t.Errorf("%s: %s neither projects nor notes kept $%s:\n%s\nnotes: %v", q.ID, check.backend, v, r.Query, r.Notes)
					}
				}
			}
		}
	}
	t.Logf("%d renderings narrowed, %d reached the Cypher WITH staging", narrowed, staged)
	if narrowed == 0 || staged == 0 {
		t.Errorf("%d renderings narrowed and %d reached the Cypher WITH staging; want at least one of each", narrowed, staged)
	}
}

// Pipeline fuzz: random word salads from the question vocabulary must
// never panic, and every produced query must validate and re-parse.
func TestTranslateFuzzRobustness(t *testing.T) {
	vocab := []string{
		"what", "which", "where", "should", "we", "you", "the", "a", "an",
		"most", "interesting", "good", "best", "places", "hotel", "hotels",
		"visit", "eat", "buy", "in", "near", "with", "and", "not", "to",
		"Buffalo", "Vegas", "fall", "kids", "people", "that", "of", "type",
		"camera", "for", "is", "are", "do", "how", "why", "?", ",", ".",
	}
	tr := newTranslator()
	rng := uint64(12345)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	for trial := 0; trial < 400; trial++ {
		length := 1 + next(14)
		words := make([]string, length)
		for i := range words {
			words[i] = vocab[next(len(vocab))]
		}
		q := strings.Join(words, " ")
		res, err := tr.Translate(context.Background(), q, Options{})
		if err != nil {
			// Errors are acceptable; panics and invalid output are not.
			continue
		}
		if !res.Verdict.Supported || res.Query == nil {
			continue
		}
		if err := res.Query.Validate(); err != nil {
			t.Fatalf("invalid query for %q: %v\n%s", q, err, res.Query)
		}
		if _, err := oassisql.Parse(res.Query.String()); err != nil {
			t.Fatalf("unparseable query for %q: %v\n%s", q, err, res.Query)
		}
	}
}
