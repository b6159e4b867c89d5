package interact

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

var spans = []IXSpan{
	{Text: "most interesting places", Type: "lexical", Uncertain: true},
	{Text: "we should visit in the fall", Type: "participant+syntactic"},
}

var choices = []Choice{
	{Label: "Buffalo", Description: "city in New York, USA"},
	{Label: "Buffalo", Description: "village in Illinois, USA"},
}

var vars = []VarChoice{{Var: "x", Phrase: "places"}, {Var: "y", Phrase: "guide"}}

var bg = context.Background()

func TestPolicyDefaults(t *testing.T) {
	auto := Automatic()
	for _, p := range []Point{PointIXVerification, PointDisambiguation, PointSignificance, PointProjection} {
		if auto.Asks(p) {
			t.Errorf("Automatic policy asks %v", p)
		}
	}
	inter := Interactive()
	for _, p := range []Point{PointIXVerification, PointDisambiguation, PointSignificance, PointProjection} {
		if !inter.Asks(p) {
			t.Errorf("Interactive policy does not ask %v", p)
		}
	}
}

func TestPointString(t *testing.T) {
	names := map[Point]string{
		PointIXVerification: "ix-verification",
		PointDisambiguation: "disambiguation",
		PointSignificance:   "significance",
		PointProjection:     "projection",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

// TestAutoDefaults runs all five asking functions through Auto (and
// through a nil Interactor, which means Auto).
func TestAutoDefaults(t *testing.T) {
	for _, in := range []Interactor{Auto{}, nil} {
		ans, err := VerifyIXs(bg, in, "q", spans)
		if err != nil || len(ans) != 2 || !ans[0] || !ans[1] {
			t.Errorf("VerifyIXs = %v, %v", ans, err)
		}
		i, err := Disambiguate(bg, in, "Buffalo", choices)
		if err != nil || i != 0 {
			t.Errorf("Disambiguate = %d, %v", i, err)
		}
		if _, err := Disambiguate(bg, in, "x", nil); !errors.Is(err, ErrBadAnswer) {
			t.Errorf("Disambiguate with no options err = %v, want ErrBadAnswer", err)
		}
		if k, err := SelectTopK(bg, in, "d", 5); err != nil || k != 5 {
			t.Errorf("SelectTopK = %d, %v", k, err)
		}
		if th, err := SelectThreshold(bg, in, "d", 0.1); err != nil || th != 0.1 {
			t.Errorf("SelectThreshold = %g, %v", th, err)
		}
		keep, err := SelectProjection(bg, in, vars)
		if err != nil || len(keep) != 2 || !keep[0] || !keep[1] {
			t.Errorf("SelectProjection = %v, %v", keep, err)
		}
	}
}

// TestAskHonorsCancelledContext: no question is posed on a cancelled
// context, whatever the Interactor.
func TestAskHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := SelectTopK(ctx, Auto{}, "d", 5); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestScriptedAnswersAndFallback(t *testing.T) {
	s := &Scripted{
		IXAnswers:             [][]bool{{true, false}},
		DisambiguationAnswers: []int{1},
		TopKAnswers:           []int{3},
		ThresholdAnswers:      []float64{0.25},
		ProjectionAnswers:     [][]bool{{false, true}},
	}
	ans, err := VerifyIXs(bg, s, "q", spans)
	if err != nil || ans[0] != true || ans[1] != false {
		t.Errorf("VerifyIXs = %v, %v", ans, err)
	}
	// Second call falls back to the default (accept all).
	ans, err = VerifyIXs(bg, s, "q", spans)
	if err != nil || !ans[0] || !ans[1] {
		t.Errorf("fallback VerifyIXs = %v, %v", ans, err)
	}
	i, err := Disambiguate(bg, s, "Buffalo", choices)
	if err != nil || i != 1 {
		t.Errorf("Disambiguate = %d, %v", i, err)
	}
	if i, _ := Disambiguate(bg, s, "Buffalo", choices); i != 0 {
		t.Errorf("fallback Disambiguate = %d", i)
	}
	// Threshold and top-k answers come from separate queues, whatever
	// the order of the questions.
	if th, _ := SelectThreshold(bg, s, "d", 0.1); th != 0.25 {
		t.Errorf("SelectThreshold = %g", th)
	}
	if k, _ := SelectTopK(bg, s, "d", 5); k != 3 {
		t.Errorf("SelectTopK = %d", k)
	}
	if k, _ := SelectTopK(bg, s, "d", 5); k != 5 {
		t.Errorf("fallback SelectTopK = %d", k)
	}
	keep, err := SelectProjection(bg, s, vars)
	if err != nil || keep[0] || !keep[1] {
		t.Errorf("SelectProjection = %v, %v", keep, err)
	}
}

func TestScriptedShapeMismatch(t *testing.T) {
	s := &Scripted{IXAnswers: [][]bool{{true}}}
	if _, err := VerifyIXs(bg, s, "q", spans); !errors.Is(err, ErrBadAnswer) {
		t.Errorf("shape mismatch err = %v, want ErrBadAnswer", err)
	}
	s2 := &Scripted{DisambiguationAnswers: []int{7}}
	if _, err := Disambiguate(bg, s2, "x", choices); !errors.Is(err, ErrBadAnswer) {
		t.Errorf("out-of-range choice err = %v, want ErrBadAnswer", err)
	}
	s3 := &Scripted{ProjectionAnswers: [][]bool{{true}}}
	if _, err := SelectProjection(bg, s3, vars); !errors.Is(err, ErrBadAnswer) {
		t.Errorf("projection shape mismatch err = %v, want ErrBadAnswer", err)
	}
	s4 := &Scripted{TopKAnswers: []int{0}, ThresholdAnswers: []float64{math.NaN()}}
	if _, err := SelectTopK(bg, s4, "d", 5); !errors.Is(err, ErrBadAnswer) {
		t.Errorf("k=0 err = %v, want ErrBadAnswer", err)
	}
	if _, err := SelectThreshold(bg, s4, "d", 0.1); !errors.Is(err, ErrBadAnswer) {
		t.Errorf("NaN threshold err = %v, want ErrBadAnswer", err)
	}
}

// TestScriptedNonStrictStillFallsBack pins the fallback: an exhausted
// (here empty) script keeps answering with the defaults.
func TestScriptedNonStrictStillFallsBack(t *testing.T) {
	s := &Scripted{}
	if ans, err := VerifyIXs(bg, s, "q", spans); err != nil || !ans[0] || !ans[1] {
		t.Errorf("fallback VerifyIXs = %v, %v", ans, err)
	}
}

func TestConsoleDialogue(t *testing.T) {
	in := strings.NewReader("y\nn\n2\n7\n0.4\n\nn\n")
	var out strings.Builder
	c := &Console{R: in, W: &out}
	ans, err := VerifyIXs(bg, c, "q", spans)
	if err != nil || ans[0] != true || ans[1] != false {
		t.Fatalf("VerifyIXs = %v, %v", ans, err)
	}
	i, err := Disambiguate(bg, c, "Buffalo", choices)
	if err != nil || i != 1 {
		t.Fatalf("Disambiguate = %d, %v", i, err)
	}
	k, err := SelectTopK(bg, c, "interesting places", 5)
	if err != nil || k != 7 {
		t.Fatalf("SelectTopK = %d, %v", k, err)
	}
	th, err := SelectThreshold(bg, c, "visit in the fall", 0.1)
	if err != nil || th != 0.4 {
		t.Fatalf("SelectThreshold = %g, %v", th, err)
	}
	keep, err := SelectProjection(bg, c, vars)
	if err != nil || !keep[0] || keep[1] {
		t.Fatalf("SelectProjection = %v, %v", keep, err)
	}
	want := `Please verify: which parts of your question should be asked to the crowd?
  [1] "most interesting places" (lexical individuality) — ask the crowd? [Y/n]   [2] "we should visit in the fall" (participant+syntactic individuality) — ask the crowd? [Y/n] Which "Buffalo" did you mean?
  [1] Buffalo — city in New York, USA
  [2] Buffalo — village in Illinois, USA
Enter choice [1]: How many results for interesting places? [5]: Minimal frequency for visit in the fall, between 0 and 1? [0.1]: For which terms do you want to receive instances?
  $x ("places") — include? [Y/n]   $y ("guide") — include? [Y/n] `
	if got := out.String(); got != want {
		t.Errorf("console output:\n%s\nwant:\n%s", got, want)
	}
}

func TestConsoleDefaultsOnEmptyLine(t *testing.T) {
	in := strings.NewReader("\n\n\n")
	var out strings.Builder
	c := &Console{R: in, W: &out}
	if i, err := Disambiguate(bg, c, "x", choices); err != nil || i != 0 {
		t.Errorf("Disambiguate default = %d, %v", i, err)
	}
	if k, err := SelectTopK(bg, c, "d", 5); err != nil || k != 5 {
		t.Errorf("SelectTopK default = %d, %v", k, err)
	}
	if th, err := SelectThreshold(bg, c, "d", 0.1); err != nil || th != 0.1 {
		t.Errorf("SelectThreshold default = %g, %v", th, err)
	}
}

func TestConsoleInvalidInput(t *testing.T) {
	for _, tc := range []struct {
		name, input string
		ask         func(Interactor) error
	}{
		{"non-numeric choice", "nope\n", func(in Interactor) error { _, err := Disambiguate(bg, in, "x", choices); return err }},
		{"choice out of range", "3\n", func(in Interactor) error { _, err := Disambiguate(bg, in, "x", choices); return err }},
		{"negative k", "-3\n", func(in Interactor) error { _, err := SelectTopK(bg, in, "d", 5); return err }},
		{"fractional k", "2.5\n", func(in Interactor) error { _, err := SelectTopK(bg, in, "d", 5); return err }},
		{"infinite k", "+Inf\n", func(in Interactor) error { _, err := SelectTopK(bg, in, "d", 5); return err }},
		{"threshold > 1", "1.5\n", func(in Interactor) error { _, err := SelectThreshold(bg, in, "d", 0.1); return err }},
		{"NaN threshold", "NaN\n", func(in Interactor) error { _, err := SelectThreshold(bg, in, "d", 0.1); return err }},
		{"non-numeric threshold", "lots\n", func(in Interactor) error { _, err := SelectThreshold(bg, in, "d", 0.1); return err }},
	} {
		c := &Console{R: strings.NewReader(tc.input), W: &strings.Builder{}}
		if err := tc.ask(c); !errors.Is(err, ErrBadAnswer) {
			t.Errorf("%s: err = %v, want ErrBadAnswer", tc.name, err)
		}
	}
}

func TestRecorderTranscript(t *testing.T) {
	r := &Recorder{Inner: Auto{}}
	if _, err := VerifyIXs(bg, r, "q", spans); err != nil {
		t.Fatal(err)
	}
	if _, err := Disambiguate(bg, r, "Buffalo", choices); err != nil {
		t.Fatal(err)
	}
	if _, err := SelectTopK(bg, r, "interesting places", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := SelectThreshold(bg, r, "visit in fall", 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := SelectProjection(bg, r, vars[:1]); err != nil {
		t.Fatal(err)
	}
	want := []Exchange{
		{PointIXVerification, `verify IXs: "most interesting places"(lexical), "we should visit in the fall"(participant+syntactic)`, "true, true"},
		{PointDisambiguation, `disambiguate "Buffalo" among [Buffalo (city in New York, USA); Buffalo (village in Illinois, USA)]`, "Buffalo (city in New York, USA)"},
		{PointSignificance, "top-k for interesting places (default 5)", "5"},
		{PointSignificance, "threshold for visit in fall (default 0.1)", "0.1"},
		{PointProjection, "project $x", "true"},
	}
	if len(r.Log) != len(want) {
		t.Fatalf("transcript has %d exchanges, want %d", len(r.Log), len(want))
	}
	for i, ex := range r.Log {
		if ex != want[i] {
			t.Errorf("exchange %d = %+v, want %+v", i, ex, want[i])
		}
	}
}

// TestRecorderSkipsRejectedAnswers: a malformed answer is an error, not
// a transcript entry — and rendering it cannot panic.
func TestRecorderSkipsRejectedAnswers(t *testing.T) {
	r := &Recorder{Inner: &Scripted{DisambiguationAnswers: []int{7}, TopKAnswers: []int{-1}}}
	if _, err := Disambiguate(bg, r, "Buffalo", choices); !errors.Is(err, ErrBadAnswer) {
		t.Errorf("choice 7 err = %v, want ErrBadAnswer", err)
	}
	if _, err := SelectTopK(bg, r, "d", 5); !errors.Is(err, ErrBadAnswer) {
		t.Errorf("k=-1 err = %v, want ErrBadAnswer", err)
	}
	if got := r.Transcript(); len(got) != 0 {
		t.Errorf("rejected answers recorded: %+v", got)
	}
}

// TestCheck pins the one answer check, including the rule that a
// number must be finite.
func TestCheck(t *testing.T) {
	num := func(n float64) Answer { return Answer{Number: &n} }
	choice := func(c int) Answer { return Answer{Choice: &c} }
	ixq := &Question{Kind: KindIXVerify, Spans: spans}
	prq := &Question{Kind: KindProjection, Vars: vars}
	chq := &Question{Kind: KindChoice, Choices: choices}
	topk := &Question{Kind: KindNumber, Min: 1, Integer: true, Default: 5}
	thr := &Question{Kind: KindNumber, Min: 0, Max: 1, Default: 0.1}
	for _, tc := range []struct {
		name string
		q    *Question
		a    Answer
		ok   bool
	}{
		{"ix flags", ixq, Answer{Accept: []bool{true, false}}, true},
		{"ix short flags", ixq, Answer{Accept: []bool{true}}, false},
		{"projection flags", prq, Answer{Accept: []bool{false, true}}, true},
		{"projection long flags", prq, Answer{Accept: []bool{true, true, true}}, false},
		{"choice", chq, choice(1), true},
		{"choice missing", chq, Answer{}, false},
		{"choice negative", chq, choice(-1), false},
		{"choice past end", chq, choice(2), false},
		{"top-k", topk, num(3), true},
		{"top-k missing", topk, Answer{}, false},
		{"top-k zero", topk, num(0), false},
		{"top-k fractional", topk, num(2.5), false},
		{"top-k +Inf", topk, num(math.Inf(1)), false},
		{"top-k beyond exact integers", topk, num(1e300), false},
		{"threshold", thr, num(0.25), true},
		{"threshold bounds", thr, num(1), true},
		{"threshold above 1", thr, num(1.5), false},
		{"threshold negative", thr, num(-0.1), false},
		{"threshold NaN", thr, num(math.NaN()), false},
		{"threshold -Inf", thr, num(math.Inf(-1)), false},
		{"unknown kind", &Question{Kind: "essay"}, Answer{}, false},
	} {
		err := tc.q.Check(tc.a)
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadAnswer) {
			t.Errorf("%s: err = %v, want ErrBadAnswer", tc.name, err)
		}
	}
	for _, q := range []*Question{ixq, prq, chq, topk, thr} {
		if err := q.Check(q.DefaultAnswer()); err != nil {
			t.Errorf("default answer of a %s question rejected: %v", q.Kind, err)
		}
	}
}

func TestPointStringUnknown(t *testing.T) {
	if got := Point(99).String(); !strings.Contains(got, "99") {
		t.Errorf("String = %q", got)
	}
}

// TestConsoleReadHonorsContext verifies the -interactive Ctrl-C path: a
// prompt whose reader never delivers a line unblocks as soon as the
// context is cancelled.
func TestConsoleReadHonorsContext(t *testing.T) {
	pr, pw := io.Pipe() // a read that never completes
	defer pw.Close()
	c := &Console{R: pr, W: &strings.Builder{}}
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := Disambiguate(ctx, c, "Buffalo", choices)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Disambiguate still blocked after cancellation")
	}
}

// TestRecorderConcurrent hammers one Recorder from parallel dialogues;
// -race verifies the locking.
func TestRecorderConcurrent(t *testing.T) {
	r := &Recorder{Inner: Auto{}}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := VerifyIXs(bg, r, "q", spans); err != nil {
					t.Error(err)
					return
				}
				if _, err := Disambiguate(bg, r, "Buffalo", choices); err != nil {
					t.Error(err)
					return
				}
				if len(r.Transcript()) == 0 {
					t.Error("empty transcript during recording")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(r.Transcript()); got != 8*50*2 {
		t.Errorf("transcript has %d exchanges, want %d", got, 8*50*2)
	}
}

// FuzzCheck feeds arbitrary JSON answers, and an arbitrary float as a
// number answer, to one question of each kind. Check must never panic,
// and an answer it accepts must convert to an in-range typed value and
// render.
func FuzzCheck(f *testing.F) {
	for _, seed := range []string{
		`{"accept":[true,false]}`, `{"accept":[true]}`, `{"choice":1}`, `{"choice":-1}`,
		`{"number":5}`, `{"number":0.25}`, `{"number":1e300}`, `{}`, `null`,
	} {
		f.Add(seed, 0.5)
	}
	f.Add(`{"number":-0}`, math.NaN())
	f.Add(`{"choice":9}`, math.Inf(1))
	questions := []*Question{
		{Point: PointIXVerification, Kind: KindIXVerify, Spans: spans},
		{Point: PointDisambiguation, Kind: KindChoice, Subject: "Buffalo", Choices: choices},
		{Point: PointSignificance, Kind: KindNumber, Subject: "d", Default: 5, Min: 1, Integer: true},
		{Point: PointSignificance, Kind: KindNumber, Subject: "d", Default: 0.1, Min: 0, Max: 1},
		{Point: PointProjection, Kind: KindProjection, Vars: vars},
	}
	f.Fuzz(func(t *testing.T, data string, n float64) {
		answers := []Answer{{Number: &n}}
		var a Answer
		if json.Unmarshal([]byte(data), &a) == nil {
			answers = append(answers, a)
		}
		for _, q := range questions {
			for _, a := range answers {
				if q.Check(a) != nil {
					continue
				}
				switch q.Kind {
				case KindIXVerify, KindProjection:
					if len(a.Accept) != len(q.Spans)+len(q.Vars) {
						t.Fatalf("%s: accepted %d flags", q.Kind, len(a.Accept))
					}
				case KindChoice:
					if c := *a.Choice; c < 0 || c >= len(q.Choices) {
						t.Fatalf("accepted choice %d", c)
					}
				case KindNumber:
					v := *a.Number
					if q.Integer {
						if k := int(v); k < 1 || float64(k) != v {
							t.Fatalf("accepted top-k %v converts to %d", v, k)
						}
					} else if !(v >= 0 && v <= 1) {
						t.Fatalf("accepted threshold %v", v)
					}
				}
				if ex := q.Exchange(a); ex.Question == "" || ex.Answer == "" {
					t.Fatalf("accepted %s answer renders empty: %+v", q.Kind, ex)
				}
			}
		}
	})
}
