package session

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"nl2cm/internal/core"
	"nl2cm/internal/interact"
	"nl2cm/internal/ontology"
)

// demoOnto is shared read-only across tests (building it is the
// expensive part of a Manager).
var (
	demoOnto     *ontology.Ontology
	demoOntoOnce sync.Once
)

func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	demoOntoOnce.Do(func() { demoOnto = ontology.NewDemoOntology() })
	if cfg.Translator == nil {
		cfg.Translator = core.New(demoOnto)
	}
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	return m
}

const buffaloQ = "Where do you visit in Buffalo?"

// answerFor builds a valid answer for any question: accept/keep all,
// pick the choice whose description contains wantChoice (first option
// if empty), defaults for numbers.
func answerFor(q *Question, wantChoice string) Answer {
	switch q.Kind {
	case interact.KindIXVerify:
		a := make([]bool, len(q.Spans))
		for i := range a {
			a[i] = true
		}
		return Answer{Accept: a}
	case interact.KindProjection:
		a := make([]bool, len(q.Vars))
		for i := range a {
			a[i] = true
		}
		return Answer{Accept: a}
	case interact.KindChoice:
		c := 0
		for i, opt := range q.Choices {
			if wantChoice != "" && strings.Contains(opt.Description, wantChoice) {
				c = i
				break
			}
		}
		return Answer{Choice: &c}
	case interact.KindNumber:
		n := q.Default
		return Answer{Number: &n}
	}
	return Answer{}
}

// drive answers every question of the session (choosing wantChoice on
// disambiguations) until it is terminal, and returns the final snapshot.
func drive(t *testing.T, s *Session, wantChoice string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := s.WaitQuestion(context.Background(), time.Until(deadline))
		if snap.State.Terminal() {
			return snap
		}
		if snap.Question == nil {
			t.Fatalf("session %s neither terminal nor waiting: %+v", s.ID(), snap)
		}
		if err := s.Answer(snap.Question.ID, answerFor(snap.Question, wantChoice)); err != nil &&
			!errors.Is(err, ErrNoPending) && !errors.Is(err, ErrWrongQuestion) {
			t.Fatalf("Answer: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s did not finish", s.ID())
		}
	}
}

// TestFullDialogue walks the paper's Figures 3–6 flow over the session
// API: IX verification, the Buffalo disambiguation, significance,
// projection — and checks the answered choice trains the feedback store.
func TestFullDialogue(t *testing.T) {
	tr := core.New(ontology.NewDemoOntology())
	m := newManager(t, Config{Translator: tr})
	s, err := m.Start(buffaloQ)
	if err != nil {
		t.Fatal(err)
	}

	// First question: IX verification with at least one span.
	snap := s.WaitQuestion(context.Background(), 10*time.Second)
	if snap.State != StateWaiting || snap.Question == nil {
		t.Fatalf("state = %s, question = %+v", snap.State, snap.Question)
	}
	if snap.Question.Kind != interact.KindIXVerify || len(snap.Question.Spans) == 0 {
		t.Fatalf("first question = %+v, want ix-verify with spans", snap.Question)
	}

	final := drive(t, s, "Illinois")
	if final.State != StateDone {
		t.Fatalf("final state = %s (err %s)", final.State, final.Error)
	}
	if !strings.Contains(final.Query, "Buffalo,_IL") {
		t.Errorf("query did not use the chosen entity:\n%s", final.Query)
	}
	if len(final.Turns) < 3 {
		t.Errorf("transcript has %d turns, want the full dialogue", len(final.Turns))
	}
	for _, turn := range final.Turns {
		if turn.Source != "user" {
			t.Errorf("turn %+v not answered by user", turn.Question.Prompt)
		}
		// Turns render answers as the admin-mode Recorder does.
		if turn.Question.Kind == interact.KindChoice && !strings.Contains(turn.Answer, "Illinois") {
			t.Errorf("disambiguation turn answer = %q, want the Illinois reading", turn.Answer)
		}
		if turn.Question.Kind == interact.KindIXVerify { // drive accepts every span
			if want := turn.Question.Exchange(turn.Question.DefaultAnswer()).Answer; turn.Answer != want {
				t.Errorf("IX turn answer = %q, want %q", turn.Answer, want)
			}
		}
	}
	// The disambiguation trained the shared feedback store.
	boosted := false
	for _, c := range tr.Generator.RankCandidates(tr.Onto.View(), "Buffalo") {
		if strings.Contains(c.Description, "Illinois") {
			boosted = tr.Generator.Feedback.Boost("Buffalo", c.Term) > 0
		}
	}
	if !boosted {
		t.Error("answered disambiguation did not record feedback")
	}

	mt := m.Metrics()
	if mt.Completed != 1 || mt.Started != 1 {
		t.Errorf("metrics = %+v", mt)
	}
	var dis PointMetrics
	for _, p := range mt.Points {
		if p.Point == interact.PointDisambiguation.String() {
			dis = p
		}
	}
	if dis.Asked != 1 || dis.Answered != 1 || dis.AvgWait() <= 0 {
		t.Errorf("disambiguation metrics = %+v", dis)
	}
}

// TestQuestionTimeoutFallsBackToAuto is the degradation regression: an
// unanswered question times out to the Auto answer and the session still
// completes with a query.
func TestQuestionTimeoutFallsBackToAuto(t *testing.T) {
	m := newManager(t, Config{QuestionTimeout: 20 * time.Millisecond})
	s, err := m.Start(buffaloQ)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("session did not complete on auto fallbacks")
	}
	snap := s.Snapshot()
	if snap.State != StateDone {
		t.Fatalf("state = %s (err %s)", snap.State, snap.Error)
	}
	if !strings.Contains(snap.Query, "Buffalo,_NY") {
		t.Errorf("auto fallback did not pick the top candidate:\n%s", snap.Query)
	}
	var timedOut uint64
	for _, p := range m.Metrics().Points {
		timedOut += p.TimedOut
	}
	if timedOut == 0 {
		t.Error("no question counted as timed out")
	}
	for _, turn := range snap.Turns {
		if turn.Source != "auto" {
			t.Errorf("turn %q source = %s, want auto", turn.Question.Prompt, turn.Source)
		}
		if want := turn.Question.Exchange(turn.Question.DefaultAnswer()).Answer; turn.Answer != want {
			t.Errorf("turn %q answer = %q, want the default %q", turn.Question.Prompt, turn.Answer, want)
		}
	}
}

// TestAnswerValidation exercises the typed protocol errors.
func TestAnswerValidation(t *testing.T) {
	m := newManager(t, Config{})
	s, err := m.Start(buffaloQ)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.WaitQuestion(context.Background(), 10*time.Second)
	if snap.Question == nil {
		t.Fatalf("no pending question: %+v", snap)
	}
	q := snap.Question

	if err := s.Answer(q.ID+7, answerFor(q, "")); !errors.Is(err, ErrWrongQuestion) {
		t.Errorf("stale id err = %v", err)
	}
	if err := s.Answer(q.ID, Answer{Accept: make([]bool, len(q.Spans)+1)}); !errors.Is(err, ErrBadAnswer) {
		t.Errorf("shape mismatch err = %v", err)
	}
	// Malformed answers left the question pending; a correct one lands.
	if err := s.Answer(q.ID, answerFor(q, "")); err != nil {
		t.Errorf("valid answer rejected: %v", err)
	}
	if err := s.Answer(q.ID, answerFor(q, "")); !errors.Is(err, ErrNoPending) && !errors.Is(err, ErrWrongQuestion) {
		t.Errorf("double answer err = %v", err)
	}

	final := drive(t, s, "")
	if final.State != StateDone {
		t.Fatalf("final state = %s", final.State)
	}
	if err := s.Answer(0, Answer{}); !errors.Is(err, ErrNoPending) {
		t.Errorf("answer after done err = %v", err)
	}
}

// TestNumberValidation checks that Session.Answer runs the question's
// check: numeric bounds for significance questions, and non-finite
// numbers rejected.
func TestNumberValidation(t *testing.T) {
	m := newManager(t, Config{Policy: interact.Policy{Ask: map[interact.Point]bool{interact.PointSignificance: true}}})
	s, err := m.Start("What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?")
	if err != nil {
		t.Fatal(err)
	}
	snap := s.WaitQuestion(context.Background(), 10*time.Second)
	q := snap.Question
	if q == nil || q.Kind != interact.KindNumber || !q.Integer {
		t.Fatalf("first question = %+v, want the top-k number question", q)
	}
	for _, bad := range []float64{0, 2.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		if err := s.Answer(q.ID, Answer{Number: &bad}); !errors.Is(err, ErrBadAnswer) {
			t.Errorf("top-k %g err = %v, want ErrBadAnswer", bad, err)
		}
	}
	if err := s.Answer(q.ID, Answer{}); !errors.Is(err, ErrBadAnswer) {
		t.Errorf("missing number err = %v, want ErrBadAnswer", err)
	}
	k := 3.0
	if err := s.Answer(q.ID, Answer{Number: &k}); err != nil {
		t.Fatalf("valid top-k rejected: %v", err)
	}
	snap = s.WaitQuestion(context.Background(), 10*time.Second)
	q = snap.Question
	if q == nil || q.Kind != interact.KindNumber || q.Integer {
		t.Fatalf("second question = %+v, want the threshold number question", q)
	}
	for _, bad := range []float64{1.5, -0.1, math.NaN(), math.Inf(1)} {
		if err := s.Answer(q.ID, Answer{Number: &bad}); !errors.Is(err, ErrBadAnswer) {
			t.Errorf("threshold %g err = %v, want ErrBadAnswer", bad, err)
		}
	}
	final := drive(t, s, "")
	if final.State != StateDone || !strings.Contains(final.Query, "LIMIT 3") {
		t.Fatalf("final state %s, query:\n%s", final.State, final.Query)
	}
}

// TestSessionTTLExpiry: an abandoned session expires, its goroutine
// exits, and the manager forgets it.
func TestSessionTTLExpiry(t *testing.T) {
	m := newManager(t, Config{TTL: 50 * time.Millisecond})
	s, err := m.Start(buffaloQ)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("abandoned session did not expire")
	}
	snap := s.Snapshot()
	if snap.State != StateExpired {
		t.Fatalf("state = %s, want expired", snap.State)
	}
	// The pipeline unwound with a stage-attributed deadline error
	// (Snapshot carries it as text).
	if !strings.Contains(snap.Error, "context deadline exceeded") || !strings.Contains(snap.Error, "nl2cm:") {
		t.Errorf("expiry error = %q, want a stage-attributed deadline cause", snap.Error)
	}
	// After the TTL, the session is swept from the table.
	if _, ok := m.Get(s.ID()); ok {
		t.Error("expired session still retrievable")
	}
	if m.Metrics().Expired != 1 {
		t.Errorf("metrics = %+v", m.Metrics())
	}
}

// TestDeleteAbortsSession: DELETE cancels the parked pipeline promptly.
func TestDeleteAbortsSession(t *testing.T) {
	m := newManager(t, Config{})
	s, err := m.Start(buffaloQ)
	if err != nil {
		t.Fatal(err)
	}
	s.WaitQuestion(context.Background(), 10*time.Second) // parked on Q1
	if !m.Delete(s.ID()) {
		t.Fatal("Delete found nothing")
	}
	select {
	case <-s.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("deleted session still running")
	}
	if st := s.Snapshot().State; st != StateExpired {
		t.Errorf("state after delete = %s", st)
	}
	if _, ok := m.Get(s.ID()); ok {
		t.Error("deleted session still retrievable")
	}
	if m.Delete(s.ID()) {
		t.Error("double delete succeeded")
	}
}

// TestCapacityEviction: at capacity, the oldest-idle session is evicted
// (cancelled) to admit the newcomer.
func TestCapacityEviction(t *testing.T) {
	m := newManager(t, Config{Capacity: 2})
	s1, err := m.Start(buffaloQ)
	if err != nil {
		t.Fatal(err)
	}
	s1.WaitQuestion(context.Background(), 10*time.Second)
	time.Sleep(5 * time.Millisecond) // order lastActive
	s2, err := m.Start(buffaloQ)
	if err != nil {
		t.Fatal(err)
	}
	s2.WaitQuestion(context.Background(), 10*time.Second)
	s3, err := m.Start(buffaloQ)
	if err != nil {
		t.Fatal(err)
	}
	// s1 was idle longest: evicted and cancelled.
	select {
	case <-s1.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("evicted session still running")
	}
	if st := s1.Snapshot().State; st != StateExpired {
		t.Errorf("evicted session state = %s", st)
	}
	if _, ok := m.Get(s1.ID()); ok {
		t.Error("evicted session still retrievable")
	}
	for _, s := range []*Session{s2, s3} {
		if _, ok := m.Get(s.ID()); !ok {
			t.Errorf("session %s missing", s.ID())
		}
	}
	if m.Metrics().Evicted != 1 {
		t.Errorf("metrics = %+v", m.Metrics())
	}
}

// TestStartAfterClose: a closed manager refuses new sessions.
func TestStartAfterClose(t *testing.T) {
	m := newManager(t, Config{})
	m.Close()
	if _, err := m.Start(buffaloQ); !errors.Is(err, ErrClosed) {
		t.Errorf("Start after Close err = %v", err)
	}
}

// TestObserverSeesDialogueStages: every parked question emits a
// StageName stage through the configured Observer.
func TestObserverSeesDialogueStages(t *testing.T) {
	var mu sync.Mutex
	stages := map[string]time.Duration{}
	obs := core.ObserverFunc(func(stage string, d time.Duration, err error) {
		mu.Lock()
		stages[stage] += d
		mu.Unlock()
	})
	m := newManager(t, Config{Observer: obs})
	s, err := m.Start(buffaloQ)
	if err != nil {
		t.Fatal(err)
	}
	if final := drive(t, s, ""); final.State != StateDone {
		t.Fatalf("state = %s", final.State)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range []interact.Point{interact.PointIXVerification, interact.PointDisambiguation} {
		if stages[StageName(p)] <= 0 {
			t.Errorf("observer missed stage %q (saw %v)", StageName(p), stages)
		}
	}
	// The pipeline's own stages still flow through the same observer.
	if stages[core.StageParser] <= 0 {
		t.Errorf("observer missed pipeline stage %q", core.StageParser)
	}
}

// TestUnsupportedQuestion: a rejected question terminates with the
// verdict, not an error.
func TestUnsupportedQuestion(t *testing.T) {
	m := newManager(t, Config{})
	s, err := m.Start("Why is the sky blue?")
	if err != nil {
		t.Fatal(err)
	}
	snap := s.WaitQuestion(context.Background(), 10*time.Second)
	if snap.State != StateDone || !snap.Unsupported || snap.Reason == "" {
		t.Errorf("snapshot = %+v", snap)
	}
}
