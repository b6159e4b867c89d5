package session

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"nl2cm/internal/interact"
)

// TestSessionStress drives many concurrent sessions with interleaved
// answers, deliberate abandonment (question timeout), deletion, and a
// capacity small enough to force eviction — the -race gate for the whole
// subsystem. Every session must reach a terminal state and no
// translation goroutine may survive Close.
func TestSessionStress(t *testing.T) {
	const n = 24
	m := newManager(t, Config{
		Capacity:        n / 2, // force eviction under load
		TTL:             5 * time.Second,
		QuestionTimeout: 100 * time.Millisecond,
	})
	questions := []string{
		buffaloQ,
		"What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?",
		"Which hotel in Vegas has the best thrill ride?",
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			s, err := m.Start(questions[i%len(questions)])
			if err != nil {
				errs <- fmt.Errorf("worker %d: %w", i, err)
				return
			}
			switch i % 4 {
			case 0: // answer everything
				for {
					snap := s.WaitQuestion(context.Background(), 10*time.Second)
					if snap.State.Terminal() {
						errs <- nil
						return
					}
					if snap.Question == nil {
						errs <- fmt.Errorf("worker %d: stuck without question", i)
						return
					}
					err := s.Answer(snap.Question.ID, answerFor(snap.Question, "Illinois"))
					if err != nil && !errors.Is(err, ErrNoPending) && !errors.Is(err, ErrWrongQuestion) {
						errs <- fmt.Errorf("worker %d: %w", i, err)
						return
					}
				}
			case 1: // answer the first question, then abandon (timeouts finish it)
				snap := s.WaitQuestion(context.Background(), 10*time.Second)
				if snap.Question != nil {
					s.Answer(snap.Question.ID, answerFor(snap.Question, ""))
				}
				errs <- nil
			case 2: // delete mid-dialogue
				s.WaitQuestion(context.Background(), 10*time.Second)
				m.Delete(s.ID())
				errs <- nil
			default: // abandon immediately
				errs <- nil
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Abandoned sessions finish on question timeouts well inside the TTL.
	waitRunnersGone(t, m, 15*time.Second)
	mt := m.Metrics()
	if mt.Started != n {
		t.Errorf("started = %d, want %d", mt.Started, n)
	}
	if mt.Completed+mt.Failed+mt.Expired != n {
		t.Errorf("terminal states %d+%d+%d don't cover %d sessions",
			mt.Completed, mt.Failed, mt.Expired, n)
	}
	if mt.Failed != 0 {
		t.Errorf("%d sessions failed", mt.Failed)
	}
}

// TestAbandonedSessionsLeakNoGoroutines is the acceptance check: 100
// sessions are started and abandoned mid-dialogue; after expiry,
// eviction and cancellation, no parked translation goroutine remains.
func TestAbandonedSessionsLeakNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	m := newManager(t, Config{
		Capacity:        40, // forces eviction of live sessions
		TTL:             300 * time.Millisecond,
		QuestionTimeout: 10 * time.Second, // > TTL: only expiry can unpark
	})
	for i := 0; i < 100; i++ {
		s, err := m.Start(buffaloQ)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			// A third get explicitly deleted rather than expiring.
			go func() {
				s.WaitQuestion(context.Background(), 2*time.Second)
				m.Delete(s.ID())
			}()
		}
	}
	waitRunnersGone(t, m, 20*time.Second)
	m.Close() // idempotent with Cleanup; flushes the table
	// Let auxiliary goroutines (test helpers) drain before comparing.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines grew %d -> %d after abandoning 100 sessions\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}

// waitRunnersGone polls Manager.Running until every translation
// goroutine has exited.
func waitRunnersGone(t *testing.T, m *Manager, max time.Duration) {
	t.Helper()
	deadline := time.Now().Add(max)
	for m.Running() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d translation goroutines still parked", m.Running())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentAnswersOneSession hammers a single session with racing
// answer attempts; exactly the valid ones land and the session still
// completes.
func TestConcurrentAnswersOneSession(t *testing.T) {
	m := newManager(t, Config{})
	s, err := m.Start(buffaloQ)
	if err != nil {
		t.Fatal(err)
	}
	for {
		snap := s.WaitQuestion(context.Background(), 10*time.Second)
		if snap.State.Terminal() {
			if snap.State != StateDone {
				t.Fatalf("state = %s (%s)", snap.State, snap.Error)
			}
			if !strings.Contains(snap.Query, "SATISFYING") {
				t.Errorf("query = %q", snap.Query)
			}
			return
		}
		q := snap.Question
		done := make(chan error, 8)
		for w := 0; w < 8; w++ {
			go func() { done <- s.Answer(q.ID, answerFor(q, "")) }()
		}
		landed := 0
		for w := 0; w < 8; w++ {
			if err := <-done; err == nil {
				landed++
			} else if !errors.Is(err, ErrNoPending) && !errors.Is(err, ErrWrongQuestion) {
				t.Fatalf("unexpected answer error: %v", err)
			}
		}
		if landed != 1 {
			t.Fatalf("%d answers landed for one question", landed)
		}
	}
}

// TestCompletionCountedBeforeDone: a session's terminal state is counted
// before it is published, so Metrics read right after Done already
// includes it. 500 sessions with no interaction points run one after
// another; each must be counted the moment its Done channel closes.
func TestCompletionCountedBeforeDone(t *testing.T) {
	m := newManager(t, Config{Policy: interact.Policy{Ask: map[interact.Point]bool{}}})
	for i := uint64(1); i <= 500; i++ {
		s, err := m.Start(buffaloQ)
		if err != nil {
			t.Fatal(err)
		}
		<-s.Done()
		if got := m.Metrics().Completed; got != i {
			t.Fatalf("session %d: Metrics().Completed = %d right after Done, want %d (state %s)", i, got, i, s.Snapshot().State)
		}
	}
}
