// Package session is the stateful layer between the HTTP edge and the
// translation pipeline: it makes the paper's multi-turn dialogues
// (Figures 3–6 — IX verification, disambiguation, significance
// selection, projection) drivable by a remote client that can only poll
// and post.
//
// Each translation runs in its own goroutine with its Session as the
// interact.Interactor: when the pipeline reaches an interaction point,
// Session.Ask parks the goroutine and the question becomes visible as
// the session's pending Question; a client answer (Session.Answer)
// resumes it. A question left unanswered past its deadline is answered
// with its default (interact.Question.DefaultAnswer), so an abandoned
// dialogue degrades to the §4.1 automatic mode instead of leaking a
// parked goroutine; a session past its TTL (or evicted, or deleted) has
// its context cancelled, which unwinds the pipeline with a
// *core.StageError wrapping ctx.Err().
//
// The Manager owns the lifecycle: bounded capacity with oldest-idle
// eviction, per-session TTL, per-question deadlines, and per-point
// metrics (questions asked/answered/timed out, wait durations) that are
// also emitted through the configured core.Observer.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nl2cm/internal/core"
	"nl2cm/internal/interact"
)

// State is a session's lifecycle state. Transitions:
//
//	running → waiting   the pipeline asked a question (Ask parked)
//	waiting → running   the client answered, or the question deadline
//	                    passed and the default answer was substituted
//	running → done      translation finished; Result is available
//	running → failed    the pipeline returned a non-cancellation error
//	any     → expired   TTL expiry, eviction or deletion cancelled the
//	                    session's context and unwound the pipeline
type State string

// Session states.
const (
	StateRunning State = "running"
	StateWaiting State = "waiting"
	StateDone    State = "done"
	StateFailed  State = "failed"
	StateExpired State = "expired"
)

// Terminal reports whether no further transition can occur.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateExpired
}

// Question is one pending dialogue question: the pipeline's typed
// interact.Question inside the envelope a remote client needs to answer
// it. It is JSON-serializable for the REST protocol.
type Question struct {
	// ID identifies the question within its session; an Answer must name
	// it, so a stale client cannot answer the wrong question.
	ID int `json:"id"`
	// PointName is Point.String(), for clients.
	PointName string `json:"point"`
	interact.Question
	// Asked and Deadline bound the question: unanswered past Deadline,
	// it is withdrawn and answered with its default.
	Asked    time.Time `json:"asked"`
	Deadline time.Time `json:"deadline"`
}

// Answer is a client's reply to a pending question (see
// interact.Answer).
type Answer = interact.Answer

// Turn is one completed exchange of a session's dialogue, kept for the
// transcript (admin page, dialogue UI).
type Turn struct {
	Question Question `json:"question"`
	// Answer is the rendered answer (interact.Question.Exchange).
	Answer string `json:"answer"`
	// Source records who answered: "user", or "auto" when the question
	// deadline passed and the default was substituted.
	Source string `json:"source"`
	// Wait is how long the pipeline was parked on this question.
	Wait time.Duration `json:"wait_nanos"`
}

// Typed errors of the answer protocol, mapped to HTTP statuses by the
// daemon (404 / 409 / 409 / 400 / 503 in order).
var (
	ErrNotFound      = errors.New("session: not found")
	ErrNoPending     = errors.New("session: no pending question")
	ErrWrongQuestion = errors.New("session: answer names a different question")
	ErrBadAnswer     = interact.ErrBadAnswer
	ErrClosed        = errors.New("session: manager closed")
)

// Snapshot is a point-in-time view of a session, safe to serialize
// after the session has moved on.
type Snapshot struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Question is the pending question, when State is waiting.
	Question *Question `json:"question,omitempty"`
	// Query is the final OASSIS-QL text, when State is done and the
	// question was supported.
	Query string `json:"query,omitempty"`
	// Unsupported and Reason report a verification rejection (done, but
	// no query).
	Unsupported bool   `json:"unsupported,omitempty"`
	Reason      string `json:"reason,omitempty"`
	// Error is the failure cause, when State is failed or expired.
	Error string `json:"error,omitempty"`
	// Turns is the dialogue so far.
	Turns []Turn `json:"turns,omitempty"`
	// Created and Expires bound the session's lifetime.
	Created time.Time `json:"created"`
	Expires time.Time `json:"expires"`
	// Result is the full translation result (nil until done); not part
	// of the wire format — the daemon's HTML views use it.
	Result *core.Result `json:"-"`
}

// Session is one interactive translation. All methods are safe for
// concurrent use.
type Session struct {
	id      string
	mgr     *Manager
	created time.Time
	expires time.Time
	cancel  func()
	done    chan struct{}

	mu         sync.Mutex
	state      State
	pending    *Question
	answerCh   chan Answer
	changed    chan struct{}
	lastActive time.Time
	nextQID    int
	turns      []Turn
	result     *core.Result
	err        error
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Done is closed when the session's translation goroutine has exited
// (any terminal state).
func (s *Session) Done() <-chan struct{} { return s.done }

// Snapshot returns the session's current state.
func (s *Session) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Session) snapshotLocked() Snapshot {
	snap := Snapshot{
		ID:      s.id,
		State:   s.state,
		Created: s.created,
		Expires: s.expires,
		Turns:   append([]Turn(nil), s.turns...),
	}
	if s.pending != nil {
		q := *s.pending
		snap.Question = &q
	}
	if s.err != nil {
		snap.Error = s.err.Error()
	}
	if s.result != nil {
		snap.Result = s.result
		if s.result.Verdict.Supported {
			snap.Query = s.result.Query.String()
		} else {
			snap.Unsupported = true
			snap.Reason = s.result.Verdict.Reason
		}
	}
	return snap
}

// notifyLocked wakes every WaitQuestion waiter; callers hold s.mu.
func (s *Session) notifyLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// WaitQuestion blocks until the session has a pending question or is
// terminal — the two states a client can act on — but no longer than
// max, and no longer than ctx allows. It returns the snapshot at that
// moment, whatever it is.
func (s *Session) WaitQuestion(ctx context.Context, max time.Duration) Snapshot {
	timer := time.NewTimer(max)
	defer timer.Stop()
	for {
		s.mu.Lock()
		if s.pending != nil || s.state.Terminal() {
			snap := s.snapshotLocked()
			s.mu.Unlock()
			return snap
		}
		changed := s.changed
		s.mu.Unlock()
		select {
		case <-changed:
		case <-timer.C:
			return s.Snapshot()
		case <-ctx.Done():
			return s.Snapshot()
		}
	}
}

// Answer resolves the pending question qid. It validates the answer
// against the question's Kind (ErrBadAnswer), rejects stale or absent
// question ids (ErrWrongQuestion, ErrNoPending), and resumes the parked
// pipeline goroutine on success.
func (s *Session) Answer(qid int, a Answer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		if s.state.Terminal() {
			return fmt.Errorf("%w: session is %s", ErrNoPending, s.state)
		}
		return ErrNoPending
	}
	if s.pending.ID != qid {
		return fmt.Errorf("%w: pending is #%d, answer names #%d", ErrWrongQuestion, s.pending.ID, qid)
	}
	if err := s.pending.Check(a); err != nil {
		return err
	}
	s.answerCh <- a // buffered(1): never blocks while Ask waits
	s.pending, s.answerCh = nil, nil
	s.state = StateRunning
	s.lastActive = time.Now()
	s.notifyLocked()
	return nil
}

// ---------------------------------------------------------------------
// The pipeline side.

// Ask implements interact.Interactor: it publishes the question as the
// session's pending Question and parks the calling (pipeline) goroutine
// until a client answers it, its deadline passes — the question is then
// withdrawn and answered with its default — or ctx is cancelled.
func (s *Session) Ask(ctx context.Context, iq *interact.Question) (ans Answer, err error) {
	timeout := s.mgr.cfg.QuestionTimeout
	now := time.Now()
	q := &Question{PointName: iq.Point.String(), Question: *iq, Asked: now, Deadline: now.Add(timeout)}

	ch := make(chan Answer, 1)
	s.mu.Lock()
	q.ID = s.nextQID
	s.nextQID++
	s.pending = q
	s.answerCh = ch
	s.state = StateWaiting
	s.notifyLocked()
	s.mu.Unlock()

	stage := StageName(q.Point)
	if obs := s.mgr.cfg.Observer; obs != nil {
		obs.StageStart(stage)
	}
	s.mgr.pointAsked(q.Point)

	source := "user"
	defer func() {
		wait := time.Since(q.Asked)
		if obs := s.mgr.cfg.Observer; obs != nil {
			obs.StageEnd(stage, wait, err)
		}
		// Aborted questions are not turns: the dialogue ended.
		if err == nil {
			turn := Turn{Question: *q, Answer: q.Exchange(ans).Answer, Source: source, Wait: wait}
			s.mu.Lock()
			s.turns = append(s.turns, turn)
			s.mu.Unlock()
		}
	}()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case a := <-ch:
		s.mgr.pointAnswered(q.Point, time.Since(q.Asked))
		return a, nil
	case <-timer.C:
		// Withdraw the question; a concurrent Answer may win the race,
		// in which case it already cleared pending and sent on ch.
		s.mu.Lock()
		if s.pending == q {
			s.pending, s.answerCh = nil, nil
			s.state = StateRunning
			s.notifyLocked()
			s.mu.Unlock()
			s.mgr.pointTimedOut(q.Point)
			source = "auto"
			// A question with no valid answer (a choice among no
			// options) fails here, before its transcript renders it.
			def := q.DefaultAnswer()
			return def, q.Check(def)
		}
		s.mu.Unlock()
		a := <-ch
		s.mgr.pointAnswered(q.Point, time.Since(q.Asked))
		return a, nil
	case <-ctx.Done():
		s.mu.Lock()
		if s.pending == q {
			s.pending, s.answerCh = nil, nil
			s.notifyLocked()
		}
		s.mu.Unlock()
		s.mgr.pointAborted(q.Point)
		return Answer{}, ctx.Err()
	}
}

// StageName is the Observer stage label for one interaction point's
// dialogue wait (e.g. "User Dialogue (disambiguation)"), keeping session
// metrics in the same namespace as the pipeline's Stage* constants.
func StageName(p interact.Point) string {
	return "User Dialogue (" + p.String() + ")"
}

var _ interact.Interactor = (*Session)(nil)
