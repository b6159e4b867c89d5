package session

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"nl2cm/internal/core"
	"nl2cm/internal/interact"
)

// Config configures a Manager. The zero value of every optional field
// has a sensible default (see the constants below); Translator is
// required.
type Config struct {
	// Translator runs the translations; it must be safe for concurrent
	// use (core.Translator is).
	Translator *core.Translator
	// Policy selects the active interaction points. A policy with a nil
	// Ask map defaults to interact.Interactive() — an all-points session
	// is the reason to open one.
	Policy interact.Policy
	// Capacity bounds live sessions; at capacity, starting a new session
	// evicts first any terminal session, then the oldest-idle live one
	// (its context is cancelled, unwinding the parked pipeline).
	Capacity int
	// TTL bounds a session's total lifetime, answered or not. The
	// session's context carries the deadline, so expiry needs no
	// janitor: the parked pipeline unwinds by itself.
	TTL time.Duration
	// QuestionTimeout bounds each question's wait; past it, the
	// question's default answer is substituted and the translation
	// continues.
	QuestionTimeout time.Duration
	// Trace collects the admin-mode module trace in each session result.
	Trace bool
	// Observer, when non-nil, receives the pipeline's per-stage
	// callbacks plus one synthetic stage per dialogue question (see
	// StageName). It is shared by all sessions and must be safe for
	// concurrent use.
	Observer core.Observer
	// OnDone, when non-nil, is called (on the session's goroutine) after
	// a session reaches a terminal state — the daemon uses it to snapshot
	// results and schedule feedback flushes.
	OnDone func(*Session)
}

// Config defaults.
const (
	DefaultCapacity        = 256
	DefaultTTL             = 10 * time.Minute
	DefaultQuestionTimeout = 2 * time.Minute
)

// Manager owns every live dialogue session: creation, lookup, eviction,
// expiry sweeping, shutdown, and the per-point dialogue metrics. All
// methods are safe for concurrent use.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool
	stats    stats

	running atomic.Int64 // live translation goroutines (leak check hook)
	wg      sync.WaitGroup
}

// stats accumulates manager-lifetime counters; guarded by Manager.mu.
type stats struct {
	Started, Completed, Failed, Expired, Evicted uint64
	points                                       [4]pointStats
}

type pointStats struct {
	Asked, Answered, TimedOut, Aborted uint64
	TotalWait                          time.Duration
}

// PointMetrics is one interaction point's dialogue counters.
type PointMetrics struct {
	// Point is the interaction point's name.
	Point string
	// Asked counts questions surfaced to clients; Answered those a user
	// resolved, TimedOut those that fell back to the default answer, and
	// Aborted those cancelled with their session.
	Asked, Answered, TimedOut, Aborted uint64
	// TotalWait accumulates the pipeline's parked time across answered
	// questions.
	TotalWait time.Duration
}

// AvgWait is the mean parked time per answered question.
func (p PointMetrics) AvgWait() time.Duration {
	if p.Answered == 0 {
		return 0
	}
	return p.TotalWait / time.Duration(p.Answered)
}

// Metrics is a snapshot of the manager's counters.
type Metrics struct {
	// Started counts sessions ever created; Completed, Failed and
	// Expired partition the finished ones, and Evicted counts sessions
	// (live or terminal) removed to make room or by deletion.
	Started, Completed, Failed, Expired, Evicted uint64
	// Live is the number of sessions currently in the table.
	Live int
	// Points holds one entry per interaction point, in pipeline order.
	Points []PointMetrics
}

// NewManager builds a Manager over the config, applying defaults.
func NewManager(cfg Config) *Manager {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.QuestionTimeout <= 0 {
		cfg.QuestionTimeout = DefaultQuestionTimeout
	}
	if cfg.Policy.Ask == nil {
		cfg.Policy = interact.Interactive()
	}
	return &Manager{cfg: cfg, sessions: map[string]*Session{}}
}

// Start creates a session and launches its translation. The returned
// session is already registered; its first question (if any) appears
// asynchronously — use Session.WaitQuestion to meet it.
func (m *Manager) Start(question string) (*Session, error) {
	now := time.Now()
	s := &Session{
		id:      newID(),
		mgr:     m,
		created: now,
		expires: now.Add(m.cfg.TTL),
		done:    make(chan struct{}),
		state:   StateRunning,
		changed: make(chan struct{}),
	}
	s.lastActive = now
	ctx, cancel := context.WithDeadline(context.Background(), s.expires)
	s.cancel = cancel

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return nil, ErrClosed
	}
	m.sweepLocked(now)
	for len(m.sessions) >= m.cfg.Capacity {
		m.evictLocked()
	}
	m.sessions[s.id] = s
	m.stats.Started++
	m.mu.Unlock()

	m.wg.Add(1)
	m.running.Add(1)
	go m.run(ctx, s, question)
	return s, nil
}

// run is the session's translation goroutine: it drives the pipeline
// with the session as its Interactor and records the terminal state.
func (m *Manager) run(ctx context.Context, s *Session, question string) {
	defer m.wg.Done()
	defer m.running.Add(-1)
	defer s.cancel()

	res, err := m.cfg.Translator.Translate(ctx, question, core.Options{
		Interactor: s,
		Policy:     m.cfg.Policy,
		Trace:      m.cfg.Trace,
		Observer:   m.cfg.Observer,
	})

	// The terminal state is counted before it is published, so Metrics
	// read by anyone who saw the state or Done already includes it. Lock
	// order is m.mu then s.mu, as in evictLocked.
	m.mu.Lock()
	s.mu.Lock()
	s.pending, s.answerCh = nil, nil
	switch {
	case err == nil:
		s.state = StateDone
		s.result = res
		m.stats.Completed++
	case ctx.Err() != nil:
		// TTL expiry, eviction or deletion: the session's own context
		// ended the translation.
		s.state = StateExpired
		s.err = err
		m.stats.Expired++
	default:
		s.state = StateFailed
		s.err = err
		m.stats.Failed++
	}
	s.notifyLocked()
	s.mu.Unlock()
	m.mu.Unlock()
	close(s.done)

	if m.cfg.OnDone != nil {
		m.cfg.OnDone(s)
	}
}

// Get returns the session, sweeping expired entries first so a client
// polling a dead session sees a clean 404 rather than a stale expired
// record lingering forever.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(time.Now())
	s, ok := m.sessions[id]
	return s, ok
}

// Delete removes the session and cancels its translation. It reports
// whether the session existed.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
		m.stats.Evicted++
	}
	m.mu.Unlock()
	if ok {
		s.cancel()
	}
	return ok
}

// sweepLocked drops sessions whose TTL has passed; their contexts have
// already fired, so the runner goroutines are unwinding on their own.
func (m *Manager) sweepLocked(now time.Time) {
	for id, s := range m.sessions {
		if now.After(s.expires) {
			delete(m.sessions, id)
		}
	}
}

// evictLocked removes one session to make room: a terminal one if any
// exists, otherwise the live session idle the longest.
func (m *Manager) evictLocked() {
	var victim *Session
	victimTerminal := false
	var victimIdle time.Time
	for _, s := range m.sessions {
		s.mu.Lock()
		terminal := s.state.Terminal()
		idle := s.lastActive
		s.mu.Unlock()
		switch {
		case victim == nil,
			terminal && !victimTerminal,
			terminal == victimTerminal && idle.Before(victimIdle):
			victim, victimTerminal, victimIdle = s, terminal, idle
		}
	}
	if victim == nil {
		return
	}
	delete(m.sessions, victim.id)
	m.stats.Evicted++
	victim.cancel() // no-op for terminal sessions, aborts live ones
}

// Close cancels every session and waits for all translation goroutines
// to exit. Further Starts fail with ErrClosed.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	for id, s := range m.sessions {
		delete(m.sessions, id)
		s.cancel()
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// Running reports the number of live translation goroutines — the hook
// for goroutine-leak assertions in tests.
func (m *Manager) Running() int64 { return m.running.Load() }

// Metrics returns a snapshot of the manager's counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Metrics{
		Started:   m.stats.Started,
		Completed: m.stats.Completed,
		Failed:    m.stats.Failed,
		Expired:   m.stats.Expired,
		Evicted:   m.stats.Evicted,
		Live:      len(m.sessions),
	}
	for i, p := range m.stats.points {
		out.Points = append(out.Points, PointMetrics{
			Point:     interact.Point(i).String(),
			Asked:     p.Asked,
			Answered:  p.Answered,
			TimedOut:  p.TimedOut,
			Aborted:   p.Aborted,
			TotalWait: p.TotalWait,
		})
	}
	return out
}

func (m *Manager) pointAsked(p interact.Point) {
	m.mu.Lock()
	m.stats.points[p].Asked++
	m.mu.Unlock()
}

func (m *Manager) pointAnswered(p interact.Point, wait time.Duration) {
	m.mu.Lock()
	m.stats.points[p].Answered++
	m.stats.points[p].TotalWait += wait
	m.mu.Unlock()
}

func (m *Manager) pointTimedOut(p interact.Point) {
	m.mu.Lock()
	m.stats.points[p].TimedOut++
	m.mu.Unlock()
}

func (m *Manager) pointAborted(p interact.Point) {
	m.mu.Lock()
	m.stats.points[p].Aborted++
	m.mu.Unlock()
}

// newID returns an unguessable session id (the id is the only
// credential a dialogue has).
func newID() string {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("session: id entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
