// Package interact models NL2CM's optional user-interaction points
// (paper §4.1, Figures 3–6): verifying detected individual expressions,
// disambiguating NL terms against the ontology, choosing LIMIT/THRESHOLD
// significance values, and selecting which variables' bindings to return.
//
// Each point can be independently disabled ("the system may be configured
// to always skip certain interaction points, or skip them when there is
// no uncertainty"); disabled or unanswered points fall back to defaults.
//
// The pipeline asks every question through one protocol: the five
// asking functions (VerifyIXs, Disambiguate, SelectTopK, SelectThreshold,
// SelectProjection) each build their point's typed Question once, pose it
// through Interactor.Ask and check the reply with Question.Check. Ask
// receives the translation's context.Context and must return promptly
// (with ctx.Err()) once the context is cancelled, so a slow or abandoned
// dialogue cannot hold a pipeline stage forever.
package interact

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Point identifies one of the four interaction points.
type Point int

// Interaction points, in pipeline order.
const (
	PointIXVerification Point = iota
	PointDisambiguation
	PointSignificance
	PointProjection
)

func (p Point) String() string {
	switch p {
	case PointIXVerification:
		return "ix-verification"
	case PointDisambiguation:
		return "disambiguation"
	case PointSignificance:
		return "significance"
	case PointProjection:
		return "projection"
	default:
		return fmt.Sprintf("point(%d)", int(p))
	}
}

// Policy selects which interaction points are active. The zero value
// disables all interaction (fully automatic translation, the §4.1
// "without interacting with the user" mode).
type Policy struct {
	// Ask enables each point.
	Ask map[Point]bool
	// OnlyWhenUncertain limits IX verification to spans whose detection
	// pattern is marked uncertain (paper: 'an IX detection pattern can be
	// marked as "uncertain"').
	OnlyWhenUncertain bool
}

// Interactive returns a policy with every interaction point enabled.
func Interactive() Policy {
	return Policy{Ask: map[Point]bool{
		PointIXVerification: true,
		PointDisambiguation: true,
		PointSignificance:   true,
		PointProjection:     true,
	}}
}

// Automatic returns the no-interaction policy.
func Automatic() Policy { return Policy{} }

// Asks reports whether the policy activates the point.
func (p Policy) Asks(pt Point) bool { return p.Ask != nil && p.Ask[pt] }

// IXSpan is a detected individual expression shown to the user for
// verification (Figure 4 highlights each in a different color).
type IXSpan struct {
	// Text is the surface text of the expression.
	Text string
	// Start and End are token indices [Start, End) in the question.
	Start, End int
	// ByteStart and ByteEnd delimit the expression's byte range
	// [ByteStart, ByteEnd) in the original question, for highlighting.
	ByteStart, ByteEnd int
	// Source is the exact source phrase the expression covers, quoted
	// from the question (gaps elided with "..."), in contrast to Text,
	// which re-joins token surface forms.
	Source string
	// Type is the individuality type: "lexical", "participant" or
	// "syntactic".
	Type string
	// Pattern names the detection pattern that fired.
	Pattern string
	// Uncertain marks spans from patterns flagged as uncertain.
	Uncertain bool
}

// Choice is one option in a disambiguation question.
type Choice struct {
	Label       string
	Description string
}

// VarChoice is one projectable variable with the question phrase it
// corresponds to.
type VarChoice struct {
	Var    string
	Phrase string
}

// Interactor answers the system's questions. The pipeline never calls
// Ask directly: it asks through VerifyIXs, Disambiguate, SelectTopK,
// SelectThreshold and SelectProjection, which build the question and
// check the answer (Question.Check), so an implementation need not
// validate its own replies. Ask must return promptly with ctx.Err() once
// ctx is cancelled. An Interactor with per-dialogue state (Scripted,
// Console) must not be shared between concurrent translations.
type Interactor interface {
	Ask(ctx context.Context, q *Question) (Answer, error)
}

// ---------------------------------------------------------------------
// Auto: every question answered with its default.

// Auto is the non-interactive Interactor: it accepts all IXs, keeps the
// top-ranked disambiguation candidate, uses default significance values
// and projects every variable. It is stateless and safe for concurrent
// use.
type Auto struct{}

// Ask implements Interactor.
func (Auto) Ask(_ context.Context, q *Question) (Answer, error) { return q.DefaultAnswer(), nil }

// ---------------------------------------------------------------------
// Scripted: canned answers for tests and demo scripts.

// Scripted replays pre-recorded answers, one queue per kind of
// question; when a queue runs out it answers with the question's
// default. It implements the volunteer-user scripts of the
// demonstration scenario. A Scripted interactor carries per-dialogue
// cursors and therefore serves exactly one translation at a time; build
// a fresh one per request under concurrency.
type Scripted struct {
	// IXAnswers holds one []bool per IX verification.
	IXAnswers [][]bool
	// DisambiguationAnswers holds the chosen index per disambiguation.
	DisambiguationAnswers []int
	// TopKAnswers answer integer number questions (top-k) and
	// ThresholdAnswers the others (support thresholds), in order.
	TopKAnswers      []int
	ThresholdAnswers []float64
	// ProjectionAnswers holds one []bool per projection question.
	ProjectionAnswers [][]bool

	ixi, disi, ki, thi, pri int
}

// Ask implements Interactor.
func (s *Scripted) Ask(_ context.Context, q *Question) (Answer, error) {
	switch q.Kind {
	case KindIXVerify:
		if flags, ok := pop(s.IXAnswers, &s.ixi); ok {
			return Answer{Accept: flags}, nil
		}
	case KindProjection:
		if flags, ok := pop(s.ProjectionAnswers, &s.pri); ok {
			return Answer{Accept: flags}, nil
		}
	case KindChoice:
		if c, ok := pop(s.DisambiguationAnswers, &s.disi); ok {
			return Answer{Choice: &c}, nil
		}
	case KindNumber:
		if q.Integer {
			if k, ok := pop(s.TopKAnswers, &s.ki); ok {
				n := float64(k)
				return Answer{Number: &n}, nil
			}
		} else if th, ok := pop(s.ThresholdAnswers, &s.thi); ok {
			return Answer{Number: &th}, nil
		}
	}
	return q.DefaultAnswer(), nil
}

// pop returns the queue's next entry and advances its cursor; ok is
// false once the queue is exhausted.
func pop[T any](queue []T, i *int) (v T, ok bool) {
	if *i >= len(queue) {
		return v, false
	}
	v = queue[*i]
	*i++
	return v, true
}

// ---------------------------------------------------------------------
// Console: interactive prompts over an io stream (the CLI front end).

// Console prompts the user on W and reads answers from R, mirroring the
// web UI dialogues of Figures 3–6 in plain text: it prints the
// question's Prompt and parses the reply by the question's kind, an
// empty line taking the default. Reads run on a dedicated goroutine so
// every prompt honors its context: cancelling (Ctrl-C, timeout)
// unblocks the dialogue immediately with ctx.Err(). The underlying read
// itself is not interruptible — an abandoned read keeps running until
// the next line or EOF arrives on R, and its line is discarded; for
// stdin this is moot because the process is exiting.
type Console struct {
	R io.Reader
	W io.Writer

	once  sync.Once
	lines chan lineRead
}

// lineRead is one reader-goroutine result.
type lineRead struct {
	line string
	err  error
}

// start launches the reader goroutine on first use. It reads at most one
// line ahead (the channel is unbuffered) and exits on read error/EOF.
func (c *Console) start() {
	c.once.Do(func() {
		c.lines = make(chan lineRead)
		go func() {
			br := bufio.NewReader(c.R)
			for {
				line, err := br.ReadString('\n')
				if err != nil && line == "" {
					c.lines <- lineRead{"", err}
					return
				}
				c.lines <- lineRead{strings.TrimSpace(line), nil}
				if err != nil {
					return
				}
			}
		}()
	})
}

// prompt prints the prompt text and reads one reply line.
func (c *Console) prompt(ctx context.Context, text string) (string, error) {
	fmt.Fprint(c.W, text)
	c.start()
	select {
	case r := <-c.lines:
		if r.err != nil {
			return "", fmt.Errorf("interact: reading answer: %w", r.err)
		}
		return r.line, nil
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// Ask implements Interactor.
func (c *Console) Ask(ctx context.Context, q *Question) (Answer, error) {
	switch q.Kind {
	case KindIXVerify, KindProjection:
		fmt.Fprintln(c.W, q.Prompt)
		var items []string
		for i, sp := range q.Spans {
			items = append(items, fmt.Sprintf("  [%d] %q (%s individuality) — ask the crowd? [Y/n] ", i+1, sp.Text, sp.Type))
		}
		for _, v := range q.Vars {
			items = append(items, fmt.Sprintf("  $%s (%q) — include? [Y/n] ", v.Var, v.Phrase))
		}
		flags := make([]bool, len(items))
		for i, item := range items {
			line, err := c.prompt(ctx, item)
			if err != nil {
				return Answer{}, err
			}
			flags[i] = line == "" || strings.EqualFold(line, "y") || strings.EqualFold(line, "yes")
		}
		return Answer{Accept: flags}, nil
	case KindChoice:
		fmt.Fprintln(c.W, q.Prompt)
		for i, o := range q.Choices {
			fmt.Fprintf(c.W, "  [%d] %s — %s\n", i+1, o.Label, o.Description)
		}
		line, err := c.prompt(ctx, "Enter choice [1]: ")
		if err != nil {
			return Answer{}, err
		}
		if line == "" {
			return q.DefaultAnswer(), nil
		}
		n, err := strconv.Atoi(line)
		if err != nil {
			return Answer{}, fmt.Errorf("%w: choice %q is not a number", ErrBadAnswer, line)
		}
		n-- // the console numbers options from 1
		return Answer{Choice: &n}, nil
	case KindNumber:
		line, err := c.prompt(ctx, q.Prompt+" ["+q.formatNumber(q.Default)+"]: ")
		if err != nil {
			return Answer{}, err
		}
		if line == "" {
			return q.DefaultAnswer(), nil
		}
		n, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return Answer{}, fmt.Errorf("%w: %q is not a number", ErrBadAnswer, line)
		}
		return Answer{Number: &n}, nil
	}
	return Answer{}, fmt.Errorf("%w: unknown question kind %q", ErrBadAnswer, q.Kind)
}

// ---------------------------------------------------------------------
// Recorder: transcripts for the administrator mode.

// Exchange is one recorded question/answer pair.
type Exchange struct {
	Point    Point
	Question string
	Answer   string
}

// Recorder wraps an Interactor and records a transcript of every
// exchange whose answer passes the question's check; the admin-mode
// monitor displays it. Recording is mutex-guarded, so one Recorder may
// be shared by concurrent translations (provided Inner itself is
// concurrency-safe): exchanges from different dialogues interleave in
// arrival order, each appended atomically. Read the transcript with
// Transcript, which copies under the same lock; the exported Log field
// may only be accessed directly once every translation using the
// Recorder has returned.
type Recorder struct {
	Inner Interactor
	Log   []Exchange

	mu sync.Mutex
}

// Ask implements Interactor.
func (r *Recorder) Ask(ctx context.Context, q *Question) (Answer, error) {
	a, err := r.Inner.Ask(ctx, q)
	if err == nil {
		err = q.Check(a)
	}
	if err != nil {
		return Answer{}, err
	}
	ex := q.Exchange(a)
	r.mu.Lock()
	r.Log = append(r.Log, ex)
	r.mu.Unlock()
	return a, nil
}

// Transcript returns a copy of the exchanges recorded so far. It is safe
// to call while translations using this Recorder are still running.
func (r *Recorder) Transcript() []Exchange {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Exchange, len(r.Log))
	copy(out, r.Log)
	return out
}

// Interface checks.
var (
	_ Interactor = Auto{}
	_ Interactor = (*Scripted)(nil)
	_ Interactor = (*Console)(nil)
	_ Interactor = (*Recorder)(nil)
)
