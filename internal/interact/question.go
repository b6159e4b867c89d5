package interact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind is the shape of a question, which determines the Answer fields
// that apply.
type Kind string

// Question kinds.
const (
	// KindIXVerify asks one accept flag per Question.Spans entry
	// (Answer.Accept), the Figure-4 verification.
	KindIXVerify Kind = "ix-verify"
	// KindChoice asks for the index of one of Question.Choices
	// (Answer.Choice), the "Buffalo, NY vs Buffalo, IL" disambiguation.
	KindChoice Kind = "choice"
	// KindNumber asks for a numeric value (Answer.Number) with a default
	// and bounds: LIMIT/SUPPORT selection, Figure 5.
	KindNumber Kind = "number"
	// KindProjection asks one keep flag per Question.Vars entry
	// (Answer.Accept), the Figure-6 projection dialogue.
	KindProjection Kind = "projection"
)

// Question is one dialogue question, typed by Kind. The five asking
// functions below build every question the pipeline poses; it is
// JSON-serializable for the session REST protocol.
type Question struct {
	// Point is the interaction point that asks.
	Point Point `json:"-"`
	// Kind selects which answer fields apply.
	Kind Kind `json:"kind"`
	// Prompt is the human-readable question text.
	Prompt string `json:"prompt"`
	// Subject is what is being asked about: the NL question for
	// ix-verify, the ambiguous phrase for choice, the subclause
	// description for number.
	Subject string `json:"subject,omitempty"`
	// Spans are the detected IXs to verify (KindIXVerify).
	Spans []IXSpan `json:"spans,omitempty"`
	// Choices are the candidate meanings (KindChoice).
	Choices []Choice `json:"choices,omitempty"`
	// Vars are the projectable variables (KindProjection).
	Vars []VarChoice `json:"vars,omitempty"`
	// Default, Min, Max and Integer describe a KindNumber question.
	// Max 0 means unbounded.
	Default float64 `json:"default,omitempty"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	Integer bool    `json:"integer,omitempty"`
}

// Answer is a reply to a Question. Exactly the fields matching the
// question's Kind must be set; pointer fields distinguish "absent" from
// zero values so a malformed answer fails loudly instead of silently
// picking index 0.
type Answer struct {
	// Accept holds one flag per span (ix-verify) or per var (projection).
	Accept []bool `json:"accept,omitempty"`
	// Choice is the chosen option index (choice).
	Choice *int `json:"choice,omitempty"`
	// Number is the selected value (number).
	Number *float64 `json:"number,omitempty"`
}

// ErrBadAnswer reports an answer that does not fit its question: the
// wrong number of flags, a missing field, an out-of-range choice, or a
// number that is not finite, not an integer where one is asked for, or
// outside the question's bounds.
var ErrBadAnswer = errors.New("interact: invalid answer")

// maxInteger bounds integer answers: every integer up to it is exact in
// a float64 and fits an int, so a checked answer converts exactly.
const maxInteger = min(1<<53, math.MaxInt)

// Check reports, wrapping ErrBadAnswer, whether the answer fits the
// question. It is the one answer check: the asking functions run it on
// every answer before the pipeline sees it.
func (q *Question) Check(a Answer) error {
	switch q.Kind {
	case KindIXVerify:
		if len(a.Accept) != len(q.Spans) {
			return fmt.Errorf("%w: %d accept flags for %d spans", ErrBadAnswer, len(a.Accept), len(q.Spans))
		}
	case KindProjection:
		if len(a.Accept) != len(q.Vars) {
			return fmt.Errorf("%w: %d accept flags for %d variables", ErrBadAnswer, len(a.Accept), len(q.Vars))
		}
	case KindChoice:
		if a.Choice == nil {
			return fmt.Errorf("%w: missing \"choice\"", ErrBadAnswer)
		}
		if *a.Choice < 0 || *a.Choice >= len(q.Choices) {
			return fmt.Errorf("%w: choice %d out of range (%d options)", ErrBadAnswer, *a.Choice, len(q.Choices))
		}
	case KindNumber:
		if a.Number == nil {
			return fmt.Errorf("%w: missing \"number\"", ErrBadAnswer)
		}
		n := *a.Number
		if math.IsNaN(n) || math.IsInf(n, 0) {
			return fmt.Errorf("%w: %g is not a finite number", ErrBadAnswer, n)
		}
		if q.Integer && (n != math.Trunc(n) || math.Abs(n) > maxInteger) {
			return fmt.Errorf("%w: %g is not an integer", ErrBadAnswer, n)
		}
		if n < q.Min || (q.Max > 0 && n > q.Max) {
			return fmt.Errorf("%w: %g outside [%g, %g]", ErrBadAnswer, n, q.Min, q.Max)
		}
	default:
		return fmt.Errorf("%w: unknown question kind %q", ErrBadAnswer, q.Kind)
	}
	return nil
}

// DefaultAnswer is the answer of the automatic mode, given when a point
// is not asked about interactively or a dialogue times out: accept every
// span, keep every variable, take the top-ranked meaning, keep the
// default number.
func (q *Question) DefaultAnswer() Answer {
	switch q.Kind {
	case KindIXVerify:
		return Answer{Accept: allTrue(len(q.Spans))}
	case KindProjection:
		return Answer{Accept: allTrue(len(q.Vars))}
	case KindChoice:
		c := 0
		return Answer{Choice: &c}
	case KindNumber:
		n := q.Default
		return Answer{Number: &n}
	}
	return Answer{}
}

func allTrue(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

// Exchange renders a checked answer together with its question as one
// transcript entry: the form both the administrator-mode Recorder and
// the session transcript show.
func (q *Question) Exchange(a Answer) Exchange {
	ex := Exchange{Point: q.Point}
	switch q.Kind {
	case KindIXVerify:
		items := make([]string, len(q.Spans))
		for i, sp := range q.Spans {
			items[i] = fmt.Sprintf("%q(%s)", sp.Text, sp.Type)
		}
		ex.Question = "verify IXs: " + strings.Join(items, ", ")
		ex.Answer = renderFlags(a.Accept)
	case KindProjection:
		items := make([]string, len(q.Vars))
		for i, v := range q.Vars {
			items[i] = "$" + v.Var
		}
		ex.Question = "project " + strings.Join(items, ", ")
		ex.Answer = renderFlags(a.Accept)
	case KindChoice:
		labels := make([]string, len(q.Choices))
		for i, o := range q.Choices {
			labels[i] = o.Label + " (" + o.Description + ")"
		}
		ex.Question = fmt.Sprintf("disambiguate %q among [%s]", q.Subject, strings.Join(labels, "; "))
		ex.Answer = labels[*a.Choice]
	case KindNumber:
		what := "threshold"
		if q.Integer {
			what = "top-k"
		}
		ex.Question = fmt.Sprintf("%s for %s (default %s)", what, q.Subject, q.formatNumber(q.Default))
		ex.Answer = q.formatNumber(*a.Number)
	}
	return ex
}

// formatNumber renders a number of the question: integers in full,
// other values in their shortest form.
func (q *Question) formatNumber(n float64) string {
	if q.Integer {
		return strconv.FormatFloat(n, 'f', -1, 64)
	}
	return strconv.FormatFloat(n, 'g', -1, 64)
}

func renderFlags(flags []bool) string {
	parts := make([]string, len(flags))
	for i, f := range flags {
		parts[i] = strconv.FormatBool(f)
	}
	return strings.Join(parts, ", ")
}

// ask poses the question through in (Auto when nil) and checks the
// answer, so the pipeline only ever sees an answer that fits.
func ask(ctx context.Context, in Interactor, q *Question) (Answer, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	if in == nil {
		in = Auto{}
	}
	a, err := in.Ask(ctx, q)
	if err == nil {
		err = q.Check(a)
	}
	if err != nil {
		return Answer{}, err
	}
	return a, nil
}

// VerifyIXs asks which detected IXs really are individual (Figure 4);
// it returns one accept flag per span.
func VerifyIXs(ctx context.Context, in Interactor, question string, spans []IXSpan) ([]bool, error) {
	a, err := ask(ctx, in, &Question{
		Point:   PointIXVerification,
		Kind:    KindIXVerify,
		Prompt:  "Please verify: which parts of your question should be asked to the crowd?",
		Subject: question,
		Spans:   spans,
	})
	return a.Accept, err
}

// Disambiguate asks which candidate meaning of a phrase was meant; it
// returns the chosen index.
func Disambiguate(ctx context.Context, in Interactor, phrase string, options []Choice) (int, error) {
	a, err := ask(ctx, in, &Question{
		Point:   PointDisambiguation,
		Kind:    KindChoice,
		Prompt:  fmt.Sprintf("Which %q did you mean?", phrase),
		Subject: phrase,
		Choices: options,
	})
	if err != nil {
		return -1, err
	}
	return *a.Choice, nil
}

// SelectTopK asks for the k of a top-k significance selection
// (Figure 5); def is the administrator's default.
func SelectTopK(ctx context.Context, in Interactor, description string, def int) (int, error) {
	a, err := ask(ctx, in, &Question{
		Point:   PointSignificance,
		Kind:    KindNumber,
		Prompt:  fmt.Sprintf("How many results for %s?", description),
		Subject: description,
		Default: float64(def),
		Min:     1,
		Integer: true,
	})
	if err != nil {
		return 0, err
	}
	return int(*a.Number), nil
}

// SelectThreshold asks for a minimal support threshold in [0,1]
// (Figure 5); def is the administrator's default.
func SelectThreshold(ctx context.Context, in Interactor, description string, def float64) (float64, error) {
	a, err := ask(ctx, in, &Question{
		Point:   PointSignificance,
		Kind:    KindNumber,
		Prompt:  fmt.Sprintf("Minimal frequency for %s, between 0 and 1?", description),
		Subject: description,
		Default: def,
		Min:     0,
		Max:     1,
	})
	if err != nil {
		return 0, err
	}
	return *a.Number, nil
}

// SelectProjection asks which variables to return bindings for; it
// returns one keep flag per choice.
func SelectProjection(ctx context.Context, in Interactor, choices []VarChoice) ([]bool, error) {
	a, err := ask(ctx, in, &Question{
		Point:  PointProjection,
		Kind:   KindProjection,
		Prompt: "For which terms do you want to receive instances?",
		Vars:   choices,
	})
	return a.Accept, err
}
