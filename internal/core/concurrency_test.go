package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"nl2cm/internal/interact"
)

// TestTranslateConcurrentShared exercises the documented sharing model:
// many goroutines translating through one Translator, with the
// disambiguation dialogue enabled so every translation records feedback
// ("Buffalo" is ambiguous in the demo ontology). Run under -race this
// fails if Feedback — the only cross-request mutable state — is
// unguarded.
func TestTranslateConcurrentShared(t *testing.T) {
	tr := newTranslator()
	opt := Options{
		Interactor: interact.Auto{},
		Policy:     interact.Policy{Ask: map[interact.Point]bool{interact.PointDisambiguation: true}},
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				res, err := tr.Translate(context.Background(), "Where do you visit in Buffalo?", opt)
				if err != nil {
					errs <- err
					return
				}
				if res.Query == nil {
					errs <- errors.New("nil query")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Translate: %v", err)
	}
	recorded := false
	for _, c := range tr.Onto.View().Lookup("Buffalo") {
		if tr.Generator.Feedback.Boost("Buffalo", c.Term) > 0 {
			recorded = true
		}
	}
	if !recorded {
		t.Error("no disambiguation feedback accumulated across concurrent translations")
	}
}

// TestTranslatePreCancelled verifies that an already-cancelled context
// aborts before any work, with the failure attributed to the first
// stage and the cause visible to errors.Is.
func TestTranslatePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := newTranslator().Translate(ctx, runningExample, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled via errors.Is", err)
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T, want *StageError", err)
	}
	if se.Stage != StageVerification {
		t.Errorf("cancellation attributed to %q, want %q", se.Stage, StageVerification)
	}
}

// TestTranslateMidPipelineCancel cancels the context from an Observer
// callback at the end of the NL Parser stage; the next stage must
// observe it and report itself in the StageError.
func TestTranslateMidPipelineCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := ObserverFunc(func(stage string, d time.Duration, err error) {
		if stage == StageParser {
			cancel()
		}
	})
	_, err := newTranslator().Translate(ctx, runningExample, Options{Observer: obs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled via errors.Is", err)
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T, want *StageError", err)
	}
	if se.Stage != StageIXDetector {
		t.Errorf("cancellation attributed to %q, want %q", se.Stage, StageIXDetector)
	}
}

// TestObserverAndDurations checks that the Observer sees every stage in
// pipeline order with balanced start/end callbacks, and that the admin
// trace carries per-stage durations.
func TestObserverAndDurations(t *testing.T) {
	var started, ended []string
	obs := stageLog{started: &started, ended: &ended}
	res, err := newTranslator().Translate(context.Background(), runningExample, Options{Trace: true, Observer: obs})
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	want := []string{StageVerification, StageParser, StageIXDetector, StageIXVerify,
		StageGenerator, StageIndividual, StageComposer}
	if !equalStrings(started, want) || !equalStrings(ended, want) {
		t.Errorf("observer saw start=%v end=%v, want %v", started, ended, want)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace collected")
	}
	for _, s := range res.Trace {
		if s.Duration < 0 {
			t.Errorf("stage %q has negative duration %v", s.Module, s.Duration)
		}
	}
}

type stageLog struct {
	started, ended *[]string
}

func (l stageLog) StageStart(stage string) { *l.started = append(*l.started, stage) }
func (l stageLog) StageEnd(stage string, d time.Duration, err error) {
	*l.ended = append(*l.ended, stage)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
