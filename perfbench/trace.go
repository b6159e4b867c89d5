package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"nl2cm"
)

// span is one timed call: a pipeline stage reported through the public
// Observer hooks (core.Options.Observer, crowd.Engine.Observer), or a
// call the benchmark itself wraps.
type span struct {
	name       string
	op         int32 // op sequence number within the traced stretch
	parent     int32 // index of the enclosing span; -1 for an op's root
	start, end time.Duration
	allocs     uint64 // heap objects allocated while the span was open
	// tracing is the tracer's own bookkeeping for child spans that fell
	// inside this span but outside every child: self time excludes it.
	tracing time.Duration
}

// tracer records spans in memory; the traced run writes them out at
// exit. All its methods are no-ops on a nil tracer, so untraced runs
// pay one nil check per call site. It implements nl2cm.Observer; the
// observer callbacks run on the calling goroutine, so the open-span
// stack needs no locking.
type tracer struct {
	base   time.Time
	spans  []span
	open   []int32
	op     int32
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	entered := time.Since(t.base)
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.op++
	}
	allocs := t.allocs()
	start := time.Since(t.base)
	if parent >= 0 {
		t.spans[parent].tracing += start - entered
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, allocs: allocs, start: start})
	t.open = append(t.open, int32(len(t.spans)-1))
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.end = time.Since(t.base)
	s.allocs = t.allocs() - s.allocs
	if s.parent >= 0 {
		t.spans[s.parent].tracing += time.Since(t.base) - s.end
	}
}

// StageStart implements nl2cm.Observer.
func (t *tracer) StageStart(stage string) { t.begin(stage) }

// StageEnd implements nl2cm.Observer.
func (t *tracer) StageEnd(string, time.Duration, error) { t.end() }

// layerOf maps span names to the module (layer) they time.
var layerOf = map[string]string{
	nl2cm.StageVerification: "verify",
	nl2cm.StageParser:       "nlp",
	nl2cm.StageIXDetector:   "ix",
	nl2cm.StageIXVerify:     "ix",
	nl2cm.StageGenerator:    "qgen",
	nl2cm.StageIndividual:   "individual",
	nl2cm.StageComposer:     "compose",
	nl2cm.StageEmitter:      "emit",
	"emit.Render":           "emit",
	nl2cm.StagePlanCache:    "qcache",
	nl2cm.StageCrowd:        "crowd.Execution",
}

// stageLayers are the pipeline modules reported per op, in Figure-2 order.
var stageLayers = []string{"verify", "nlp", "ix", "qgen", "individual", "compose", "emit"}

// layerTimes sums span time and allocations per layer, the self time of
// the benchmark's Translate spans (minus every span they enclose) and of
// the engine's Crowd Execution spans (minus their SATISFYING spans: the
// WHERE evaluation), and the coverage ratios the traced run checks.
type layerTimes struct {
	dur      map[string]time.Duration
	allocs   map[string]uint64
	calls    map[string]int
	coreSelf time.Duration
	where    time.Duration
	// translateCover is the share of Translate span time that pipeline
	// stage spans cover; executeCover the share of Execute span time the
	// engine's WHERE and SATISFYING work (its Crowd Execution span) covers.
	translateCover, executeCover float64
}

func (t *tracer) layers() layerTimes {
	lt := layerTimes{dur: map[string]time.Duration{}, allocs: map[string]uint64{}, calls: map[string]int{}}
	// child holds, per span, the time its children and the tracer's
	// bookkeeping for them cover.
	child := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		child[i] += s.tracing
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var translate, stages, execute, crowdExec time.Duration
	for i, s := range t.spans {
		d := s.end - s.start
		name := s.name
		if strings.HasPrefix(name, "SATISFYING") {
			name = "crowd.Satisfying"
		}
		layer, ok := layerOf[name]
		if !ok {
			layer = name
		}
		lt.dur[layer] += d
		lt.allocs[layer] += s.allocs
		lt.calls[layer]++
		switch s.name {
		case "core.Translate":
			translate += d - s.tracing
			lt.coreSelf += d - child[i]
		case "crowd.Execute":
			execute += d - s.tracing
		case nl2cm.StageCrowd:
			crowdExec += d
			lt.where += d - child[i]
		}
		if s.parent >= 0 && t.spans[s.parent].name == "core.Translate" && name != nl2cm.StagePlanCache {
			stages += d
		}
	}
	if translate > 0 {
		lt.translateCover = float64(stages) / float64(translate)
	}
	if execute > 0 {
		lt.executeCover = float64(crowdExec) / float64(execute)
	}
	return lt
}

// dump writes the spans as tab-separated rows: op, span, parent, name,
// start and end in ns since the traced stretch began, heap objects, and
// the tracer's own time inside the span.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tspan\tparent\tname\tstart_ns\tend_ns\tallocs\ttracing_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n", s.op, i, s.parent, s.name, s.start, s.end, s.allocs, s.tracing)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
