// Command perfbench is NL2CM's benchmark. One closed-loop client — a
// user who waits for each reply — drives a seeded op list in-process
// through the calls cmd/nl2cmd's handlers make (Translator.Translate,
// Engine.Execute, ShardedStore.Apply), checks every output, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of
// a separate traced stretch). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root (it reads testdata/ there):
//
//	bash perfbench/run.sh --workload translate-cold --seed 1 --seconds 10 --trace 0
//
// Workloads: translate-cold, serve-hot, serve-write, execute-crowd; see
// BENCHMARK.json for why each exists and which layers it exercises.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times an untraced run sets the workload up;
// setup_s is their median. The timed stretch uses the last set-up made
// before it; the rest follow it, so that the median samples the machine
// over the whole run rather than its first seconds.
const setupRuns = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: translate-cold, serve-hot, serve-write or execute-crowd")
	seed := flag.Int64("seed", 1, "seed the op list is generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed stretch")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced stretch instead of end-to-end metrics")
	root := flag.String("root", ".", "repository root (holds testdata/)")
	spans := flag.String("spans", "spans", "directory traced runs write their spans to")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *root, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, root, spanDir string) error {
	var setups []float64
	setUp := func() (*bench, error) {
		// Collect the previous set-up's garbage first, so that each
		// set-up starts from the same heap.
		runtime.GC()
		t0 := time.Now()
		b, err := setup(workload, seed, root)
		setups = append(setups, time.Since(t0).Seconds())
		return b, err
	}
	var b *bench
	for len(setups) <= setupRuns/2 {
		b = nil
		var err error
		if b, err = setUp(); err != nil {
			return err
		}
	}
	lat, err := latencyBuffer()
	if err != nil {
		return err
	}
	limit := time.Duration(seconds * float64(time.Second))
	out := result{Metrics: map[string]metric{}}
	var p phase
	failed := 0
	var firstErr error
	runtime.GC()
	if !traced {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		p = b.runPhase(limit, 0, lat)
		rss, err := peakRSS()
		if err != nil {
			return err
		}
		for len(setups) < setupRuns {
			if _, err := setUp(); err != nil {
				return err
			}
		}
		endToEnd(out.Metrics, p, median(setups), rss)
	} else {
		// Half the stretch untraced, half traced: the difference is the
		// tracing overhead. The per-layer tallies cover the traced half.
		plain := b.runPhase(limit/2, 0, lat)
		plainMean := meanMs(plain.lat)
		failed, firstErr = b.stats.failed, b.stats.firstErr
		b.stats = newStats()
		b.tracer = newTracer()
		b.obs = b.tracer
		b.eng.Observer = b.tracer
		p = b.runPhase(limit/2, 0, lat)
		lt := b.tracer.layers()
		perLayer(out.Metrics, b, p, lt, plainMean)
		fmt.Printf("untraced ops %d timed %.3fs; traced stretch below\n", plain.ops, plain.elapsed.Seconds())
		fmt.Printf("coverage translate %.4f execute %.4f\n", lt.translateCover, lt.executeCover)
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.tsv", workload, seed))
		if err := b.tracer.dump(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		if err := coverageCheck(workload, lt); err != nil {
			return err
		}
		out.Attempted = plain.ops
	}
	out.Attempted += p.ops
	out.Failed = failed + b.stats.failed
	out.Correct = out.Failed == 0
	report(b, p, out)
	if firstErr == nil {
		firstErr = b.stats.firstErr
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed op:", firstErr)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd fills the user-visible metrics of an untraced stretch.
func endToEnd(m map[string]metric, p phase, setup, rss float64) {
	m["setup_s"] = metric{setup, "s"}
	m["latency_p50_ms"] = metric{quantile(p.lat, 0.50), "ms"}
	m["latency_p99_ms"] = metric{quantile(p.lat, 0.99), "ms"}
	m["throughput_ops"] = metric{float64(p.ops) / p.elapsed.Seconds(), "1/s"}
	m["allocs_per_op"] = metric{float64(p.mallocs) / float64(p.ops), "count"}
	m["alloc_bytes_per_op"] = metric{float64(p.bytes) / float64(p.ops), "B"}
	m["rss_peak_mb"] = metric{rss, "MB"}
}

// perLayer fills the per-layer metrics of a traced stretch.
func perLayer(m map[string]metric, b *bench, p phase, lt layerTimes, plainMean float64) {
	ops := float64(p.ops)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	perCall := func(layer string) float64 {
		if lt.calls[layer] == 0 {
			return 0
		}
		return us(lt.dur[layer]) / float64(lt.calls[layer])
	}
	for _, l := range stageLayers {
		m[l+".us_per_op"] = metric{us(lt.dur[l]) / ops, "us"}
		m[l+".allocs_per_op"] = metric{float64(lt.allocs[l]) / ops, "count"}
	}
	m["core.self_us_per_op"] = metric{us(lt.coreSelf) / ops, "us"}
	m["qcache.us_per_op"] = metric{us(lt.dur["qcache"]) / ops, "us"}
	st := b.stats
	share := func(outcome string) float64 {
		if st.translates == 0 {
			return 0
		}
		return float64(st.outcomes[outcome]) / float64(st.translates)
	}
	m["qcache.hit_share"] = metric{share("hit"), "ratio"}
	m["qcache.rebound_share"] = metric{share("rebound"), "ratio"}
	m["qcache.miss_share"] = metric{share("miss"), "ratio"}
	m["rdf.apply_us_per_call"] = metric{perCall("rdf.Apply"), "us"}
	m["rdf.epochs"] = metric{float64(p.epochs), "count"}
	m["ontology.rebuild_us_per_call"] = metric{perCall("ontology.Rebuild"), "us"}
	m["sparql.where_us_per_op"] = metric{us(lt.where) / ops, "us"}
	m["sparql.where_rows_per_op"] = metric{float64(st.whereRows) / ops, "count"}
	m["crowd.satisfying_us_per_op"] = metric{us(lt.dur["crowd.Satisfying"]) / ops, "us"}
	m["crowd.tasks_per_op"] = metric{float64(st.tasks) / ops, "count"}
	hitRatio := 0.0
	if p.hits+p.misses > 0 {
		hitRatio = float64(p.hits) / float64(p.hits+p.misses)
	}
	m["crowd.support_hit_ratio"] = metric{hitRatio, "ratio"}
	m["crowd.answers_per_op"] = metric{float64(p.answers) / ops, "count"}
	m["runtime.gc_cycles_per_kop"] = metric{float64(p.gcs) * 1000 / ops, "count"}
	m["runtime.gc_pause_us_per_op"] = metric{float64(p.gcPause) / 1000 / ops, "us"}
	m["trace.overhead_pct"] = metric{(meanMs(p.lat)/plainMean - 1) * 100, "%"}
}

// coverageCheck fails the traced run when the public hooks stop seeing
// the work: pipeline stages must cover 90% of Translate on
// translate-cold, and the engine's WHERE and SATISFYING work 90% of
// Execute on execute-crowd.
func coverageCheck(workload string, lt layerTimes) error {
	switch {
	case workload == wTranslateCold && lt.translateCover < 0.9:
		return fmt.Errorf("coverage check failed: stage spans cover %.1f%% of Translate, want at least 90%%", lt.translateCover*100)
	case workload == wExecuteCrowd && lt.executeCover < 0.9:
		return fmt.Errorf("coverage check failed: WHERE and SATISFYING spans cover %.1f%% of Execute, want at least 90%%", lt.executeCover*100)
	}
	return nil
}

// report prints the human-readable lines: the run's op counts, every
// metric with its unit, and the input properties later claims can cite.
func report(b *bench, p phase, out result) {
	st := b.stats
	fmt.Printf("workload %s ops %d timed %.3fs\n", b.name, p.ops, p.elapsed.Seconds())
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s %v %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	fmt.Printf("metric fail_ratio %v ratio (%d of %d ops attempted)\n", float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	fmt.Printf("metric crowd_answers_per_op %v count\n", float64(p.answers)/float64(p.ops))
	shapes, variants := b.shapes()
	fmt.Printf("input distinct_shapes %d variants %d unsound_variants_left_out %d items %d op_list %d\n",
		shapes, variants, b.unsound, len(b.items), len(b.ops))
	if st.translates > 0 {
		fmt.Printf("input cache_outcomes hit %.4f rebound %.4f miss %.4f bypass %.4f (of %d translations)\n",
			frac(st.outcomes["hit"], st.translates), frac(st.outcomes["rebound"], st.translates),
			frac(st.outcomes["miss"], st.translates), frac(st.outcomes["bypass"], st.translates), st.translates)
		fmt.Printf("input rejected_share %.4f\n", frac(st.rejected, st.translates))
	}
	fmt.Printf("input write_share %.4f\n", frac(st.writes, p.ops))
	if text, share := b.heaviest(p); text != "" {
		fmt.Printf("input heaviest_share %.4f %q\n", share, text)
	}
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// resetPeakRSS sets the process's peak resident set size back to its
// current one, so that rss_peak_mb measures the timed stretch rather
// than set-up.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSS returns the process's peak resident set size since the last
// resetPeakRSS, in MB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}
