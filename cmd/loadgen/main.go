// Command loadgen drives a running nl2cmd daemon with many concurrent
// client sessions and reports serving latency percentiles, throughput,
// shed rate and plan-cache effectiveness. It is the measurement side of
// the production-serving work: the numbers it prints (and optionally
// records as JSON) are the repo's in-repo latency records.
//
// Usage:
//
//	nl2cmd -addr :8080 &
//	loadgen -addr http://localhost:8080 -sessions 200 -requests 5000 -out BENCH_$(date +%F)_serving.json
//
// Each session loops over the supported demo-corpus questions, so after
// the first pass over a question shape the daemon's plan cache serves
// hits; loadgen splits latencies by the daemon's X-Plan-Cache header to
// show the cold-vs-cached gap directly.
//
// With -mutate-rate > 0, workers interleave POST /api/store write
// batches with the translation traffic. Every batch publishes a new
// store epoch; a cached plan survives it unless the batch changed one
// of the ontology reads the plan rests on, so this mode measures the
// epoch churn and the hit rate of the serving path under a mutating
// data plane. Its batches touch only Churn_* triples, which no question
// reads.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nl2cm"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "base URL of the nl2cmd daemon")
	sessions := flag.Int("sessions", 200, "concurrent client sessions")
	requests := flag.Int("requests", 5000, "total requests to issue")
	backend := flag.String("backend", "", "backend dialect to request (empty = default)")
	out := flag.String("out", "", "write the run record as JSON to this file")
	note := flag.String("note", "", "free-form note stored in the JSON record")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request client timeout")
	mutateRate := flag.Float64("mutate-rate", 0,
		"fraction of requests preceded by a store write batch (0 disables; each batch publishes a new data epoch)")
	flag.Parse()

	questions := corpusQuestions()
	if len(questions) == 0 {
		log.Fatal("no supported corpus questions to replay")
	}
	client := &http.Client{Timeout: *timeout}

	if err := waitReady(client, *addr); err != nil {
		log.Fatalf("daemon not reachable: %v", err)
	}
	before, _ := fetchStats(client, *addr)

	run := drive(client, *addr, questions, *backend, *sessions, *requests, *mutateRate)
	after, _ := fetchStats(client, *addr)
	run.MutateRate = *mutateRate
	run.finish(before, after)

	run.print(os.Stdout)
	if *out != "" {
		if err := run.writeJSON(*out, *note, *addr, *sessions, *backend); err != nil {
			log.Fatalf("write %s: %v", *out, err)
		}
		fmt.Printf("\nrecord written to %s\n", *out)
	}
	if run.Errors > 0 {
		os.Exit(1)
	}
}

// corpusQuestions returns the demo questions expected to translate;
// rejected ones would only measure the (cheap) verification path.
func corpusQuestions() []string {
	var qs []string
	for _, q := range nl2cm.Corpus() {
		if q.Supported {
			qs = append(qs, q.Text)
		}
	}
	return qs
}

// waitReady polls the daemon until it answers (10s budget), so loadgen
// can be started in the same breath as the daemon.
func waitReady(client *http.Client, addr string) error {
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var resp *http.Response
		resp, err = client.Get(addr + "/api/backends")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return err
}

// serverStats mirrors the daemon's /api/stats payload (loosely: only
// the fields loadgen reports on).
type serverStats struct {
	PlanCache *nl2cm.PlanCacheStats `json:"plan_cache"`
	Admission struct {
		Admitted int64 `json:"admitted"`
		Rejected int64 `json:"rejected"`
	} `json:"admission"`
	Store struct {
		Epoch   uint64 `json:"epoch"`
		Triples int    `json:"triples"`
	} `json:"store"`
}

func fetchStats(client *http.Client, addr string) (*serverStats, error) {
	resp, err := client.Get(addr + "/api/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// sample is one request's measurement: end-to-end latency as the
// client saw it, plus the daemon-reported translation wall-clock
// (X-Translate-Time), which excludes transport and JSON overhead.
type sample struct {
	latency   time.Duration
	translate time.Duration
	outcome   string // X-Plan-Cache header: miss, hit, rebound, bypass; or "429"/"error"
}

// runResult aggregates a whole run.
type runResult struct {
	Samples    []sample
	Elapsed    time.Duration
	Errors     int
	Shed       int
	ByOut      map[string][]time.Duration // end-to-end latency per outcome
	ByOutTr    map[string][]time.Duration // server translation time per outcome
	HitRate    float64                    // server-side, from /api/stats deltas
	ShedRate   float64
	MutateRate float64
	Mutations  int64  // store write batches issued
	MutErrors  int64  // store write batches that failed
	EpochChurn uint64 // store epochs published during the run
}

// drive issues the load: sessions workers pull request indices from a
// shared counter and replay the question list round-robin, so every
// shape goes cold exactly once and repeats afterwards. With mutateRate
// > 0, every k-th request (k ≈ 1/rate) is preceded by a store write
// batch, so store epochs churn while translations are in flight.
func drive(client *http.Client, addr string, questions []string, backend string, sessions, requests int, mutateRate float64) *runResult {
	var next atomic.Int64
	every := 0
	if mutateRate > 0 {
		every = int(1 / mutateRate)
		if every < 1 {
			every = 1
		}
	}
	samples := make([]sample, requests)
	res := &runResult{Samples: samples}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				if every > 0 && i%every == 0 {
					seq := atomic.AddInt64(&res.Mutations, 1) - 1
					if err := mutate(client, addr, seq); err != nil {
						atomic.AddInt64(&res.MutErrors, 1)
					}
				}
				samples[i] = issue(client, addr, questions[i%len(questions)], backend)
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// mutate posts one self-cleaning store batch: insert a unique churn
// triple and delete the previous one, so epochs advance without the
// store growing past one extra triple per in-flight mutator.
func mutate(client *http.Client, addr string, seq int64) error {
	const ns = "http://nl2cm.org/onto/"
	churn := func(n int64) string {
		return fmt.Sprintf("<%sChurn_%d> <%snear> <%sChurn_Hub> .", ns, n, ns, ns)
	}
	req := map[string]string{"insert": churn(seq)}
	if seq > 0 {
		req["delete"] = churn(seq - 1)
	}
	body, _ := json.Marshal(req)
	resp, err := client.Post(addr+"/api/store", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("store: status %d", resp.StatusCode)
	}
	return nil
}

// issue sends one translation request and classifies the response.
func issue(client *http.Client, addr, question, backend string) sample {
	body, _ := json.Marshal(map[string]string{"question": question, "backend": backend})
	t0 := time.Now()
	resp, err := client.Post(addr+"/api/translate", "application/json", bytes.NewReader(body))
	lat := time.Since(t0)
	if err != nil {
		return sample{latency: lat, outcome: "error"}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return sample{latency: lat, outcome: "429"}
	case resp.StatusCode != http.StatusOK:
		return sample{latency: lat, outcome: "error"}
	}
	outcome := resp.Header.Get("X-Plan-Cache")
	if outcome == "" {
		outcome = "bypass"
	}
	tr, _ := time.ParseDuration(resp.Header.Get("X-Translate-Time"))
	return sample{latency: lat, translate: tr, outcome: outcome}
}

// finish derives the aggregate views from the raw samples and the
// server-side counter deltas.
func (r *runResult) finish(before, after *serverStats) {
	r.ByOut = map[string][]time.Duration{}
	r.ByOutTr = map[string][]time.Duration{}
	for _, s := range r.Samples {
		switch s.outcome {
		case "error":
			r.Errors++
		case "429":
			r.Shed++
		}
		r.ByOut[s.outcome] = append(r.ByOut[s.outcome], s.latency)
		if s.translate > 0 {
			r.ByOutTr[s.outcome] = append(r.ByOutTr[s.outcome], s.translate)
		}
	}
	if n := len(r.Samples); n > 0 {
		r.ShedRate = float64(r.Shed) / float64(n)
	}
	if before != nil && after != nil && before.PlanCache != nil && after.PlanCache != nil {
		hits := after.PlanCache.Hits - before.PlanCache.Hits
		misses := after.PlanCache.Misses - before.PlanCache.Misses
		if total := hits + misses; total > 0 {
			r.HitRate = float64(hits) / float64(total)
		}
	}
	if before != nil && after != nil && after.Store.Epoch > before.Store.Epoch {
		r.EpochChurn = after.Store.Epoch - before.Store.Epoch
	}
}

// percentile returns the pth percentile (0–100) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

func sortedLatencies(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// served returns the latencies of successfully served requests.
func (r *runResult) served() []time.Duration {
	var ds []time.Duration
	for _, s := range r.Samples {
		if s.outcome != "error" && s.outcome != "429" {
			ds = append(ds, s.latency)
		}
	}
	return ds
}

// coldMedian/cachedMedian split per-request measurements into
// pipeline-run (miss, bypass) and cache-served (hit, rebound) halves.
// They prefer the daemon-reported translation time (transport excluded)
// and fall back to end-to-end latency against daemons that predate the
// X-Translate-Time header.
func medianOf(by map[string][]time.Duration, outcomes ...string) time.Duration {
	var ds []time.Duration
	for _, o := range outcomes {
		ds = append(ds, by[o]...)
	}
	return percentile(sortedLatencies(ds), 50)
}

func (r *runResult) coldMedian() time.Duration {
	if d := medianOf(r.ByOutTr, "miss", "bypass"); d > 0 {
		return d
	}
	return medianOf(r.ByOut, "miss", "bypass")
}

func (r *runResult) cachedMedian() time.Duration {
	if d := medianOf(r.ByOutTr, "hit", "rebound"); d > 0 {
		return d
	}
	return medianOf(r.ByOut, "hit", "rebound")
}

func (r *runResult) print(w io.Writer) {
	served := sortedLatencies(r.served())
	fmt.Fprintf(w, "requests: %d in %v (%.0f req/s), %d errors, %d shed (%.1f%%)\n",
		len(r.Samples), r.Elapsed.Round(time.Millisecond),
		float64(len(served))/r.Elapsed.Seconds(), r.Errors, r.Shed, 100*r.ShedRate)
	fmt.Fprintf(w, "latency: p50 %v  p95 %v  p99 %v  max %v\n",
		percentile(served, 50), percentile(served, 95), percentile(served, 99), percentile(served, 100))
	var parts []string
	for _, o := range []string{"miss", "hit", "rebound", "bypass", "429", "error"} {
		if n := len(r.ByOut[o]); n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", o, n))
		}
	}
	fmt.Fprintf(w, "outcomes: %s\n", strings.Join(parts, " · "))
	if r.HitRate > 0 {
		fmt.Fprintf(w, "server-side cache hit rate: %.1f%%\n", 100*r.HitRate)
	}
	if r.Mutations > 0 || r.EpochChurn > 0 {
		fmt.Fprintf(w, "store churn: %d write batches (%d failed), %d epochs published\n",
			r.Mutations, r.MutErrors, r.EpochChurn)
	}
	cold, cached := r.coldMedian(), r.cachedMedian()
	if cold > 0 && cached > 0 {
		fmt.Fprintf(w, "median translation time: cold %v vs cached %v (%.1fx)\n",
			cold, cached, float64(cold)/float64(cached))
	}
}

// record is the JSON run record (the BENCH_<date>_serving.json shape).
type record struct {
	Date       string             `json:"date"`
	Note       string             `json:"note,omitempty"`
	Addr       string             `json:"addr"`
	Sessions   int                `json:"sessions"`
	Backend    string             `json:"backend,omitempty"`
	Requests   int                `json:"requests"`
	Errors     int                `json:"errors"`
	Shed       int                `json:"shed"`
	ElapsedMs  float64            `json:"elapsed_ms"`
	Throughput float64            `json:"throughput_rps"`
	LatencyMs  map[string]float64 `json:"latency_ms"`
	Outcomes   map[string]int     `json:"outcomes"`
	HitRate    float64            `json:"cache_hit_rate"`
	ColdP50Ms  float64            `json:"cold_p50_ms"`
	HitP50Ms   float64            `json:"cached_p50_ms"`
	Speedup    float64            `json:"cached_speedup"`
	MutateRate float64            `json:"mutate_rate,omitempty"`
	Mutations  int64              `json:"mutations,omitempty"`
	MutErrors  int64              `json:"mutation_errors,omitempty"`
	EpochChurn uint64             `json:"epoch_churn,omitempty"`
}

func (r *runResult) writeJSON(path, note, addr string, sessions int, backend string) error {
	served := sortedLatencies(r.served())
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rec := record{
		Date:       time.Now().Format("2006-01-02"),
		Note:       note,
		Addr:       addr,
		Sessions:   sessions,
		Backend:    backend,
		Requests:   len(r.Samples),
		Errors:     r.Errors,
		Shed:       r.Shed,
		ElapsedMs:  ms(r.Elapsed),
		Throughput: float64(len(served)) / r.Elapsed.Seconds(),
		LatencyMs: map[string]float64{
			"p50": ms(percentile(served, 50)),
			"p95": ms(percentile(served, 95)),
			"p99": ms(percentile(served, 99)),
			"max": ms(percentile(served, 100)),
		},
		Outcomes:   map[string]int{},
		HitRate:    r.HitRate,
		MutateRate: r.MutateRate,
		Mutations:  r.Mutations,
		MutErrors:  r.MutErrors,
		EpochChurn: r.EpochChurn,
	}
	for o, ds := range r.ByOut {
		rec.Outcomes[o] = len(ds)
	}
	cold, cached := r.coldMedian(), r.cachedMedian()
	rec.ColdP50Ms, rec.HitP50Ms = ms(cold), ms(cached)
	if cached > 0 {
		rec.Speedup = float64(cold) / float64(cached)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
