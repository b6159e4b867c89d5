// Command nl2cmd serves the NL2CM web UI: a text field for NL questions
// (paper Figure 3), highlighted IX verification (Figure 4), significance
// selection (Figure 5), the final query display (Figure 6), and the
// administrator-mode monitor showing every module's intermediate output.
//
// Usage:
//
//	nl2cmd [-addr :8080] [-timeout 30s] [-crowd-size 100] [-crowd-seed 7] [-crowd-scale]
//
// Requests are served concurrently: the Translator and the crowd Engine
// are safe for concurrent use, so no lock is held across a translation
// or an execution. Each request is bounded by its own context (the
// client's, plus -timeout); a translation whose client disconnects is
// cancelled mid-pipeline, and a crowd evaluation is cancelled between
// task batches. The admin page shows the last translation's trace plus
// the crowd engine's metrics (tasks, per-subclause wall-clock,
// support-cache hits).
//
// Interactive dialogue sessions (paper Figures 3–6 as a protocol) are
// served by the session endpoints: a translation parks at each
// interaction point and a remote client drives it by polling and
// posting answers. Accepted disambiguation answers accumulate in the
// shared feedback store, which -feedback persists across restarts
// (periodic flush plus an atomic write on shutdown).
//
// Inputs are bounded: every POST body is capped (64 KiB, or 4 MiB for an
// /api/store batch) and answered with 413 past the cap, and a question
// longer than 1 KiB is refused with 400 before it reaches the translator
// or the session manager.
//
// Endpoints:
//
//	GET    /                      the question form
//	POST   /translate             translate a question (form fields "q", optional "backend")
//	POST   /execute               translate and run on the simulated crowd
//	GET    /admin                 admin trace, engine and session metrics
//	GET    /corpus                the demo question corpus, one-click translation
//	POST   /api/translate         JSON API: {"question": "...", "backend": "sql"}
//	POST   /api/store             apply an N-Triples insert/delete batch to the knowledge store
//	GET    /api/stats             plan-cache, admission, session, crowd and store counters
//	GET    /api/backends          the backend dialects and their capabilities
//	POST   /api/session           start a dialogue session
//	GET    /api/session/{id}      poll a session
//	POST   /api/session/{id}/answer  answer its pending question
//	DELETE /api/session/{id}      abort a session
//	GET    /dialogue              the clickable dialogue page
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"html/template"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"nl2cm"
	"nl2cm/internal/interact"
	"nl2cm/internal/ix"
	"nl2cm/internal/qgen"
	"nl2cm/internal/session"
)

// server shares one Translator and one Engine across requests. Both are
// safe for concurrent use; the mutex guards only the admin-mode `last`
// trace snapshot — it is never held across a translation, so requests
// proceed in parallel.
type server struct {
	tr      *nl2cm.Translator
	eng     *nl2cm.Engine
	timeout time.Duration

	// adm is the admission limiter in front of every translation-serving
	// endpoint (see admission.go).
	adm *admission

	// sess owns the interactive dialogue sessions; answerWait bounds how
	// long a start/answer request blocks waiting for the next question,
	// and feedbackPath (when set) is where the disambiguation feedback
	// store persists.
	sess         *session.Manager
	answerWait   time.Duration
	feedbackPath string

	// ixStats tallies per-pattern IX matches and the matched span text of
	// recent translations for the admin page; the detector records into it.
	ixStats *ix.MatchStats

	mu       sync.Mutex // guards last and lastExec only
	last     *nl2cm.Result
	lastExec *engineStats
}

// Admission-control defaults (the -max-inflight and -queue-depth
// flags). 64 concurrent translations saturate typical hosts while the
// 256-deep queue absorbs bursts a few seconds long; beyond it, load is
// shed with 429.
const (
	defaultMaxInflight = 64
	defaultQueueDepth  = 256
	defaultPlanCache   = 1024
)

// Input limits. A question is one sentence (the longest corpus question
// is under 100 bytes), and translation cost grows about quadratically
// with its length, so longer ones are refused with 400 before they reach
// the translator or the session manager. Request bodies are capped, with
// 413 past the cap: a small cap for questions, answers and forms, a
// larger one for N-Triples batches.
const (
	maxQuestionBytes  = 1 << 10
	maxBodyBytes      = 64 << 10
	maxStoreBodyBytes = 4 << 20
)

// serverConfig collects the daemon's tunables (one field per flag).
type serverConfig struct {
	timeout         time.Duration
	feedback        string
	sessions        int
	sessionTTL      time.Duration
	questionTimeout time.Duration
	answerWait      time.Duration

	// planCache is the plan cache capacity in shapes (0 disables the
	// cache entirely; negative means DefaultCapacity).
	planCache int
	// maxInflight / queueDepth parameterize the admission limiter.
	maxInflight int
	queueDepth  int

	// crowdSize / crowdSeed configure the simulated crowd (defaults: the
	// demo crowd, 100 members, seed 7); crowdScale decides crowd tasks by
	// sequential sampling (Engine.Scale).
	crowdSize  int
	crowdSeed  int64
	crowdScale bool
}

// newServer builds the shared translator, engine and session manager,
// loading the persisted feedback store when configured.
func newServer(cfg serverConfig) (*server, error) {
	onto := nl2cm.DemoOntology()
	tr := nl2cm.NewTranslator(onto)
	if cfg.feedback != "" {
		f, err := qgen.LoadFeedback(cfg.feedback)
		if err != nil {
			return nil, err
		}
		tr.Generator.Feedback = f
	}
	if cfg.answerWait <= 0 {
		cfg.answerWait = 2 * time.Second
	}
	if cfg.planCache != 0 {
		tr.Cache = nl2cm.NewPlanCache(cfg.planCache)
	}
	if cfg.crowdSize <= 0 {
		cfg.crowdSize = 100
	}
	if cfg.crowdSeed == 0 {
		cfg.crowdSeed = 7
	}
	c := nl2cm.NewCrowd(cfg.crowdSize, cfg.crowdSeed)
	c.Truth = nl2cm.DemoTruth()
	eng := nl2cm.NewEngine(onto, c)
	if cfg.crowdScale {
		x, err := nl2cm.NewScaleExecutor(c, nl2cm.ScaleConfig{})
		if err != nil {
			return nil, err
		}
		eng.Scale = x
	}
	s := &server{
		tr:           tr,
		eng:          eng,
		timeout:      cfg.timeout,
		adm:          newAdmission(cfg.maxInflight, cfg.queueDepth),
		answerWait:   cfg.answerWait,
		feedbackPath: cfg.feedback,
		ixStats:      ix.NewMatchStats(10),
	}
	tr.Detector.Stats = s.ixStats
	s.sess = session.NewManager(session.Config{
		Translator:      tr,
		Capacity:        cfg.sessions,
		TTL:             cfg.sessionTTL,
		QuestionTimeout: cfg.questionTimeout,
		Trace:           true,
		OnDone:          s.sessionDone,
	})
	return s, nil
}

// sessionDone snapshots a finished dialogue's result for the admin
// trace, like single-shot translations do.
func (s *server) sessionDone(sess *session.Session) {
	snap := sess.Snapshot()
	if snap.Result != nil {
		s.mu.Lock()
		s.last = snap.Result
		s.mu.Unlock()
	}
}

// close releases server-owned resources: the dialogue sessions.
func (s *server) close() {
	s.sess.Close()
}

// saveFeedback persists the learned disambiguation feedback; Save is an
// atomic replace, so readers of the file never see a truncated store.
func (s *server) saveFeedback() {
	if s.feedbackPath == "" {
		return
	}
	if err := s.tr.Generator.Feedback.Save(s.feedbackPath); err != nil {
		log.Printf("feedback save: %v", err)
	}
}

// engineStats is the admin-page snapshot of the last crowd execution:
// per-subclause wall-clock, tasks issued, and support-cache outcomes.
type engineStats struct {
	Question    string
	Tasks       int
	CacheHits   int
	CacheMisses int
	Elapsed     time.Duration
	Subclauses  []subclauseStat
}

type subclauseStat struct {
	Index    int
	Tasks    int
	Duration time.Duration
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request translation timeout (0 = none)")
	feedback := flag.String("feedback", "", "disambiguation feedback store path (loaded at start, persisted on shutdown and each -feedback-flush)")
	flush := flag.Duration("feedback-flush", 30*time.Second, "feedback persistence interval (0 = shutdown only)")
	sessions := flag.Int("sessions", session.DefaultCapacity, "max live dialogue sessions (oldest-idle evicted beyond)")
	sessionTTL := flag.Duration("session-ttl", session.DefaultTTL, "dialogue session lifetime")
	questionTimeout := flag.Duration("question-timeout", session.DefaultQuestionTimeout, "per-question deadline before the automatic answer applies")
	planCache := flag.Int("plan-cache", defaultPlanCache, "plan cache capacity in question shapes (0 disables caching)")
	maxInflight := flag.Int("max-inflight", defaultMaxInflight, "max concurrent translations before requests queue")
	queueDepth := flag.Int("queue-depth", defaultQueueDepth, "max requests queued for a translation slot before 429s")
	crowdSize := flag.Int("crowd-size", 100, "simulated crowd population size")
	crowdSeed := flag.Int64("crowd-seed", 7, "simulated crowd seed")
	crowdScale := flag.Bool("crowd-scale", false, "stream crowd tasks through the sequential-sampling executor (early termination)")
	flag.Parse()
	s, err := newServer(serverConfig{
		timeout:         *timeout,
		feedback:        *feedback,
		sessions:        *sessions,
		sessionTTL:      *sessionTTL,
		questionTimeout: *questionTimeout,
		planCache:       *planCache,
		maxInflight:     *maxInflight,
		queueDepth:      *queueDepth,
		crowdSize:       *crowdSize,
		crowdSeed:       *crowdSeed,
		crowdScale:      *crowdScale,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Addr:         *addr,
		Handler:      s.routes(),
		ReadTimeout:  10 * time.Second,
		WriteTimeout: *timeout + 10*time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	if *feedback != "" && *flush > 0 {
		go func() {
			t := time.NewTicker(*flush)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					s.saveFeedback()
				}
			}
		}()
	}
	log.Printf("nl2cmd listening on %s", *addr)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("nl2cmd shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	s.close()
	s.saveFeedback()
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", s.home)
	mux.HandleFunc("POST /translate", limitBody(maxBodyBytes, s.admit(s.translate)))
	mux.HandleFunc("POST /execute", limitBody(maxBodyBytes, s.admit(s.execute)))
	mux.HandleFunc("GET /admin", s.admin)
	mux.HandleFunc("GET /corpus", s.corpus)
	mux.HandleFunc("POST /api/translate", limitBody(maxBodyBytes, s.admit(s.apiTranslate)))
	mux.HandleFunc("POST /api/store", limitBody(maxStoreBodyBytes, s.apiStore))
	mux.HandleFunc("GET /api/backends", s.apiBackends)
	mux.HandleFunc("GET /api/stats", s.apiStats)
	mux.HandleFunc("POST /api/session", limitBody(maxBodyBytes, s.apiSessionStart))
	mux.HandleFunc("GET /api/session/{id}", s.apiSessionGet)
	mux.HandleFunc("POST /api/session/{id}/answer", limitBody(maxBodyBytes, s.apiSessionAnswer))
	mux.HandleFunc("GET /api/session/{id}/explain", s.apiSessionExplain)
	mux.HandleFunc("DELETE /api/session/{id}", s.apiSessionDelete)
	mux.HandleFunc("GET /dialogue", s.dialoguePage)
	mux.HandleFunc("POST /dialogue", limitBody(maxBodyBytes, s.dialogueStart))
	mux.HandleFunc("POST /dialogue/answer", limitBody(maxBodyBytes, s.dialogueAnswer))
	mux.HandleFunc("POST /dialogue/delete", limitBody(maxBodyBytes, s.dialogueDelete))
	return mux
}

// limitBody caps the request body at n bytes: reading past the cap fails
// with *http.MaxBytesError, which badBody answers with 413.
func limitBody(n int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, n)
		h(w, r)
	}
}

// badBody answers a request body that could not be read or decoded: 413
// when it exceeded its cap, else 400.
func badBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, fmt.Sprintf("request body too large (limit %d bytes)", tooLarge.Limit), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
}

// parseForm reads a URL-encoded or multipart form body; FormValue alone
// would hide a body that failed to read as an empty form. It answers the
// request and returns false on failure.
func parseForm(w http.ResponseWriter, r *http.Request) bool {
	err := r.ParseForm()
	if err == nil {
		if err = r.ParseMultipartForm(maxBodyBytes); errors.Is(err, http.ErrNotMultipart) {
			err = nil
		}
	}
	if err != nil {
		badBody(w, err)
		return false
	}
	return true
}

// questionFits refuses a question longer than maxQuestionBytes with 400.
func questionFits(w http.ResponseWriter, q string) bool {
	if len(q) > maxQuestionBytes {
		http.Error(w, fmt.Sprintf("question too long: %d bytes (limit %d)", len(q), maxQuestionBytes), http.StatusBadRequest)
		return false
	}
	return true
}

var pageTmpl = template.Must(template.New("page").Parse(`<!doctype html>
<html><head><title>NL2CM</title><style>
body{font-family:sans-serif;max-width:56em;margin:2em auto;padding:0 1em}
textarea{width:100%;height:4em;font-size:1em}
pre{background:#f4f4f4;padding:1em;overflow-x:auto}
.ix-lexical{background:#ffe08a}.ix-participant{background:#a8e6a1}
.ix-syntactic{background:#a9d3ff}.ix-mixed{background:#e2b7f0}
.tip{color:#a33}.sig{font-weight:bold}
table{border-collapse:collapse}td,th{border:1px solid #ccc;padding:.3em .6em}
</style></head><body>
<h1>NL2CM</h1>
<p>Ask a question that mixes general knowledge with the habits and
opinions of people, e.g. <em>What are the most interesting places near
Forest Hotel, Buffalo, we should visit in the fall?</em></p>
<form method="post" action="/translate">
<textarea name="q">{{.Question}}</textarea><br>
<button type="submit">Translate</button>
<button type="submit" formaction="/execute">Translate &amp; execute</button>
<label>backend: <select name="backend">
{{range .Backends}}<option value="{{.}}"{{if eq . $.Backend}} selected{{end}}>{{.}}</option>{{end}}
</select></label>
<a href="/dialogue">interactive dialogue</a> · <a href="/admin">administrator mode</a> · <a href="/corpus">question corpus</a>
</form>
{{if .Unsupported}}
<h2>Question not supported</h2>
<p class="tip">{{.Reason}}</p>
{{range .Tips}}<p class="tip">Tip: {{.}}</p>{{end}}
{{end}}
{{if .Highlight}}
<h2>Detected individual expressions</h2>
<p>{{.Highlight}}</p>
<table><tr><th>expression</th><th>individuality</th><th>uncertain</th></tr>
{{range .IXs}}<tr><td>{{.Text}}</td><td>{{.Types}}</td><td>{{.Uncertain}}</td></tr>{{end}}
</table>
{{end}}
{{if .Query}}
<h2>Final OASSIS-QL query</h2>
<pre>{{.Query}}</pre>
{{end}}
{{if .AltQuery}}
<h2>Query in the {{.Backend}} dialect</h2>
<pre>{{.AltQuery}}</pre>
{{range .AltNotes}}<p class="tip">{{.}}</p>{{end}}
{{end}}
{{if .Exec}}
<h2>Execution on the (simulated) crowd</h2>
<p>{{.Exec.WhereBindings}} ontology bindings, {{.Exec.Tasks}} crowd tasks.</p>
{{range .Exec.Subclauses}}
<h3>subclause {{.Index}}</h3>
<table><tr><th></th><th>support</th><th>crowd question</th></tr>
{{range .Tasks}}<tr><td>{{if .Significant}}<span class="sig">✓</span>{{end}}</td>
<td>{{printf "%.2f" .Support}}</td><td>{{.Question}}</td></tr>{{end}}
</table>
{{end}}
<h3>significant bindings</h3>
<ul>{{range .Exec.Bindings}}<li>{{.}}</li>{{end}}</ul>
{{end}}
</body></html>`))

type ixRow struct {
	Text      string
	Types     string
	Uncertain bool
}

type execView struct {
	WhereBindings int
	Tasks         int
	Subclauses    []subclauseView
	Bindings      []string
}

type subclauseView struct {
	Index int
	Tasks []nl2cm.Task
}

type pageData struct {
	Question    string
	Unsupported bool
	Reason      string
	Tips        []string
	Highlight   template.HTML
	IXs         []ixRow
	Query       string
	Exec        *execView

	// Backend selection: the dialects, the selected one, and — when it
	// is not the default — its rendering with its capability notes.
	Backends []string
	Backend  string
	AltQuery string
	AltNotes []string
}

func (s *server) home(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.render(w, pageData{})
}

func (s *server) render(w http.ResponseWriter, d pageData) {
	d.Backends = nl2cm.Backends()
	if d.Backend == "" {
		d.Backend = nl2cm.DefaultBackend
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTmpl.Execute(w, d); err != nil {
		log.Printf("render: %v", err)
	}
}

// reqCtx bounds one request's work (translation, and for /execute the
// crowd evaluation too) by the client's context plus the per-request
// timeout.
func (s *server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(r.Context(), s.timeout)
	}
	return context.WithCancel(r.Context())
}

// doTranslate runs one translation under the given context and, on
// success, snapshots the result for the admin page. The lock covers
// only that snapshot. Only the requested backends are emitted (the
// default OASSIS-QL rendering is always available via Result.Render),
// and any admission-queue wait the request endured is prepended to the
// trace as its own stage: the Result is this request's own (see
// Translator.Translate), even when the plan cache served it.
func (s *server) doTranslate(ctx context.Context, question string, backends []string) (*nl2cm.Result, error) {
	res, err := s.tr.Translate(ctx, question, nl2cm.Options{Trace: true, Backends: backends})
	if err != nil {
		return nil, err
	}
	if wait, ok := ctx.Value(queueWaitKey{}).(time.Duration); ok {
		res.Trace = append([]nl2cm.Stage{{
			Module:   nl2cm.StageQueue,
			Output:   "request queued for a translation slot",
			Duration: wait,
		}}, res.Trace...)
	}
	s.mu.Lock()
	s.last = res
	s.mu.Unlock()
	return res, nil
}

// setCacheHeader exposes how the plan cache served this translation —
// miss (translated cold: filled, or the cached entry could not serve
// it), hit (exact), rebound (entity slots substituted), or bypass
// (cache disabled or request not cacheable) — plus the
// server-side translation wall-clock, so load generators can separate
// translation latency from transport overhead.
func setCacheHeader(w http.ResponseWriter, res *nl2cm.Result, elapsed time.Duration) {
	outcome := res.CacheOutcome
	if outcome == "" {
		outcome = "bypass"
	}
	w.Header().Set("X-Plan-Cache", outcome)
	w.Header().Set("X-Translate-Time", elapsed.String())
}

// translateError maps a translation failure to an HTTP status: timeouts
// become 504, client disconnects 499-style aborts (the response is
// unwritable anyway), everything else 500.
func translateError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// The client went away; nothing useful can be written.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *server) buildPage(question string, res *nl2cm.Result) pageData {
	d := pageData{Question: question}
	if !res.Verdict.Supported {
		d.Unsupported = true
		d.Reason = res.Verdict.Reason
		d.Tips = res.Verdict.Tips
		return d
	}
	var spans []interact.IXSpan
	for _, x := range res.IXs {
		types := strings.Join(x.Types, "+")
		for _, sp := range x.Spans(res.Graph) {
			spans = append(spans, interact.IXSpan{ByteStart: sp.Start, ByteEnd: sp.End, Type: types})
		}
		d.IXs = append(d.IXs, ixRow{
			Text:      x.Text(res.Graph),
			Types:     types,
			Uncertain: x.Uncertain,
		})
	}
	// The Figure 4 display: the question as typed, each IX's tokens
	// marked.
	d.Highlight = highlightSpans(res.Question, spans)
	// The default rendering is the query text; a plan-cache entry
	// renders it once for all its exact hits.
	if rend, err := res.Render(nl2cm.DefaultBackend); err == nil {
		d.Query = rend.Query
	}
	return d
}

func (s *server) translate(w http.ResponseWriter, r *http.Request) {
	if !parseForm(w, r) {
		return
	}
	q := strings.TrimSpace(r.FormValue("q"))
	if !questionFits(w, q) {
		return
	}
	backend := strings.TrimSpace(r.FormValue("backend"))
	if backend != "" {
		if _, ok := nl2cm.LookupBackend(backend); !ok {
			http.Error(w, fmt.Sprintf("unknown backend %q", backend), http.StatusBadRequest)
			return
		}
	}
	var backends []string
	if backend != "" && backend != nl2cm.DefaultBackend {
		backends = []string{backend}
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	t0 := time.Now()
	res, err := s.doTranslate(ctx, q, backends)
	if err != nil {
		translateError(w, err)
		return
	}
	setCacheHeader(w, res, time.Since(t0))
	d := s.buildPage(q, res)
	d.Backend = backend
	if backend != "" && backend != nl2cm.DefaultBackend && res.Verdict.Supported {
		rend, err := res.Render(backend)
		if err != nil {
			// The backend is known and a supported result has a plan.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		d.AltQuery = rend.Query
		d.AltNotes = rend.Notes
	}
	s.render(w, d)
}

func (s *server) execute(w http.ResponseWriter, r *http.Request) {
	if !parseForm(w, r) {
		return
	}
	q := strings.TrimSpace(r.FormValue("q"))
	if !questionFits(w, q) {
		return
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	t0 := time.Now()
	res, err := s.doTranslate(ctx, q, nil)
	if err != nil {
		translateError(w, err)
		return
	}
	setCacheHeader(w, res, time.Since(t0))
	d := s.buildPage(q, res)
	if res.Verdict.Supported {
		out, err := s.eng.Execute(ctx, res.Query)
		if err != nil {
			// A hung or slow crowd evaluation surfaces exactly like a
			// slow translation: deadline expiry maps to 504.
			translateError(w, err)
			return
		}
		st := &engineStats{
			Question:    q,
			Tasks:       out.TasksIssued,
			CacheHits:   out.CacheHits,
			CacheMisses: out.CacheMisses,
			Elapsed:     out.Elapsed,
		}
		for _, sc := range out.Subclauses {
			st.Subclauses = append(st.Subclauses, subclauseStat{Index: sc.Index + 1, Tasks: len(sc.Tasks), Duration: sc.Duration})
		}
		s.mu.Lock()
		s.lastExec = st
		s.mu.Unlock()
		ev := &execView{WhereBindings: out.WhereBindings, Tasks: out.TasksIssued}
		for _, sc := range out.Subclauses {
			ev.Subclauses = append(ev.Subclauses, subclauseView{Index: sc.Index + 1, Tasks: sc.Tasks})
		}
		for _, b := range out.Bindings {
			ev.Bindings = append(ev.Bindings, b.String())
		}
		d.Exec = ev
	}
	s.render(w, d)
}

var corpusTmpl = template.Must(template.New("corpus").Parse(`<!doctype html>
<html><head><title>NL2CM corpus</title><style>
body{font-family:sans-serif;max-width:64em;margin:2em auto;padding:0 1em}
table{border-collapse:collapse}td,th{border:1px solid #ccc;padding:.3em .6em}
</style></head><body>
<h1>Demo question corpus</h1><p><a href="/">back</a></p>
<table><tr><th>id</th><th>domain</th><th>question</th><th>expected</th></tr>
{{range .}}<tr><td>{{.ID}}</td><td>{{.Domain}}</td>
<td><form method="post" action="/translate" style="margin:0">
<input type="hidden" name="q" value="{{.Text}}">
<button type="submit" style="all:unset;cursor:pointer;color:#06c">{{.Text}}</button>
</form></td>
<td>{{if .Supported}}translates{{else}}rejected ({{.UnsupportedCategory}}){{end}}</td></tr>{{end}}
</table></body></html>`))

func (s *server) corpus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := corpusTmpl.Execute(w, nl2cm.Corpus()); err != nil {
		log.Printf("corpus render: %v", err)
	}
}

var adminTmpl = template.Must(template.New("admin").Parse(`<!doctype html>
<html><head><title>NL2CM admin</title><style>
body{font-family:sans-serif;max-width:64em;margin:2em auto;padding:0 1em}
pre{background:#f4f4f4;padding:1em;overflow-x:auto}
</style></head><body>
<h1>Administrator mode</h1><p><a href="/">back</a></p>
{{if .Last}}
<p>Last question: <b>{{.Last.Question}}</b></p>
{{range .Last.Trace}}<h2>{{.Module}} <small>({{.Duration}})</small></h2><pre>{{.Output}}</pre>{{end}}
{{if .Last.Interactions}}<h2>Dialogue transcript</h2>
<ul>{{range .Last.Interactions}}<li><b>{{.Point}}</b>: {{.Question}} → {{.Answer}}</li>{{end}}</ul>{{end}}
{{if .Annotated}}<h2>Annotated query (triple provenance)</h2>
<pre>{{.Annotated}}</pre>{{end}}
{{if .Last.Uncovered}}<h2>Uncovered words</h2>
<p>Content words no emitted triple derives from:</p>
<ul>{{range .Last.Uncovered}}<li><b>{{.Text}}</b> (bytes {{.Span.Start}}–{{.Span.End}})</li>{{end}}</ul>
{{range .Last.CoverageTips}}<p>{{.}}</p>{{end}}{{end}}
{{else}}<p>No translation yet.</p>{{end}}
<h2>IX pattern matches</h2>
{{if .IXCounts}}
<table><tr><th>pattern</th><th>matches</th></tr>
{{range .IXCounts}}<tr><td>{{.Pattern}}</td><td>{{.Count}}</td></tr>{{end}}
</table>
<h3>recent translations</h3>
{{range .IXRecent}}<p><b>{{.Question}}</b></p>
{{if .Matches}}<table><tr><th>pattern</th><th>anchor</th><th>matched span</th><th>bytes</th></tr>
{{range .Matches}}<tr><td>{{.Pattern}}</td><td>{{.Anchor}}</td><td>&ldquo;{{.Text}}&rdquo;</td><td>{{.Span.Start}}–{{.Span.End}}</td></tr>{{end}}
</table>{{else}}<p>no pattern matched</p>{{end}}
{{end}}
{{else}}<p>No matches recorded yet.</p>{{end}}
{{if .Exec}}
<h2>Crowd Execution <small>({{.Exec.Elapsed}})</small></h2>
<p>Last executed: <b>{{.Exec.Question}}</b></p>
<p>{{.Exec.Tasks}} crowd tasks; support cache: {{.Exec.CacheHits}} hits,
{{.Exec.CacheMisses}} misses this run ({{.Engine.SupportCacheHits}} / {{.Engine.SupportCacheMisses}} engine lifetime).</p>
<table><tr><th>subclause</th><th>tasks</th><th>wall-clock</th></tr>
{{range .Exec.Subclauses}}<tr><td>SATISFYING {{.Index}}</td><td>{{.Tasks}}</td><td>{{.Duration}}</td></tr>{{end}}
</table>
{{end}}
<h2>Crowd engine</h2>
{{with .Engine}}
<p>{{.Executions}} executions · {{.TasksIssued}} crowd tasks ·
support cache {{.SupportCacheHits}} hits / {{.SupportCacheMisses}} misses ·
{{.CrowdSize}}-member crowd{{if .SampleSize}} (sample {{.SampleSize}}){{end}}.</p>
{{with .Scale}}
<p>Streaming executor over {{.Population}} members ·
{{.TasksDecided}} tasks decided ({{.EarlyDecided}} early, {{.FullySampled}} fully sampled) ·
{{.MemberAnswers}} member answers asked, {{.AnswersSaved}} saved by early termination ·
{{.BatchesDispatched}} batches ·
sampling states: {{.States}} cached, {{.StateHits}} hits / {{.StateMisses}} misses.</p>
{{end}}
{{end}}
<h2>Plan cache</h2>
{{with .PlanCache}}
<p>{{.Entries}} cached shapes · {{.Hits}} hits ({{.Rebinds}} by entity
re-binding) · {{.Misses}} misses · {{.Waits}} coalesced onto another
request's fill · {{.Evictions}} evictions · {{.Stale}} dropped as stale
after a write changed an ontology read they rest on.</p>
{{else}}<p>Plan cache disabled (-plan-cache 0).</p>{{end}}
<h2>Admission control</h2>
{{with .Admission}}
<p>{{.Inflight}}/{{.MaxInflight}} slots in use, {{.Queued}}/{{.QueueDepth}} queued ·
{{.Admitted}} admitted, {{.Rejected}} shed (429) · avg queue wait {{.AvgWait}}.</p>
{{end}}
<h2>Dialogue sessions</h2>
{{with .Sessions}}
<p>{{.Live}} live · {{.Started}} started — {{.Completed}} completed,
{{.Failed}} failed, {{.Expired}} expired, {{.Evicted}} evicted.</p>
<table><tr><th>interaction point</th><th>asked</th><th>answered</th>
<th>timed out</th><th>aborted</th><th>avg wait</th></tr>
{{range .Points}}<tr><td>{{.Point}}</td><td>{{.Asked}}</td><td>{{.Answered}}</td>
<td>{{.TimedOut}}</td><td>{{.Aborted}}</td><td>{{.AvgWait}}</td></tr>{{end}}
</table>
{{end}}
</body></html>`))

// adminData feeds the admin template: the last translation trace, the
// last execution's engine metrics, and the engine-lifetime counters.
type adminData struct {
	Last      *nl2cm.Result
	Annotated string
	Exec      *engineStats
	Engine    nl2cm.EngineStats
	Sessions  session.Metrics
	IXCounts  []ix.PatternCount
	IXRecent  []ix.TranslationMatches
	PlanCache *nl2cm.PlanCacheStats
	Admission admissionStats
}

func (s *server) admin(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	d := adminData{Last: s.last, Exec: s.lastExec}
	s.mu.Unlock()
	if d.Last != nil {
		d.Annotated = d.Last.AnnotatedQuery()
	}
	d.Engine = s.eng.Stats()
	if s.tr.Cache != nil {
		st := s.tr.Cache.Stats()
		d.PlanCache = &st
	}
	d.Admission = s.adm.stats()
	d.Sessions = s.sess.Metrics()
	d.IXCounts = s.ixStats.Counts()
	d.IXRecent = s.ixStats.Recent()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := adminTmpl.Execute(w, d); err != nil {
		log.Printf("admin render: %v", err)
	}
}

type apiRequest struct {
	Question string `json:"question"`
	// Backend names the dialect to render the query in; empty means the
	// default (OASSIS-QL). The rendering lands in apiResponse.Rendering
	// with its per-clause provenance; Query always stays OASSIS-QL.
	Backend string `json:"backend,omitempty"`
}

type apiResponse struct {
	Supported bool             `json:"supported"`
	Reason    string           `json:"reason,omitempty"`
	Tips      []string         `json:"tips,omitempty"`
	Query     string           `json:"query,omitempty"`
	IXs       []ixRow          `json:"ixs,omitempty"`
	Rendering *nl2cm.Rendering `json:"rendering,omitempty"`
}

func (s *server) apiTranslate(w http.ResponseWriter, r *http.Request) {
	var req apiRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badBody(w, err)
		return
	}
	if !questionFits(w, req.Question) {
		return
	}
	backend := strings.TrimSpace(req.Backend)
	if backend == "" {
		backend = nl2cm.DefaultBackend
	}
	if _, ok := nl2cm.LookupBackend(backend); !ok {
		http.Error(w, fmt.Sprintf("unknown backend %q (have %s)",
			backend, strings.Join(nl2cm.Backends(), ", ")), http.StatusBadRequest)
		return
	}
	var backends []string
	if backend != nl2cm.DefaultBackend {
		backends = []string{backend}
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	t0 := time.Now()
	res, err := s.doTranslate(ctx, req.Question, backends)
	if err != nil {
		translateError(w, err)
		return
	}
	setCacheHeader(w, res, time.Since(t0))
	resp := apiResponse{Supported: res.Verdict.Supported}
	if !res.Verdict.Supported {
		resp.Reason = res.Verdict.Reason
		resp.Tips = res.Verdict.Tips
	} else {
		// One default rendering gives the query text and, unless another
		// dialect was asked for, the rendering; a plan-cache entry
		// renders it once for all its exact hits.
		def, err := res.Render(nl2cm.DefaultBackend)
		rend := def
		if err == nil && backend != nl2cm.DefaultBackend {
			rend, err = res.Render(backend)
		}
		if err != nil {
			// The backend is known and a supported result has a plan.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp.Query = def.Query
		for _, x := range res.IXs {
			resp.IXs = append(resp.IXs, ixRow{
				Text:      x.Text(res.Graph),
				Types:     strings.Join(x.Types, "+"),
				Uncertain: x.Uncertain,
			})
		}
		resp.Rendering = rend
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("api encode: %v", err)
	}
}

// backendInfo is one /api/backends entry.
type backendInfo struct {
	Name    string            `json:"name"`
	Default bool              `json:"default"`
	Caps    nl2cm.BackendCaps `json:"caps"`
}

// statsResponse is the /api/stats payload: the serving-side counters a
// load generator or monitor scrapes between runs.
type statsResponse struct {
	PlanCache *nl2cm.PlanCacheStats `json:"plan_cache,omitempty"`
	Admission admissionStats        `json:"admission"`
	Sessions  nl2cm.SessionMetrics  `json:"sessions"`
	// Crowd is the execution engine's lifetime counters: executions,
	// tasks asked, support-cache hits/misses, and — with -crowd-scale —
	// the Scale executor's early-termination metrics.
	Crowd nl2cm.EngineStats `json:"crowd"`
	// Store describes the knowledge store's current published snapshot.
	Store storeStats `json:"store"`
}

// storeStats is the /api/stats knowledge-store section: the published
// snapshot's epoch, its total triple count, and the per-shard sizes
// (hash-partitioned by subject, so skew here means subject hot spots).
type storeStats struct {
	Epoch   uint64 `json:"epoch"`
	Triples int    `json:"triples"`
	Shards  []int  `json:"shards"`
}

// apiStats reports plan-cache, admission, session, crowd-engine and
// knowledge-store counters as JSON.
func (s *server) apiStats(w http.ResponseWriter, r *http.Request) {
	sn := s.tr.Onto.Snapshot()
	resp := statsResponse{
		Admission: s.adm.stats(),
		Sessions:  s.sess.Metrics(),
		Crowd:     s.eng.Stats(),
		Store: storeStats{
			Epoch:   sn.Epoch(),
			Triples: sn.Len(),
			Shards:  sn.ShardSizes(),
		},
	}
	if s.tr.Cache != nil {
		st := s.tr.Cache.Stats()
		resp.PlanCache = &st
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("api encode: %v", err)
	}
}

// storeRequest is the POST /api/store payload: N-Triples text to delete
// and insert as one atomic batch (deletes apply first). An invalid line
// or a non-ground insert rejects the whole batch.
type storeRequest struct {
	Insert string `json:"insert,omitempty"`
	Delete string `json:"delete,omitempty"`
}

// storeResponse reports what one batch did and the epoch it published.
type storeResponse struct {
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	Epoch   uint64 `json:"epoch"`
}

// apiStore applies an insert/delete batch to the shared knowledge
// store. The new epoch is visible to every subsequent request: the
// ontology's label index re-derives, so an inserted entity resolves on
// the next query, and a cached plan is served again only if the
// ontology reads its translation made still return the same candidates.
func (s *server) apiStore(w http.ResponseWriter, r *http.Request) {
	var req storeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badBody(w, err)
		return
	}
	var batch nl2cm.StoreBatch
	var err error
	if req.Delete != "" {
		if batch.Delete, err = nl2cm.ParseTriples(strings.NewReader(req.Delete)); err != nil {
			http.Error(w, "delete: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if req.Insert != "" {
		if batch.Insert, err = nl2cm.ParseTriples(strings.NewReader(req.Insert)); err != nil {
			http.Error(w, "insert: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if len(batch.Insert) == 0 && len(batch.Delete) == 0 {
		http.Error(w, "empty batch: provide insert and/or delete N-Triples", http.StatusBadRequest)
		return
	}
	added, removed, epoch, err := s.tr.Onto.Store.Apply(batch)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(storeResponse{Added: added, Removed: removed, Epoch: epoch}); err != nil {
		log.Printf("api encode: %v", err)
	}
}

// apiBackends lists the backend dialects with their capability flags,
// the default backend first.
func (s *server) apiBackends(w http.ResponseWriter, r *http.Request) {
	var out []backendInfo
	for _, name := range nl2cm.Backends() {
		b, _ := nl2cm.LookupBackend(name)
		out = append(out, backendInfo{
			Name:    name,
			Default: name == nl2cm.DefaultBackend,
			Caps:    b.Caps(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		log.Printf("api encode: %v", err)
	}
}
