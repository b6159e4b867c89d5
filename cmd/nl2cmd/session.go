// Interactive dialogue sessions over HTTP: the REST protocol driving
// internal/session, plus a server-rendered page that makes the paper's
// Figures 3–6 flow clickable.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"log"
	"net/http"
	"strconv"
	"strings"

	"nl2cm/internal/compose"
	"nl2cm/internal/interact"
	"nl2cm/internal/prov"
	"nl2cm/internal/session"
)

// sessionStartRequest is the POST /api/session body.
type sessionStartRequest struct {
	Question string `json:"question"`
}

// sessionAnswerRequest is the POST /api/session/{id}/answer body: the
// pending question's id plus the Answer fields matching its kind.
type sessionAnswerRequest struct {
	Question int `json:"question"`
	session.Answer
}

// writeSnapshot serializes a session snapshot as the API response.
func writeSnapshot(w http.ResponseWriter, status int, snap session.Snapshot) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		log.Printf("session encode: %v", err)
	}
}

// sessionError maps the session package's typed errors to HTTP statuses.
func sessionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, session.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, session.ErrBadAnswer):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, session.ErrNoPending), errors.Is(err, session.ErrWrongQuestion):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, session.ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// apiSessionStart starts a dialogue session and replies with its first
// pending question (or its terminal state, for question-free requests).
func (s *server) apiSessionStart(w http.ResponseWriter, r *http.Request) {
	var req sessionStartRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badBody(w, err)
		return
	}
	if strings.TrimSpace(req.Question) == "" {
		http.Error(w, "bad request: empty question", http.StatusBadRequest)
		return
	}
	if !questionFits(w, req.Question) {
		return
	}
	sess, err := s.sess.Start(req.Question)
	if err != nil {
		sessionError(w, err)
		return
	}
	snap := sess.WaitQuestion(r.Context(), s.answerWait)
	writeSnapshot(w, http.StatusCreated, snap)
}

// apiSessionGet polls a session's state.
func (s *server) apiSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sess.Get(r.PathValue("id"))
	if !ok {
		sessionError(w, session.ErrNotFound)
		return
	}
	writeSnapshot(w, http.StatusOK, sess.Snapshot())
}

// apiSessionAnswer resolves the pending question, then waits briefly for
// the next question (or completion) so one round trip advances the
// dialogue a full turn.
func (s *server) apiSessionAnswer(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sess.Get(r.PathValue("id"))
	if !ok {
		sessionError(w, session.ErrNotFound)
		return
	}
	var req sessionAnswerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badBody(w, err)
		return
	}
	if err := sess.Answer(req.Question, req.Answer); err != nil {
		sessionError(w, err)
		return
	}
	snap := sess.WaitQuestion(r.Context(), s.answerWait)
	writeSnapshot(w, http.StatusOK, snap)
}

// explainResponse is the GET /api/session/{id}/explain body: the
// provenance view of a finished translation — every emitted triple's
// source spans, the composition decisions, and the uncovered-word report.
type explainResponse struct {
	Question     string             `json:"question"`
	Supported    bool               `json:"supported"`
	Reason       string             `json:"reason,omitempty"`
	Query        string             `json:"query,omitempty"`
	Annotated    string             `json:"annotated_query,omitempty"`
	Provenance   []prov.Record      `json:"provenance,omitempty"`
	Decisions    []compose.Decision `json:"compose_decisions,omitempty"`
	Uncovered    []prov.TokenInfo   `json:"uncovered,omitempty"`
	CoverageTips []string           `json:"coverage_tips,omitempty"`
}

// apiSessionExplain reports where each triple of a finished session's
// query came from. Before the translation completes it answers 409: the
// provenance views exist only on the final Result.
func (s *server) apiSessionExplain(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sess.Get(r.PathValue("id"))
	if !ok {
		sessionError(w, session.ErrNotFound)
		return
	}
	res := sess.Snapshot().Result
	if res == nil {
		http.Error(w, "session: translation not finished", http.StatusConflict)
		return
	}
	resp := explainResponse{Question: res.Question, Supported: res.Verdict.Supported}
	if !res.Verdict.Supported {
		resp.Reason = res.Verdict.Reason
	} else {
		resp.Query = res.Query.String()
		resp.Annotated = res.AnnotatedQuery()
		resp.Provenance = res.ProvenanceRecords()
		resp.Decisions = res.ComposeDecisions
		resp.Uncovered = res.Uncovered()
		resp.CoverageTips = res.CoverageTips()
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("explain encode: %v", err)
	}
}

// apiSessionDelete aborts and forgets a session.
func (s *server) apiSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sess.Delete(r.PathValue("id")) {
		sessionError(w, session.ErrNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---------------------------------------------------------------------
// The clickable dialogue page.

var dialogueTmpl = template.Must(template.New("dialogue").Parse(`<!doctype html>
<html><head><title>NL2CM dialogue</title>
{{if .Refresh}}<meta http-equiv="refresh" content="2">{{end}}
<style>
body{font-family:sans-serif;max-width:56em;margin:2em auto;padding:0 1em}
textarea{width:100%;height:4em;font-size:1em}
pre{background:#f4f4f4;padding:1em;overflow-x:auto}
.turn{color:#555;margin:.2em 0}
.q{background:#eef4ff;padding:1em;margin:1em 0;border:1px solid #a9d3ff}
table{border-collapse:collapse}td,th{border:1px solid #ccc;padding:.3em .6em}
.tip{color:#a33}
mark.ix-lexical{background:#ffe08a}mark.ix-participant{background:#a8e6a1}
mark.ix-syntactic{background:#a9d3ff}mark.ix-mixed{background:#e2b7f0}
</style></head><body>
<h1>NL2CM dialogue</h1>
<p><a href="/">single-shot form</a> · <a href="/admin">administrator mode</a></p>
{{if not .Snap}}
<p>Start an interactive translation: the system will come back to you
with the paper's verification, disambiguation, significance and
projection questions.</p>
<form method="post" action="/dialogue">
<textarea name="q">Where do you visit in Buffalo?</textarea><br>
<button type="submit">Start dialogue</button>
</form>
{{else}}
<p>Session <code>{{.Snap.ID}}</code> — state <b>{{.Snap.State}}</b></p>
{{range .Snap.Turns}}
<p class="turn"><b>{{.Question.PointName}}</b>: {{.Question.Prompt}} → {{.Answer}} <i>({{.Source}})</i></p>
{{end}}
{{with .Snap.Question}}
<div class="q">
<p><b>{{.Prompt}}</b>{{if .Subject}} <i>({{.Subject}})</i>{{end}}</p>
<form method="post" action="/dialogue/answer">
<input type="hidden" name="id" value="{{$.Snap.ID}}">
<input type="hidden" name="qid" value="{{.ID}}">
<input type="hidden" name="kind" value="{{.Kind}}">
{{if eq .Kind "ix-verify"}}
{{if $.Highlight}}<p>{{$.Highlight}}</p>{{end}}
<input type="hidden" name="count" value="{{len .Spans}}">
<table><tr><th>expression</th><th>source phrase</th><th>individuality</th><th>ask the crowd?</th></tr>
{{range $i, $sp := .Spans}}<tr><td>{{$sp.Text}}</td>
<td>&ldquo;{{$sp.Source}}&rdquo; <small>(bytes {{$sp.ByteStart}}–{{$sp.ByteEnd}})</small></td><td>{{$sp.Type}}</td>
<td><select name="accept{{$i}}"><option value="yes">yes</option><option value="no">no</option></select></td></tr>{{end}}
</table>
{{else if eq .Kind "choice"}}
{{range $i, $c := .Choices}}
<p><label><input type="radio" name="choice" value="{{$i}}" {{if eq $i 0}}checked{{end}}>
{{$c.Label}} — {{$c.Description}}</label></p>{{end}}
{{else if eq .Kind "number"}}
<p><input name="number" value="{{.Default}}">
{{if .Integer}}(a whole number ≥ {{.Min}}){{else}}(between {{.Min}} and {{.Max}}){{end}}</p>
{{else if eq .Kind "projection"}}
<input type="hidden" name="count" value="{{len .Vars}}">
<table><tr><th>variable</th><th>phrase</th><th>include?</th></tr>
{{range $i, $v := .Vars}}<tr><td>${{$v.Var}}</td><td>{{$v.Phrase}}</td>
<td><select name="accept{{$i}}"><option value="yes">yes</option><option value="no">no</option></select></td></tr>{{end}}
</table>
{{end}}
<button type="submit">Answer</button>
</form>
</div>
{{end}}
{{if .Snap.Query}}<h2>Final OASSIS-QL query</h2><pre>{{.Snap.Query}}</pre>
{{if .Annotated}}<h2>Where each triple came from</h2><pre>{{.Annotated}}</pre>{{end}}
<p><a href="/api/session/{{.Snap.ID}}/explain">full provenance (JSON)</a></p>{{end}}
{{if .Snap.Unsupported}}<p class="tip">Question not supported: {{.Snap.Reason}}</p>{{end}}
{{if .Snap.Error}}<p class="tip">{{.Snap.Error}}</p>{{end}}
{{if not .Snap.State.Terminal}}
<form method="post" action="/dialogue/delete" style="margin-top:1em">
<input type="hidden" name="id" value="{{.Snap.ID}}">
<button type="submit">Abort session</button>
</form>
{{end}}
{{end}}
</body></html>`))

type dialogueData struct {
	Snap *session.Snapshot
	// Refresh auto-reloads the page while the pipeline is computing
	// (running, no pending question yet).
	Refresh bool
	// Highlight is the pending ix-verify question with each detected
	// expression's byte span wrapped in a colored mark.
	Highlight template.HTML
	// Annotated is the finished query with per-triple source comments.
	Annotated string
}

// highlightSpans renders the question with each IX's byte range wrapped
// in a <mark> colored by individuality type. Spans index the original
// question (clamped defensively); where spans overlap, the first wins.
func highlightSpans(q string, spans []interact.IXSpan) template.HTML {
	cls := make([]string, len(q))
	for _, sp := range spans {
		c := "ix-mixed"
		if sp.Type != "" && !strings.Contains(sp.Type, "+") {
			c = "ix-" + sp.Type
		}
		start, end := max(sp.ByteStart, 0), min(sp.ByteEnd, len(q))
		for i := start; i < end; i++ {
			if cls[i] == "" {
				cls[i] = c
			}
		}
	}
	var b strings.Builder
	for i := 0; i < len(q); {
		j := i
		for j < len(q) && cls[j] == cls[i] {
			j++
		}
		seg := template.HTMLEscapeString(q[i:j])
		if cls[i] == "" {
			b.WriteString(seg)
		} else {
			fmt.Fprintf(&b, `<mark class=%q>%s</mark>`, cls[i], seg)
		}
		i = j
	}
	return template.HTML(b.String())
}

func (s *server) renderDialogue(w http.ResponseWriter, d dialogueData) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dialogueTmpl.Execute(w, d); err != nil {
		log.Printf("dialogue render: %v", err)
	}
}

// dialoguePage shows the start form, or the session named by ?id=.
func (s *server) dialoguePage(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		s.renderDialogue(w, dialogueData{})
		return
	}
	sess, ok := s.sess.Get(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	snap := sess.Snapshot()
	d := dialogueData{
		Snap:    &snap,
		Refresh: snap.Question == nil && !snap.State.Terminal(),
	}
	if q := snap.Question; q != nil && q.Kind == interact.KindIXVerify {
		d.Highlight = highlightSpans(q.Subject, q.Spans)
	}
	if snap.Result != nil && snap.Result.Verdict.Supported {
		d.Annotated = snap.Result.AnnotatedQuery()
	}
	s.renderDialogue(w, d)
}

// dialogueStart starts a session from the HTML form and redirects to its
// page.
func (s *server) dialogueStart(w http.ResponseWriter, r *http.Request) {
	if !parseForm(w, r) {
		return
	}
	q := strings.TrimSpace(r.FormValue("q"))
	if q == "" {
		http.Error(w, "empty question", http.StatusBadRequest)
		return
	}
	if !questionFits(w, q) {
		return
	}
	sess, err := s.sess.Start(q)
	if err != nil {
		sessionError(w, err)
		return
	}
	sess.WaitQuestion(r.Context(), s.answerWait)
	http.Redirect(w, r, "/dialogue?id="+sess.ID(), http.StatusSeeOther)
}

// dialogueAnswer translates the HTML form fields into a typed Answer.
func (s *server) dialogueAnswer(w http.ResponseWriter, r *http.Request) {
	if !parseForm(w, r) {
		return
	}
	sess, ok := s.sess.Get(r.FormValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	qid, err := strconv.Atoi(r.FormValue("qid"))
	if err != nil {
		http.Error(w, "bad question id", http.StatusBadRequest)
		return
	}
	var ans session.Answer
	switch interact.Kind(r.FormValue("kind")) {
	case interact.KindIXVerify, interact.KindProjection:
		count, err := strconv.Atoi(r.FormValue("count"))
		if err != nil || count < 0 || count > 1000 {
			http.Error(w, "bad flag count", http.StatusBadRequest)
			return
		}
		ans.Accept = make([]bool, count)
		for i := range ans.Accept {
			ans.Accept[i] = r.FormValue("accept"+strconv.Itoa(i)) != "no"
		}
	case interact.KindChoice:
		c, err := strconv.Atoi(r.FormValue("choice"))
		if err != nil {
			http.Error(w, "bad choice", http.StatusBadRequest)
			return
		}
		ans.Choice = &c
	case interact.KindNumber:
		n, err := strconv.ParseFloat(strings.TrimSpace(r.FormValue("number")), 64)
		if err != nil {
			http.Error(w, "bad number", http.StatusBadRequest)
			return
		}
		ans.Number = &n
	default:
		http.Error(w, "bad question kind", http.StatusBadRequest)
		return
	}
	if err := sess.Answer(qid, ans); err != nil {
		sessionError(w, err)
		return
	}
	sess.WaitQuestion(r.Context(), s.answerWait)
	http.Redirect(w, r, "/dialogue?id="+sess.ID(), http.StatusSeeOther)
}

// dialogueDelete aborts a session from the HTML page.
func (s *server) dialogueDelete(w http.ResponseWriter, r *http.Request) {
	if !parseForm(w, r) {
		return
	}
	s.sess.Delete(r.FormValue("id"))
	http.Redirect(w, r, "/dialogue", http.StatusSeeOther)
}
