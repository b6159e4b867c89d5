package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"nl2cm/internal/interact"
	"nl2cm/internal/session"
)

const buffaloQ = "Where do you visit in Buffalo?"

// sessionServer is a testServer with session knobs suited to driving
// dialogues over HTTP.
func sessionServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.sess.Close)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var r *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = bytes.NewReader(data)
	} else {
		r = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decodeSnapshot(t *testing.T, data []byte) session.Snapshot {
	t.Helper()
	var snap session.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("decoding snapshot %s: %v", data, err)
	}
	return snap
}

// wireAnswer builds the answer a client would post for the question:
// accept everything, pick the choice whose label or description contains
// pick (first otherwise), keep numeric defaults.
func wireAnswer(q *session.Question, pick string) session.Answer {
	var a session.Answer
	switch q.Kind {
	case interact.KindIXVerify:
		a.Accept = make([]bool, len(q.Spans))
		for i := range a.Accept {
			a.Accept[i] = true
		}
	case interact.KindProjection:
		a.Accept = make([]bool, len(q.Vars))
		for i := range a.Accept {
			a.Accept[i] = true
		}
	case interact.KindChoice:
		c := 0
		if pick != "" {
			for i, opt := range q.Choices {
				if strings.Contains(opt.Label, pick) || strings.Contains(opt.Description, pick) {
					c = i
					break
				}
			}
		}
		a.Choice = &c
	case interact.KindNumber:
		n := q.Default
		a.Number = &n
	}
	return a
}

// driveHTTP runs a full dialogue over the REST endpoints, answering
// every question, and returns the terminal snapshot.
func driveHTTP(t *testing.T, ts *httptest.Server, question, pick string) session.Snapshot {
	t.Helper()
	resp, body := doJSON(t, "POST", ts.URL+"/api/session", sessionStartRequest{Question: question})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("start: status %d: %s", resp.StatusCode, body)
	}
	snap := decodeSnapshot(t, body)
	deadline := time.Now().Add(30 * time.Second)
	for !snap.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("dialogue did not finish; stuck at %+v", snap)
		}
		if snap.Question == nil {
			// The pipeline is computing; poll.
			resp, body = doJSON(t, "GET", ts.URL+"/api/session/"+snap.ID, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("poll: status %d: %s", resp.StatusCode, body)
			}
			snap = decodeSnapshot(t, body)
			continue
		}
		resp, body = doJSON(t, "POST", ts.URL+"/api/session/"+snap.ID+"/answer",
			sessionAnswerRequest{Question: snap.Question.ID, Answer: wireAnswer(snap.Question, pick)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("answer: status %d: %s", resp.StatusCode, body)
		}
		snap = decodeSnapshot(t, body)
	}
	return snap
}

// TestSessionDialogueOverHTTP drives the paper's Figure 3–6 flow through
// the REST protocol: the Buffalo disambiguation answered with the
// Illinois reading must surface in the final query.
func TestSessionDialogueOverHTTP(t *testing.T) {
	_, ts := sessionServer(t, serverConfig{})
	snap := driveHTTP(t, ts, buffaloQ, "Illinois")
	if snap.State != session.StateDone {
		t.Fatalf("state = %s (error %q)", snap.State, snap.Error)
	}
	if !strings.Contains(snap.Query, "Buffalo,_IL") {
		t.Errorf("query does not use the chosen entity:\n%s", snap.Query)
	}
	if len(snap.Turns) == 0 {
		t.Fatal("no dialogue turns recorded")
	}
	for _, turn := range snap.Turns {
		if turn.Source != "user" {
			t.Errorf("turn %q answered by %q, want user", turn.Question.Prompt, turn.Source)
		}
	}
}

// TestSessionChoiceKeepsOtherCachedPlans: a dialogue answer records
// feedback in the translator the JSON API serves from, and the plan
// cache refills only the plans the choice changes. The Delaware Park
// plan is still a hit; the Buffalo question misses and names the
// chosen Buffalo.
func TestSessionChoiceKeepsOtherCachedPlans(t *testing.T) {
	_, ts := sessionServer(t, serverConfig{planCache: 16})
	const parkQ, eatQ = "Where do families eat near Delaware Park?", "Where should we eat in Buffalo?"
	translate := func(q string) (string, apiResponse) {
		t.Helper()
		resp, body := doJSON(t, "POST", ts.URL+"/api/translate", apiRequest{Question: q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %s", q, resp.StatusCode, body)
		}
		var out apiResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("X-Plan-Cache"), out
	}
	for _, q := range []string{parkQ, eatQ} {
		for _, want := range []string{"miss", "hit"} {
			if got, _ := translate(q); got != want {
				t.Fatalf("%q before the dialogue: X-Plan-Cache %q, want %q", q, got, want)
			}
		}
	}
	snap := driveHTTP(t, ts, eatQ, "Illinois")
	if snap.State != session.StateDone || !strings.Contains(snap.Query, "Buffalo,_IL") {
		t.Fatalf("dialogue: state %s (error %q), query\n%s", snap.State, snap.Error, snap.Query)
	}
	if got, _ := translate(parkQ); got != "hit" {
		t.Errorf("%q after the choice: X-Plan-Cache %q, want hit", parkQ, got)
	}
	if got, out := translate(eatQ); got != "miss" || !strings.Contains(out.Query, "Buffalo,_IL") {
		t.Errorf("%q after the choice: X-Plan-Cache %q, query\n%s\nwant a miss naming Buffalo,_IL", eatQ, got, out.Query)
	}
}

// TestSessionFeedbackPersistsAcrossRestart checks the ISSUE acceptance
// path: an accepted disambiguation lands in the feedback store, survives
// an atomic save + daemon restart, and is loaded by the next server.
func TestSessionFeedbackPersistsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feedback.json")

	s1, ts1 := sessionServer(t, serverConfig{feedback: path})
	snap := driveHTTP(t, ts1, buffaloQ, "Illinois")
	if snap.State != session.StateDone {
		t.Fatalf("state = %s (error %q)", snap.State, snap.Error)
	}
	s1.saveFeedback() // what shutdown does

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var counts map[string]map[string]int
	if err := json.Unmarshal(data, &counts); err != nil {
		t.Fatalf("persisted store is not valid JSON: %v\n%s", err, data)
	}
	found := 0
	for phrase, m := range counts {
		for entity, n := range m {
			if strings.Contains(entity, "Buffalo,_IL") {
				found = n
				_ = phrase
			}
		}
	}
	if found == 0 {
		t.Fatalf("chosen entity missing from persisted store:\n%s", data)
	}

	// "Restart": a fresh server over the same path must load the counts.
	s2, err := newServer(serverConfig{feedback: path})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.sess.Close)
	loaded, err := json.Marshal(s2.tr.Generator.Feedback)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(loaded), "Buffalo,_IL") {
		t.Errorf("restarted server did not load the feedback store: %s", loaded)
	}
}

// TestSessionEndpointErrors checks the error→status mapping of the REST
// protocol.
func TestSessionEndpointErrors(t *testing.T) {
	_, ts := sessionServer(t, serverConfig{})

	// Unknown session ids.
	for _, tc := range []struct{ method, url string }{
		{"GET", ts.URL + "/api/session/nope"},
		{"POST", ts.URL + "/api/session/nope/answer"},
		{"DELETE", ts.URL + "/api/session/nope"},
	} {
		resp, body := doJSON(t, tc.method, tc.url, sessionAnswerRequest{})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404 (%s)", tc.method, tc.url, resp.StatusCode, body)
		}
	}

	// Malformed and empty starts.
	resp, _ := doJSON(t, "POST", ts.URL+"/api/session", sessionStartRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty question: status %d, want 400", resp.StatusCode)
	}

	// A live session: wrong question id is a conflict, wrong shape a 400.
	resp, body := doJSON(t, "POST", ts.URL+"/api/session", sessionStartRequest{Question: buffaloQ})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("start: status %d: %s", resp.StatusCode, body)
	}
	snap := decodeSnapshot(t, body)
	if snap.Question == nil {
		t.Fatalf("no pending question: %s", body)
	}
	resp, _ = doJSON(t, "POST", ts.URL+"/api/session/"+snap.ID+"/answer",
		sessionAnswerRequest{Question: snap.Question.ID + 41, Answer: wireAnswer(snap.Question, "")})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale question id: status %d, want 409", resp.StatusCode)
	}
	choice := 0
	resp, _ = doJSON(t, "POST", ts.URL+"/api/session/"+snap.ID+"/answer",
		sessionAnswerRequest{Question: snap.Question.ID, Answer: session.Answer{Choice: &choice}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("shape mismatch: status %d, want 400", resp.StatusCode)
	}

	// Deleting ends it; the id is gone.
	resp, _ = doJSON(t, "DELETE", ts.URL+"/api/session/"+snap.ID, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete: status %d, want 204", resp.StatusCode)
	}
	resp, _ = doJSON(t, "GET", ts.URL+"/api/session/"+snap.ID, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted session still answers: status %d", resp.StatusCode)
	}
}

// TestDialogueFormRejectsNonFiniteNumbers posts "NaN" and "+Inf" as the
// dialogue form's number answer: each must be refused with 400 and leave
// the question pending, not reach the query as an unparsable
// "THRESHOLD = NaN". A valid answer then still lands.
func TestDialogueFormRejectsNonFiniteNumbers(t *testing.T) {
	_, ts := sessionServer(t, serverConfig{})
	resp, body := doJSON(t, "POST", ts.URL+"/api/session", sessionStartRequest{Question: buffaloQ})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("start: status %d: %s", resp.StatusCode, body)
	}
	snap := decodeSnapshot(t, body)
	for snap.Question == nil || snap.Question.Kind != "number" {
		switch {
		case snap.State.Terminal():
			t.Fatalf("dialogue ended before a number question: %+v", snap)
		case snap.Question == nil:
			resp, body = doJSON(t, "GET", ts.URL+"/api/session/"+snap.ID, nil)
		default:
			resp, body = doJSON(t, "POST", ts.URL+"/api/session/"+snap.ID+"/answer",
				sessionAnswerRequest{Question: snap.Question.ID, Answer: wireAnswer(snap.Question, "")})
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		snap = decodeSnapshot(t, body)
	}
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	post := func(number string) int {
		t.Helper()
		resp, err := client.PostForm(ts.URL+"/dialogue/answer", url.Values{
			"id":     {snap.ID},
			"qid":    {strconv.Itoa(snap.Question.ID)},
			"kind":   {"number"},
			"number": {number},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, bad := range []string{"NaN", "+Inf"} {
		if status := post(bad); status != http.StatusBadRequest {
			t.Errorf("number=%s: status %d, want 400", bad, status)
		}
	}
	if status := post("0.2"); status != http.StatusSeeOther {
		t.Errorf("number=0.2: status %d, want 303", status)
	}
}

// TestDialoguePage smoke-tests the server-rendered dialogue UI: start
// form, form-post start, pending question rendering, and abort.
func TestDialoguePage(t *testing.T) {
	_, ts := sessionServer(t, serverConfig{})
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}

	resp, err := client.Get(ts.URL + "/dialogue")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "Start dialogue") {
		t.Fatalf("dialogue form: status %d\n%s", resp.StatusCode, buf.String())
	}

	resp, err = client.PostForm(ts.URL+"/dialogue", map[string][]string{"q": {buffaloQ}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("start: status %d, want 303", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, "/dialogue?id=") {
		t.Fatalf("redirect = %q", loc)
	}

	resp, err = client.Get(ts.URL + loc)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.String()
	if !strings.Contains(body, "verify") || !strings.Contains(body, "Answer") {
		t.Errorf("session page lacks the pending question:\n%s", body)
	}

	id := strings.TrimPrefix(loc, "/dialogue?id=")
	resp, err = client.PostForm(ts.URL+"/dialogue/delete", map[string][]string{"id": {id}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Errorf("delete: status %d, want 303", resp.StatusCode)
	}
}

// TestAdminPageShowsSessionMetrics verifies the admin page's dialogue
// section reflects a finished session.
func TestAdminPageShowsSessionMetrics(t *testing.T) {
	s, ts := sessionServer(t, serverConfig{})
	driveHTTP(t, ts, buffaloQ, "Illinois")
	rec := httptest.NewRecorder()
	s.admin(rec, httptest.NewRequest("GET", "/admin", nil))
	body := rec.Body.String()
	for _, want := range []string{"Dialogue sessions", "1 completed", "disambiguation"} {
		if !strings.Contains(body, want) {
			t.Errorf("admin page missing %q:\n%s", want, body)
		}
	}
}

// TestSessionExplainEndpoint checks the provenance view of a finished
// dialogue: the annotated query carries source comments, and every
// provenance record cites at least one byte span of the question.
func TestSessionExplainEndpoint(t *testing.T) {
	_, ts := sessionServer(t, serverConfig{})

	resp, _ := doJSON(t, "GET", ts.URL+"/api/session/nope/explain", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp.StatusCode)
	}

	// A session parked on its first question has no Result yet.
	resp, body := doJSON(t, "POST", ts.URL+"/api/session", sessionStartRequest{Question: buffaloQ})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("start: status %d: %s", resp.StatusCode, body)
	}
	pending := decodeSnapshot(t, body)
	resp, _ = doJSON(t, "GET", ts.URL+"/api/session/"+pending.ID+"/explain", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("unfinished session: status %d, want 409", resp.StatusCode)
	}

	snap := driveHTTP(t, ts, buffaloQ, "New York")
	if snap.State != session.StateDone {
		t.Fatalf("state = %s (error %q)", snap.State, snap.Error)
	}
	resp, body = doJSON(t, "GET", ts.URL+"/api/session/"+snap.ID+"/explain", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	var ex explainResponse
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatalf("decoding explain response %s: %v", body, err)
	}
	if !ex.Supported || ex.Question != buffaloQ || ex.Query == "" {
		t.Fatalf("explain = %+v, want supported with query", ex)
	}
	if !strings.Contains(ex.Annotated, "# from: ") {
		t.Errorf("annotated query lacks source comments:\n%s", ex.Annotated)
	}
	if len(ex.Provenance) == 0 {
		t.Fatal("no provenance records")
	}
	for _, rec := range ex.Provenance {
		if len(rec.Spans) == 0 || rec.Text == "" {
			t.Errorf("record %q has no source span", rec.Triple)
			continue
		}
		for _, sp := range rec.Spans {
			if sp.Start < 0 || sp.End > len(buffaloQ) || sp.End <= sp.Start {
				t.Errorf("record %q span [%d,%d) outside question", rec.Triple, sp.Start, sp.End)
			}
		}
	}
	// The Buffalo question has no general triples, so no decisions; the
	// running example does — its explain view must report them.
	snap = driveHTTP(t, ts, "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?", "")
	if snap.State != session.StateDone {
		t.Fatalf("state = %s (error %q)", snap.State, snap.Error)
	}
	resp, body = doJSON(t, "GET", ts.URL+"/api/session/"+snap.ID+"/explain", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Decisions) == 0 {
		t.Error("no compose decisions reported for the running example")
	}
	kept := 0
	for _, d := range ex.Decisions {
		if d.Kept {
			kept++
		}
	}
	if kept == 0 {
		t.Errorf("every general triple dropped: %+v", ex.Decisions)
	}
}

// TestDialoguePageHighlightsSpans checks the Figure-4 rendering of the
// dialogue UI: the ix-verify question shows the question with colored
// byte-span marks and each expression's exact source phrase.
func TestDialoguePageHighlightsSpans(t *testing.T) {
	_, ts := sessionServer(t, serverConfig{})
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.PostForm(ts.URL+"/dialogue", map[string][]string{"q": {buffaloQ}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	loc := resp.Header.Get("Location")
	resp, err = client.Get(ts.URL + loc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.String()
	for _, want := range []string{`<mark class="ix-`, "source phrase", "bytes "} {
		if !strings.Contains(body, want) {
			t.Errorf("ix-verify page missing %q:\n%s", want, body)
		}
	}
}

// TestAdminPageShowsIXPatternStats checks that the administrator page
// tallies per-pattern IX matches and quotes the matched span text of
// recent translations.
func TestAdminPageShowsIXPatternStats(t *testing.T) {
	s, ts := sessionServer(t, serverConfig{})
	driveHTTP(t, ts, buffaloQ, "New York")
	rec := httptest.NewRecorder()
	s.admin(rec, httptest.NewRequest("GET", "/admin", nil))
	body := rec.Body.String()
	for _, want := range []string{"IX pattern matches", buffaloQ, "visit"} {
		if !strings.Contains(body, want) {
			t.Errorf("admin page missing %q:\n%s", want, body)
		}
	}
	if counts := s.ixStats.Counts(); len(counts) == 0 || counts[0].Count < 1 {
		t.Errorf("no pattern counts recorded: %+v", counts)
	}
	recent := s.ixStats.Recent()
	if len(recent) == 0 || recent[0].Question != buffaloQ {
		t.Fatalf("recent translations = %+v", recent)
	}
	for _, m := range recent[0].Matches {
		if m.Text == "" || !strings.Contains(buffaloQ, strings.ReplaceAll(m.Text, " ... ", " ")) &&
			!strings.Contains(buffaloQ, m.Text) {
			t.Errorf("match text %q not quoted from the question", m.Text)
		}
	}
}
