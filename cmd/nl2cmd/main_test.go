package main

import (
	"context"
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"
	"time"

	"nl2cm"
)

func testServer(t *testing.T) *server {
	t.Helper()
	s, err := newServer(serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.timeout = 0
	t.Cleanup(s.sess.Close)
	return s
}

const question = "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?"

func TestHomePage(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.home(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "<form") || !strings.Contains(body, "NL2CM") {
		t.Errorf("home page lacks the question form:\n%s", body)
	}
}

func TestHomeNotFoundForOtherPaths(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.home(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
}

func postForm(t *testing.T, s *server, handler func(http.ResponseWriter, *http.Request), q string) *httptest.ResponseRecorder {
	t.Helper()
	form := url.Values{"q": {q}}
	req := httptest.NewRequest("POST", "/translate", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	handler(rec, req)
	return rec
}

func TestTranslateEndpoint(t *testing.T) {
	s := testServer(t)
	rec := postForm(t, s, s.translate, question)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"SELECT VARIABLES",
		"Forest_Hotel,_Buffalo,_NY",
		"ix-lexical",  // the Figure-4 highlighting
		"interesting", // the detected IX
	} {
		if !strings.Contains(body, want) {
			t.Errorf("translate page missing %q", want)
		}
	}
}

// TestHighlightKeepsTheQuestionAsTyped: the translate page marks the
// IXs in the question as it was typed, so with the marks stripped the
// highlight is the question again, its punctuation spacing included.
func TestHighlightKeepsTheQuestionAsTyped(t *testing.T) {
	s := testServer(t)
	res, err := s.tr.Translate(context.Background(), question, nl2cm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	marked := string(s.buildPage(question, res).Highlight)
	if !strings.Contains(marked, `<mark class="ix-`) {
		t.Errorf("no IX marked:\n%s", marked)
	}
	if text := html.UnescapeString(regexp.MustCompile(`<[^>]*>`).ReplaceAllString(marked, "")); text != question {
		t.Errorf("highlight without its tags reads\n%q\nwant the question\n%q", text, question)
	}
}

func TestTranslateEndpointUnsupported(t *testing.T) {
	s := testServer(t)
	rec := postForm(t, s, s.translate, "How should I store coffee?")
	body := rec.Body.String()
	if !strings.Contains(body, "not supported") {
		t.Errorf("unsupported question page lacks the warning:\n%s", body)
	}
	if !strings.Contains(body, "At what container should I store coffee?") {
		t.Error("rephrasing tip missing")
	}
}

func TestExecuteEndpoint(t *testing.T) {
	s := testServer(t)
	rec := postForm(t, s, s.execute, question)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"Delaware Park", "crowd tasks", "significant bindings"} {
		if !strings.Contains(body, want) {
			t.Errorf("execute page missing %q", want)
		}
	}
}

func TestAdminPage(t *testing.T) {
	s := testServer(t)
	// Before any translation: empty admin page.
	rec := httptest.NewRecorder()
	s.admin(rec, httptest.NewRequest("GET", "/admin", nil))
	if !strings.Contains(rec.Body.String(), "No translation yet") {
		t.Error("empty admin page wrong")
	}
	// After a translation: module trace visible, and the uncovered words
	// with their tip, which the template reads from Result's methods.
	postForm(t, s, s.translate, question)
	rec = httptest.NewRecorder()
	s.admin(rec, httptest.NewRequest("GET", "/admin", nil))
	body := rec.Body.String()
	for _, want := range []string{"NL Parser", "IX Detector", "Query Composition"} {
		if !strings.Contains(body, want) {
			t.Errorf("admin page missing module %q", want)
		}
	}
	for _, want := range []string{"Uncovered words", "<b>Forest</b> (bytes 42–48)", "The translation did not use"} {
		if !strings.Contains(body, want) {
			t.Errorf("admin page missing %q", want)
		}
	}
}

func TestAPITranslate(t *testing.T) {
	s := testServer(t)
	payload := `{"question": "Which hotel in Vegas has the best thrill ride?"}`
	req := httptest.NewRequest("POST", "/api/translate", strings.NewReader(payload))
	rec := httptest.NewRecorder()
	s.apiTranslate(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp apiResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Supported || !strings.Contains(resp.Query, "SATISFYING") {
		t.Errorf("api response = %+v", resp)
	}
	if len(resp.IXs) == 0 {
		t.Error("api response lists no IXs")
	}
}

func TestAPITranslateUnsupported(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("POST", "/api/translate", strings.NewReader(`{"question": "Why is the sky blue?"}`))
	rec := httptest.NewRecorder()
	s.apiTranslate(rec, req)
	var resp apiResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Supported || resp.Reason == "" || len(resp.Tips) == 0 {
		t.Errorf("api response = %+v", resp)
	}
}

// TestAPIBackends checks the backend listing: the four shipped dialects
// with the default (OASSIS-QL) first, capability flags included.
func TestAPIBackends(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.apiBackends(rec, httptest.NewRequest("GET", "/api/backends", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out []backendInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, b := range out {
		names = append(names, b.Name)
	}
	want := []string{"oassisql", "cypher", "mongodb", "sql"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("backends = %v, want %v", names, want)
	}
	if !out[0].Default || !out[0].Caps.Crowd {
		t.Errorf("default backend entry = %+v", out[0])
	}
	for _, b := range out[1:] {
		if b.Default || b.Caps.Crowd {
			t.Errorf("backend %s unexpectedly default or crowd-capable", b.Name)
		}
	}
}

// TestAPITranslateBackend requests the SQL rendering alongside the
// OASSIS-QL query and checks its per-clause provenance survived the trip.
func TestAPITranslateBackend(t *testing.T) {
	s := testServer(t)
	payload := `{"question": "` + question + `", "backend": "sql"}`
	req := httptest.NewRequest("POST", "/api/translate", strings.NewReader(payload))
	rec := httptest.NewRecorder()
	s.apiTranslate(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp apiResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Query, "SELECT VARIABLES") {
		t.Errorf("OASSIS-QL query missing: %q", resp.Query)
	}
	r := resp.Rendering
	if r == nil || r.Backend != "sql" {
		t.Fatalf("rendering = %+v", r)
	}
	if !strings.Contains(r.Query, "FROM triples AS t0") {
		t.Errorf("sql rendering = %q", r.Query)
	}
	if len(r.Clauses) == 0 {
		t.Fatal("rendering has no clause provenance")
	}
	for _, c := range r.Clauses {
		if c.Source == "" || len(c.Tokens) == 0 {
			t.Errorf("clause %q lost its provenance: %+v", c.Fragment, c)
		}
	}
	if len(r.Notes) == 0 {
		t.Error("crowd clauses dropped without a note")
	}
}

// TestAPITranslateUnknownBackend maps a bad backend name to 400 before
// any translation work happens.
func TestAPITranslateUnknownBackend(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("POST", "/api/translate",
		strings.NewReader(`{"question": "`+question+`", "backend": "oracle"}`))
	rec := httptest.NewRecorder()
	s.apiTranslate(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
}

// TestTranslateFormBackend drives the HTML form with a backend selection
// and expects the extra dialect block on the page.
func TestTranslateFormBackend(t *testing.T) {
	s := testServer(t)
	form := url.Values{"q": {question}, "backend": {"cypher"}}
	req := httptest.NewRequest("POST", "/translate", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	s.translate(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"Query in the cypher dialect", "MATCH", "SELECT VARIABLES"} {
		if !strings.Contains(body, want) {
			t.Errorf("page missing %q", want)
		}
	}
}

func TestAPITranslateBadJSON(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("POST", "/api/translate", strings.NewReader("{nope"))
	rec := httptest.NewRecorder()
	s.apiTranslate(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
}

func TestHighlightEscapesHTML(t *testing.T) {
	s := testServer(t)
	rec := postForm(t, s, s.translate, `Where do you visit in <Buffalo>?`)
	body := rec.Body.String()
	if strings.Contains(body, "<Buffalo>") {
		t.Error("unescaped user input in page")
	}
}

func TestCorpusPage(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.corpus(rec, httptest.NewRequest("GET", "/corpus", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"travel-01", "Forest Hotel", "rejected (descriptive)"} {
		if !strings.Contains(body, want) {
			t.Errorf("corpus page missing %q", want)
		}
	}
}

// TestAPITranslateConcurrent drives parallel POST /api/translate
// requests through the real mux: with the translation lock gone, all of
// them must complete (under -race this also checks the shared
// Translator and admin snapshot).
func TestAPITranslateConcurrent(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	const workers = 8
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/api/translate", "application/json",
				strings.NewReader(`{"question": "`+question+`"}`))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out apiResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK || !out.Supported {
				errs <- fmt.Errorf("status %d, supported %v", resp.StatusCode, out.Supported)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// The admin snapshot survived the concurrent updates.
	rec := httptest.NewRecorder()
	s.admin(rec, httptest.NewRequest("GET", "/admin", nil))
	if !strings.Contains(rec.Body.String(), "NL Parser") {
		t.Error("admin page lost the trace after concurrent requests")
	}
}

// TestAPITranslateCancelled verifies that a request whose context is
// already cancelled (client gone) does not produce a 200 and is mapped
// by translateError, exercising r.Context() propagation end to end.
func TestAPITranslateCancelled(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/api/translate",
		strings.NewReader(`{"question": "`+question+`"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.apiTranslate(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want %d", rec.Code, http.StatusServiceUnavailable)
	}
}

// TestTranslateTimeout bounds a translation with a tiny server timeout;
// the deadline maps to 504.
func TestTranslateTimeout(t *testing.T) {
	s := testServer(t)
	s.timeout = time.Nanosecond
	rec := postForm(t, s, s.translate, question)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want %d", rec.Code, http.StatusGatewayTimeout)
	}
}

// The /api/stats crowd section: engine-lifetime counters, plus the
// streaming-executor metrics when -crowd-scale is on.
func TestAPIStatsCrowdSection(t *testing.T) {
	s, err := newServer(serverConfig{crowdSize: 400, crowdSeed: 11, crowdScale: true})
	if err != nil {
		t.Fatal(err)
	}
	s.timeout = 0
	t.Cleanup(s.close)
	if s.eng.Scale == nil {
		t.Fatal("crowdScale did not attach a scale executor")
	}

	postForm(t, s, s.execute, question)

	rec := httptest.NewRecorder()
	s.apiStats(rec, httptest.NewRequest("GET", "/api/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp statsResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Crowd.Executions != 1 || resp.Crowd.TasksIssued == 0 {
		t.Errorf("crowd stats = %+v, want one execution with tasks", resp.Crowd)
	}
	if resp.Crowd.CrowdSize != 400 {
		t.Errorf("crowd size = %d, want 400", resp.Crowd.CrowdSize)
	}
	if resp.Crowd.Scale == nil {
		t.Fatal("crowd stats lack the scale section")
	}
	if resp.Crowd.Scale.TasksDecided == 0 || resp.Crowd.Scale.MemberAnswers == 0 {
		t.Errorf("scale stats = %+v, want decided tasks and member answers", *resp.Crowd.Scale)
	}
	if resp.Crowd.Scale.Population != 400 {
		t.Errorf("scale population = %d, want 400", resp.Crowd.Scale.Population)
	}

	// The admin page renders the same counters.
	rec = httptest.NewRecorder()
	s.admin(rec, httptest.NewRequest("GET", "/admin", nil))
	if body := rec.Body.String(); !strings.Contains(body, "Crowd engine") || !strings.Contains(body, "Streaming executor") {
		t.Error("admin page lacks the crowd engine / streaming executor sections")
	}
}

// Without -crowd-scale the crowd section still reports the synchronous
// engine's counters (and no scale subsection).
func TestAPIStatsCrowdWithoutScale(t *testing.T) {
	s := testServer(t)
	postForm(t, s, s.execute, question)
	rec := httptest.NewRecorder()
	s.apiStats(rec, httptest.NewRequest("GET", "/api/stats", nil))
	var resp statsResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Crowd.Scale != nil {
		t.Error("scale section present without -crowd-scale")
	}
	if resp.Crowd.Executions != 1 || resp.Crowd.SupportCacheMisses == 0 {
		t.Errorf("crowd stats = %+v", resp.Crowd)
	}
}
