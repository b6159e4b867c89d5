package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// serve sends one request through the daemon's routes.
func serve(s *server, method, path, contentType, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, req)
	return rec
}

const (
	formType = "application/x-www-form-urlencoded"
	jsonType = "application/json"
)

func formBody(q string) string { return url.Values{"q": {q}}.Encode() }

func jsonBody(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// capQuestion returns a question of exactly n bytes.
func capQuestion(n int) string {
	q := "Where do you visit in Buffalo"
	for len(q)+len(" and Buffalo")+1 <= n {
		q += " and Buffalo"
	}
	return q + strings.Repeat("?", n-len(q))
}

func TestOversizedBodiesAre413(t *testing.T) {
	s, err := newServer(serverConfig{planCache: 16})
	if err != nil {
		t.Fatal(err)
	}
	s.timeout = 0
	t.Cleanup(s.sess.Close)

	start := serve(s, "POST", "/api/session", jsonType, jsonBody(t, map[string]string{"question": buffaloQ}))
	if start.Code != http.StatusCreated {
		t.Fatalf("starting a session: status %d: %s", start.Code, start.Body)
	}
	id := decodeSnapshot(t, start.Body.Bytes()).ID

	big := strings.Repeat("a", maxBodyBytes)
	for _, c := range []struct{ path, contentType, body string }{
		{"/translate", formType, formBody(big)},
		{"/execute", formType, formBody(big)},
		{"/api/translate", jsonType, jsonBody(t, map[string]string{"question": big})},
		{"/api/store", jsonType, jsonBody(t, map[string]string{"insert": strings.Repeat("a", maxStoreBodyBytes)})},
		{"/api/session", jsonType, jsonBody(t, map[string]string{"question": big})},
		{"/api/session/" + id + "/answer", jsonType, `{"question": 1, "pad": "` + big + `"}`},
		{"/dialogue", formType, formBody(big)},
		{"/dialogue/answer", formType, url.Values{"id": {id}, "pad": {big}}.Encode()},
		{"/dialogue/delete", formType, url.Values{"id": {id}, "pad": {big}}.Encode()},
	} {
		rec := serve(s, "POST", c.path, c.contentType, c.body)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413: %.200s", c.path, len(c.body), rec.Code, rec.Body)
		}
	}
	// An N-Triples batch larger than the question cap is still accepted.
	triples := strings.Repeat("<http://nl2cm.org/onto/Newville> <http://nl2cm.org/onto/label> \"Newville\" .\n", 2*maxBodyBytes/80)
	if rec := serve(s, "POST", "/api/store", jsonType, jsonBody(t, map[string]string{"insert": triples})); rec.Code != http.StatusOK {
		t.Errorf("POST /api/store with a %d-byte batch: status %d: %s", len(triples), rec.Code, rec.Body)
	}
}

func TestQuestionLengthCap(t *testing.T) {
	s, err := newServer(serverConfig{planCache: 16})
	if err != nil {
		t.Fatal(err)
	}
	s.timeout = 0
	t.Cleanup(s.sess.Close)

	atCap, over := capQuestion(maxQuestionBytes), capQuestion(maxQuestionBytes+1)
	if len(atCap) != maxQuestionBytes || len(over) != maxQuestionBytes+1 {
		t.Fatalf("question lengths %d and %d", len(atCap), len(over))
	}
	for _, c := range []struct {
		path, contentType string
		body              func(q string) string
		ok                int
	}{
		{"/translate", formType, formBody, http.StatusOK},
		{"/execute", formType, formBody, http.StatusOK},
		{"/api/translate", jsonType, func(q string) string { return jsonBody(t, map[string]string{"question": q}) }, http.StatusOK},
		{"/api/session", jsonType, func(q string) string { return jsonBody(t, map[string]string{"question": q}) }, http.StatusCreated},
		{"/dialogue", formType, formBody, http.StatusSeeOther},
	} {
		if rec := serve(s, "POST", c.path, c.contentType, c.body(atCap)); rec.Code != c.ok {
			t.Errorf("POST %s with a %d-byte question: status %d, want %d: %.200s", c.path, len(atCap), rec.Code, c.ok, rec.Body)
		}
		cache, sessions := s.tr.Cache.Stats(), s.sess.Metrics()
		rec := serve(s, "POST", c.path, c.contentType, c.body(over))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "question too long") {
			t.Errorf("POST %s with a %d-byte question: status %d, want 400 question too long: %.200s", c.path, len(over), rec.Code, rec.Body)
		}
		if got := s.tr.Cache.Stats(); got != cache {
			t.Errorf("POST %s with an oversized question moved the plan-cache stats: %+v -> %+v", c.path, cache, got)
		}
		if got := s.sess.Metrics(); got.Started != sessions.Started {
			t.Errorf("POST %s with an oversized question started a session", c.path)
		}
	}
}
