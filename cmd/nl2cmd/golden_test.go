package main

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"nl2cm/internal/session"
)

// -update rewrites the golden bodies from the current code:
// go test -run 'TestAPIBackendsGolden|TestSessionExplainGolden' -update ./cmd/nl2cmd
var update = flag.Bool("update", false, "rewrite the golden bodies in testdata")

// TestAPIBackendsGolden serves GET /api/backends through the daemon's
// routes and compares the body, byte for byte, with
// testdata/api_backends.json: the dialects, their order and their
// capability flags.
func TestAPIBackendsGolden(t *testing.T) {
	rec := httptest.NewRecorder()
	testServer(t).routes().ServeHTTP(rec, httptest.NewRequest("GET", "/api/backends", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	checkGolden(t, "GET /api/backends", "api_backends.json", rec.Body.Bytes())
}

// TestSessionExplainGolden drives the two dialogues of
// TestSessionExplainEndpoint (the Buffalo question answered "New York",
// and the running example) and compares their GET
// /api/session/{id}/explain bodies, one per line, byte for byte with
// testdata/explain.json: the query, its annotated form, every provenance
// record, the composition decisions, the uncovered words and their tips.
func TestSessionExplainGolden(t *testing.T) {
	_, ts := sessionServer(t, serverConfig{})
	var bodies []byte
	for _, d := range []struct{ question, pick string }{
		{buffaloQ, "New York"},
		{"What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?", ""},
	} {
		snap := driveHTTP(t, ts, d.question, d.pick)
		if snap.State != session.StateDone {
			t.Fatalf("%q: state = %s (error %q)", d.question, snap.State, snap.Error)
		}
		resp, body := doJSON(t, "GET", ts.URL+"/api/session/"+snap.ID+"/explain", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: explain status %d: %s", d.question, resp.StatusCode, body)
		}
		bodies = append(bodies, body...)
	}
	checkGolden(t, "GET /api/session/{id}/explain", "explain.json", bodies)
}

// checkGolden compares got with the golden file testdata/name, or
// rewrites the file under -update.
func checkGolden(t *testing.T, what, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden body (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from %s (regenerate with -update if intended):\ngot:  %s\nwant: %s", what, golden, got, want)
	}
}
