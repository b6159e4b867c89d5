package main

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites the golden body from the current code:
// go test -run TestAPIBackendsGolden -update ./cmd/nl2cmd
var update = flag.Bool("update", false, "rewrite testdata/api_backends.json")

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
	golden := filepath.Join("testdata", "api_backends.json")
	if *update {
		if err := os.WriteFile(golden, rec.Body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden body (regenerate with -update): %v", err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("GET /api/backends differs from %s (regenerate with -update if intended):\ngot:  %s\nwant: %s",
			golden, rec.Body.Bytes(), want)
	}
}
