package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postStore sends one /api/store batch and decodes the response.
func postStore(t *testing.T, s *server, body string) (storeResponse, *httptest.ResponseRecorder) {
	t.Helper()
	req := httptest.NewRequest("POST", "/api/store", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.apiStore(rec, req)
	var resp storeResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode store response: %v\n%s", err, rec.Body.String())
		}
	}
	return resp, rec
}

// TestAPIStoreInsertThenTranslate is the end-to-end freshness check for
// the mutable data plane: a city inserted over HTTP must resolve in the
// very next translation request, with no restart and no cache flush.
func TestAPIStoreInsertThenTranslate(t *testing.T) {
	s := testServer(t)
	const ns = "http://nl2cm.org/onto/"
	insert := fmt.Sprintf(`{"insert": "<%sNewville> <%slabel> \"Newville\" .\n<%sNewville> <%sinstanceOf> <%sCity> ."}`,
		ns, ns, ns, ns, ns)

	resp, rec := postStore(t, s, insert)
	if rec.Code != http.StatusOK {
		t.Fatalf("store status = %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Added != 2 || resp.Removed != 0 {
		t.Fatalf("added/removed = %d/%d, want 2/0", resp.Added, resp.Removed)
	}
	if resp.Epoch == 0 {
		t.Fatal("batch published epoch 0")
	}

	req := httptest.NewRequest("POST", "/api/translate",
		strings.NewReader(`{"question": "Which restaurants are near Newville?"}`))
	tr := httptest.NewRecorder()
	s.apiTranslate(tr, req)
	if tr.Code != http.StatusOK {
		t.Fatalf("translate status = %d: %s", tr.Code, tr.Body.String())
	}
	if body := tr.Body.String(); !strings.Contains(body, "Newville") {
		t.Errorf("translation after insert does not mention the new city:\n%s", body)
	}
}

// TestAPIStoreDelete checks the delete half and the epoch advance
// between consecutive batches.
func TestAPIStoreDelete(t *testing.T) {
	s := testServer(t)
	const triple = `<http://nl2cm.org/onto/Tmp> <http://nl2cm.org/onto/label> \"Tmp\" .`

	ins, rec := postStore(t, s, `{"insert": "`+triple+`"}`)
	if rec.Code != http.StatusOK || ins.Added != 1 {
		t.Fatalf("insert: status %d, added %d", rec.Code, ins.Added)
	}
	del, rec := postStore(t, s, `{"delete": "`+triple+`"}`)
	if rec.Code != http.StatusOK || del.Removed != 1 {
		t.Fatalf("delete: status %d, removed %d", rec.Code, del.Removed)
	}
	if del.Epoch <= ins.Epoch {
		t.Fatalf("epoch did not advance: %d then %d", ins.Epoch, del.Epoch)
	}
}

// TestAPIStoreRejectsBadBatches covers the 400 paths: malformed JSON,
// unparsable N-Triples, and an empty batch.
func TestAPIStoreRejectsBadBatches(t *testing.T) {
	s := testServer(t)
	for name, body := range map[string]string{
		"bad json":      `{`,
		"bad n-triples": `{"insert": "this is not a triple"}`,
		"empty batch":   `{}`,
		"variable":      `{"insert": "?x <http://nl2cm.org/onto/label> \"X\" ."}`,
	} {
		_, rec := postStore(t, s, body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, rec.Code)
		}
	}
}

// TestAPIStatsStoreSection checks /api/stats surfaces the store's
// epoch, triple total, and per-shard sizes, and that they track writes.
func TestAPIStatsStoreSection(t *testing.T) {
	s := testServer(t)
	stats := func() statsResponse {
		rec := httptest.NewRecorder()
		s.apiStats(rec, httptest.NewRequest("GET", "/api/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("stats status = %d", rec.Code)
		}
		var out statsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	before := stats()
	if before.Store.Triples == 0 {
		t.Fatal("stats reports an empty store")
	}
	if len(before.Store.Shards) == 0 {
		t.Fatal("stats reports no shards")
	}
	sum := 0
	for _, n := range before.Store.Shards {
		sum += n
	}
	if sum != before.Store.Triples {
		t.Fatalf("shard sizes sum to %d, want %d", sum, before.Store.Triples)
	}

	if _, rec := postStore(t, s, `{"insert": "<http://nl2cm.org/onto/A> <http://nl2cm.org/onto/near> <http://nl2cm.org/onto/B> ."}`); rec.Code != http.StatusOK {
		t.Fatalf("insert status = %d", rec.Code)
	}
	after := stats()
	if after.Store.Epoch <= before.Store.Epoch {
		t.Fatalf("epoch did not advance: %d then %d", before.Store.Epoch, after.Store.Epoch)
	}
	if after.Store.Triples != before.Store.Triples+1 {
		t.Fatalf("triples = %d, want %d", after.Store.Triples, before.Store.Triples+1)
	}
}

// TestStaleDropInStatsAndAdmin: a batch that changes an ontology read of
// a cached plan (a label sharing the word "Park" changes the lookup of
// "Delaware Park") makes the next translation drop the plan, and the
// drop shows in /api/stats and on the admin page's plan-cache line.
func TestStaleDropInStatsAndAdmin(t *testing.T) {
	s, err := newServer(serverConfig{planCache: 16})
	if err != nil {
		t.Fatal(err)
	}
	s.timeout = 0
	t.Cleanup(s.sess.Close)
	const q = "Where do families eat near Delaware Park?"
	postForm(t, s, s.translate, q)
	if _, rec := postStore(t, s, `{"insert": "<http://nl2cm.org/onto/Stale_Park> <http://nl2cm.org/onto/label> \"Stale Park\" ."}`); rec.Code != http.StatusOK {
		t.Fatalf("store status = %d: %s", rec.Code, rec.Body)
	}
	postForm(t, s, s.translate, q)

	rec := httptest.NewRecorder()
	s.apiStats(rec, httptest.NewRequest("GET", "/api/stats", nil))
	var resp statsResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.PlanCache == nil || resp.PlanCache.Stale != 1 || resp.PlanCache.Misses != 2 {
		t.Fatalf("plan cache stats = %+v, want 1 stale drop and 2 misses", resp.PlanCache)
	}
	rec = httptest.NewRecorder()
	s.admin(rec, httptest.NewRequest("GET", "/admin", nil))
	if !strings.Contains(rec.Body.String(), "1 dropped as stale") {
		t.Errorf("admin page lacks the stale count:\n%s", rec.Body)
	}
}
