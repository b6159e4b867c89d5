package nl2cm

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nl2cm/internal/corpus"
	"nl2cm/internal/emit"
	"nl2cm/internal/sparql"
)

// -update regenerates the per-backend golden emission files from the
// current emitters: go test -run TestBackendGolden -update .
var updateGolden = flag.Bool("update", false, "rewrite the per-backend golden emission files")

// goldenFile maps each backend to its golden emission file.
var goldenFile = map[string]string{
	"oassisql": "golden_oassisql.txt",
	"sql":      "golden_sql.txt",
	"mongodb":  "golden_mongo.txt",
	"cypher":   "golden_cypher.txt",
}

// loadGoldenFile parses a golden file in the shared "=== <id>" format.
func loadGoldenFile(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	out := map[string]string{}
	var id string
	var lines []string
	flush := func() {
		if id != "" {
			out[id] = strings.Join(lines, "\n")
		}
	}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if rest, found := strings.CutPrefix(line, "=== "); found {
			flush()
			id = rest
			lines = nil
			continue
		}
		lines = append(lines, line)
	}
	flush()
	return out
}

// renderEntry formats one rendering for its golden file: the query text
// followed by any capability-fallback notes.
func renderEntry(r *Rendering) string {
	s := strings.TrimRight(r.Query, "\n")
	for _, n := range r.Notes {
		s += "\nnote: " + n
	}
	return s
}

// TestBackendGolden renders the whole supported corpus on every
// registered backend and compares against the per-backend golden files.
// Every question must emit on every backend (crowd clauses degrade with
// a note; nothing in the corpus needs a capability the dialects lack),
// and the OASSIS-QL emission must stay byte-identical to the composed
// query — one printer path, no drift.
func TestBackendGolden(t *testing.T) {
	if got := Backends(); len(got) != len(goldenFile) {
		t.Fatalf("registered backends %v do not match golden files %d", got, len(goldenFile))
	}
	tr := NewTranslator(DemoOntology())
	ctx := context.Background()
	rendered := map[string]map[string]string{}
	for name := range goldenFile {
		rendered[name] = map[string]string{}
	}
	var ids []string
	for _, q := range corpus.Supported() {
		res, err := tr.Translate(ctx, q.Text, Options{})
		if err != nil {
			t.Fatalf("%s: Translate: %v", q.ID, err)
		}
		ids = append(ids, q.ID)
		for name := range goldenFile {
			rend, err := res.Render(name)
			if err != nil {
				t.Errorf("%s: backend %s failed to emit: %v", q.ID, name, err)
				continue
			}
			if name == DefaultBackend && rend.Query != res.Query.String() {
				t.Errorf("%s: OASSIS-QL emission differs from the composed query\ngot:\n%s\nwant:\n%s",
					q.ID, rend.Query, res.Query)
			}
			rendered[name][q.ID] = renderEntry(rend)
		}
	}
	if t.Failed() {
		return
	}
	names := make([]string, 0, len(goldenFile))
	for name := range goldenFile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join("testdata", goldenFile[name])
		if *updateGolden {
			var b strings.Builder
			for _, id := range ids {
				fmt.Fprintf(&b, "=== %s\n%s\n", id, rendered[name][id])
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatalf("writing %s: %v", path, err)
			}
			t.Logf("wrote %s (%d entries)", path, len(ids))
			continue
		}
		golden := loadGoldenFile(t, path)
		if len(golden) != len(ids) {
			t.Errorf("%s: %d golden entries, corpus has %d (regenerate with -update)",
				path, len(golden), len(ids))
		}
		for _, id := range ids {
			want, ok := golden[id]
			if !ok {
				t.Errorf("%s: no golden entry for %s (regenerate with -update)", path, id)
				continue
			}
			if got := rendered[name][id]; got != want {
				t.Errorf("%s: %s emission differs from golden output\ngot:\n%s\nwant:\n%s",
					id, name, got, want)
			}
		}
	}
}

// TestCorpusSQLDifferential is the cross-backend differential at corpus
// scale: for every supported question, the general (WHERE) part of the
// plan — the part the SQL emitter renders — must produce the same
// bindings from the in-memory table source (full-scan ExternalSource
// adapter) as from the native RDF store evaluator.
func TestCorpusSQLDifferential(t *testing.T) {
	onto := DemoOntology()
	tr := NewTranslator(onto)
	mem := emit.LoadMemTable(onto.Store.Snapshot())
	ext := &emit.Adapter{Ext: mem}
	ctx := context.Background()
	checked, aggregated := 0, 0
	for _, q := range corpus.Supported() {
		res, err := tr.Translate(ctx, q.Text, Options{})
		if err != nil {
			t.Fatalf("%s: Translate: %v", q.ID, err)
		}
		if res.Plan == nil || len(res.Plan.Where) == 0 {
			continue
		}
		if _, err := EmitBackend("sql", res.Plan); err != nil {
			t.Errorf("%s: sql emission: %v", q.ID, err)
			continue
		}
		native, err := emit.ExecuteWhere(res.Plan, onto.Store.Snapshot())
		if err != nil {
			t.Errorf("%s: rdf evaluation: %v", q.ID, err)
			continue
		}
		external, err := emit.ExecuteWhere(res.Plan, ext)
		if err != nil {
			t.Errorf("%s: external evaluation: %v", q.ID, err)
			continue
		}
		if a, b := bindingKeys(native), bindingKeys(external); !equalStrings(a, b) {
			t.Errorf("%s: rdf and external bindings diverge\nrdf:      %v\nexternal: %v", q.ID, a, b)
		}
		checked++
		if res.Plan.Aggregated() {
			aggregated++
		}
	}
	if checked == 0 {
		t.Fatal("no corpus question exercised the differential")
	}
	if aggregated == 0 {
		t.Fatal("no corpus question exercised the GROUP BY differential")
	}
}

// bindingKeys canonicalizes bindings into a sorted multiset of strings.
func bindingKeys(bs []sparql.Binding) []string {
	out := make([]string, 0, len(bs))
	for _, b := range bs {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var parts []string
		for _, v := range vars {
			parts = append(parts, v+"="+b[v].String())
		}
		out = append(out, strings.Join(parts, " "))
	}
	sort.Strings(out)
	return out
}

// equalStrings compares two string slices elementwise.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
