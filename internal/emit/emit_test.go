package emit

import (
	"encoding/json"
	"strings"
	"testing"

	"nl2cm/internal/oassisql"
	"nl2cm/internal/rdf"
)

// demoPlan is the running example's logical form (paper Figure 1).
func demoPlan() *Plan {
	x := rdf.NewVar("x")
	anon := rdf.NewVar("_anon1")
	return &Plan{
		Question: "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?",
		Select:   Select{All: true},
		Where: []Pattern{
			{Triple: rdf.T(x, iri("instanceOf"), iri("Place")), Source: "places"},
			{Triple: rdf.T(x, iri("near"), iri("Forest_Hotel,_Buffalo,_NY")), Source: "near Forest Hotel , Buffalo"},
		},
		Crowd: []CrowdClause{
			{
				Patterns:     []Pattern{{Triple: rdf.T(x, iri("hasLabel"), rdf.NewLiteral("interesting"))}},
				Significance: Significance{TopK: 5, Desc: true},
			},
			{
				Patterns: []Pattern{
					{Triple: rdf.T(anon, iri("visit"), x)},
					{Triple: rdf.T(anon, iri("in"), iri("Fall"))},
				},
				Significance: Significance{Threshold: 0.1},
			},
		},
	}
}

func iri(local string) rdf.Term { return rdf.NewIRI("http://nl2cm.example/" + local) }

func TestRegistryListsFourBackends(t *testing.T) {
	names := Names()
	want := []string{"oassisql", "cypher", "mongodb", "sql"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names()[%d] = %q, want %q (default first, rest sorted)", i, names[i], n)
		}
	}
	for _, n := range names {
		b, ok := Lookup(n)
		if !ok || b.Name() != n {
			t.Errorf("Lookup(%q) inconsistent", n)
		}
	}
	if _, err := Emit("no-such-dialect", demoPlan()); err == nil {
		t.Error("Emit with unknown backend name should fail")
	}
}

func TestOassisEmitMatchesPrinter(t *testing.T) {
	p := demoPlan()
	r, err := Emit("oassisql", p)
	if err != nil {
		t.Fatal(err)
	}
	if want := OassisQuery(p).String(); r.Query != want {
		t.Errorf("oassis rendering diverges from the printer:\ngot:\n%s\nwant:\n%s", r.Query, want)
	}
	if !strings.Contains(r.Query, "WITH SUPPORT THRESHOLD = 0.1") ||
		!strings.Contains(r.Query, "LIMIT 5") {
		t.Errorf("missing significance criteria:\n%s", r.Query)
	}
	// The rendering must re-parse to the same query.
	q2, err := oassisql.Parse(r.Query)
	if err != nil {
		t.Fatalf("rendering does not re-parse: %v", err)
	}
	if q2.String() != r.Query {
		t.Errorf("re-parse round trip changed the query")
	}
	if len(r.Clauses) != 5 {
		t.Errorf("clauses = %d, want 5 (2 where + 3 satisfying)", len(r.Clauses))
	}
}

func TestEveryBackendEmitsTheDemoPlan(t *testing.T) {
	for _, b := range All() {
		r := b.Emit(demoPlan())
		if r.Query == "" {
			t.Errorf("%s: empty rendering", b.Name())
		}
		if r.Backend != b.Name() {
			t.Errorf("%s: rendering names backend %q", b.Name(), r.Backend)
		}
		// Every general pattern must be traced to a clause with its source.
		whereClauses := 0
		for _, c := range r.Clauses {
			if c.Clause == ClauseWhere {
				whereClauses++
				if c.Pattern == "" || c.Fragment == "" {
					t.Errorf("%s: clause missing pattern/fragment: %+v", b.Name(), c)
				}
			}
		}
		if whereClauses != 2 {
			t.Errorf("%s: %d where clauses, want 2", b.Name(), whereClauses)
		}
		if !b.Caps().Crowd && len(r.Notes) == 0 {
			t.Errorf("%s: dropped crowd clauses without a note", b.Name())
		}
	}
}

func TestSQLRendering(t *testing.T) {
	r, err := Emit("sql", demoPlan())
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT t0.s AS x\n" +
		"FROM triples AS t0\n" +
		"JOIN triples AS t1 ON t1.s = t0.s\n" +
		"WHERE t0.p = 'instanceOf' AND t0.o = 'Place'\n" +
		"  AND t1.p = 'near' AND t1.o = 'Forest_Hotel,_Buffalo,_NY'"
	if r.Query != want {
		t.Errorf("sql rendering:\ngot:\n%s\nwant:\n%s", r.Query, want)
	}
}

func TestMongoRenderingIsValidJSON(t *testing.T) {
	r, err := Emit("mongodb", demoPlan())
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(r.Query), &parsed); err != nil {
		t.Fatalf("rendering is not valid JSON: %v\n%s", err, r.Query)
	}
	filter, ok := parsed["filter"].(map[string]any)
	if !ok {
		t.Fatalf("no filter object:\n%s", r.Query)
	}
	x, ok := filter["x"].(map[string]any)
	if !ok || x["instanceOf"] != "Place" {
		t.Errorf("x document filter wrong: %v", filter)
	}
}

func TestCypherRendering(t *testing.T) {
	r, err := Emit("cypher", demoPlan())
	if err != nil {
		t.Fatal(err)
	}
	want := "MATCH (x)-[:instanceOf]->(:Resource {id: 'Place'}),\n" +
		"      (x)-[:near]->(:Resource {id: 'Forest_Hotel,_Buffalo,_NY'})\n" +
		"RETURN x"
	if r.Query != want {
		t.Errorf("cypher rendering:\ngot:\n%s\nwant:\n%s", r.Query, want)
	}
}

// Hostile literal values must never produce syntactically invalid (or
// injectable) output on any backend.
func TestLiteralEscaping(t *testing.T) {
	cases := []struct {
		name    string
		literal string
		want    map[string]string // backend -> expected escaped fragment
	}{
		{
			name:    "double quote",
			literal: `O"Hara`,
			want: map[string]string{
				"oassisql": `"O\"Hara"`,
				"sql":      `'O"Hara'`,
				"mongodb":  `"O\"Hara"`,
				"cypher":   `'O"Hara'`,
			},
		},
		{
			name:    "backslash",
			literal: `a\b`,
			want: map[string]string{
				"oassisql": `"a\\b"`,
				"sql":      `'a\b'`, // ANSI SQL: backslash has no special meaning
				"mongodb":  `"a\\b"`,
				"cypher":   `'a\\b'`,
			},
		},
		{
			name:    "single quote injection",
			literal: `x'); DROP TABLE triples; --`,
			want: map[string]string{
				"oassisql": `"x'); DROP TABLE triples; --"`,
				"sql":      `'x''); DROP TABLE triples; --'`,
				"mongodb":  `"x'); DROP TABLE triples; --"`,
				"cypher":   `'x\'); DROP TABLE triples; --'`,
			},
		},
		{
			name:    "mixed quotes and backslashes",
			literal: `\"'\`,
			want: map[string]string{
				"oassisql": `"\\\"'\\"`,
				"sql":      `'\"''\'`,
				"mongodb":  `"\\\"'\\"`,
				"cypher":   `'\\"\'\\'`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Plan{
				Select: Select{All: true},
				Where: []Pattern{{
					Triple: rdf.T(rdf.NewVar("x"), iri("hasLabel"), rdf.NewLiteral(tc.literal)),
				}},
				Crowd: []CrowdClause{{
					Patterns:     []Pattern{{Triple: rdf.T(rdf.NewVar("x"), iri("hasLabel"), rdf.NewLiteral(tc.literal))}},
					Significance: Significance{Threshold: 0.1},
				}},
			}
			for backend, frag := range tc.want {
				r, err := Emit(backend, p)
				if err != nil {
					t.Errorf("%s: %v", backend, err)
					continue
				}
				if !strings.Contains(r.Query, frag) {
					t.Errorf("%s: rendering lacks escaped literal %s:\n%s", backend, frag, r.Query)
				}
			}
			// The OASSIS-QL rendering must survive a parse round trip with
			// the literal value intact.
			r, err := Emit("oassisql", p)
			if err != nil {
				t.Fatal(err)
			}
			q, err := oassisql.Parse(r.Query)
			if err != nil {
				t.Fatalf("oassisql rendering does not re-parse: %v\n%s", err, r.Query)
			}
			if got := q.Where.Triples[0].O.Value(); got != tc.literal {
				t.Errorf("literal round trip: got %q, want %q", got, tc.literal)
			}
			// The mongo rendering must stay valid JSON.
			rm, err := Emit("mongodb", p)
			if err != nil {
				t.Fatal(err)
			}
			var parsed map[string]any
			if err := json.Unmarshal([]byte(rm.Query), &parsed); err != nil {
				t.Errorf("mongodb rendering is not valid JSON: %v\n%s", err, rm.Query)
			}
		})
	}
}

func TestCapabilityNegotiation(t *testing.T) {
	varPred := &Plan{
		Select: Select{All: true},
		Where:  []Pattern{{Triple: rdf.T(rdf.NewVar("x"), rdf.NewVar("p"), iri("Place"))}},
	}
	// Each dialect with variable predicates binds the predicate variable.
	for name, frag := range map[string]string{
		"oassisql": "$x $p Place",
		"sql":      "t0.p AS p",
		"cypher":   "(x)-[p]->",
	} {
		r, err := Emit(name, varPred)
		if err != nil {
			t.Errorf("%s: variable predicate should be expressible: %v", name, err)
			continue
		}
		if !strings.Contains(r.Query, frag) {
			t.Errorf("%s: rendering lacks %q:\n%s", name, frag, r.Query)
		}
	}
}

func TestEmptyGeneralSelection(t *testing.T) {
	p := &Plan{
		Select: Select{All: true},
		Crowd: []CrowdClause{{
			Patterns:     []Pattern{{Triple: rdf.T(rdf.NewVar("_anon1"), iri("visit"), rdf.NewVar("x"))}},
			Significance: Significance{Threshold: 0.1},
		}},
	}
	for _, b := range All() {
		r := b.Emit(p)
		if r.Query == "" {
			t.Errorf("%s: empty rendering", b.Name())
		}
	}
}

func TestPlanVarsOrderAndAnonSkipped(t *testing.T) {
	p := demoPlan()
	vars := p.Vars()
	if len(vars) != 1 || vars[0] != "x" {
		t.Errorf("Vars() = %v, want [x] (anon skipped)", vars)
	}
	if p.PureGeneral() {
		t.Error("demo plan has crowd clauses")
	}
}
