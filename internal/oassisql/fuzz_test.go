package oassisql

import (
	"os"
	"strings"
	"testing"
)

// FuzzParse checks the parser against the printer: any input Parse
// accepts must print, re-parse, and print to the same text again. It is
// seeded with Figure 1, every golden corpus query, a WHERE filter using
// IN (…), ! and ||, and the forms Parse refuses: HAVING, SUM, COUNT(*), a
// FILTER in a subclause, and WHERE filters calling STRLEN, POS or SUM,
// testing IN or NOT IN V_participant, or reading an unbound $y.
func FuzzParse(f *testing.F) {
	f.Add(figure1)
	golden, err := os.ReadFile("../../testdata/golden_oassisql.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, entry := range strings.Split(string(golden), "=== ")[1:] {
		_, query, _ := strings.Cut(entry, "\n") // drop the entry's id line
		f.Add(strings.TrimSuffix(query, "\n"))
	}
	f.Add("SELECT VARIABLES WHERE {$x instanceOf Place. $x near $y FILTER(!($x IN (Delaware_Park, Buffalo_Zoo)) || $y = Forest_Hotel)}")
	for _, refused := range []string{
		"SELECT $x COUNT($a) AS $n WHERE {$a locatedIn $x} GROUP BY $x HAVING(COUNT($a) > 2)",
		"SELECT $x SUM($s) AS $total WHERE {$x size $s} GROUP BY $x",
		"SELECT VARIABLES COUNT(*) AS $n WHERE {$x instanceOf Place}",
		"SELECT VARIABLES WHERE {$x instanceOf Place} SATISFYING {[] visit $x FILTER($x != $x)} WITH SUPPORT THRESHOLD = 0.1",
		"SELECT VARIABLES WHERE {$x instanceOf Place FILTER(STRLEN($x) > 1)}",
		`SELECT VARIABLES WHERE {$x instanceOf Place FILTER(POS($x) = "noun")}`,
		"SELECT VARIABLES WHERE {$x size $s FILTER(SUM($s) > 2)}",
		"SELECT VARIABLES WHERE {$x instanceOf Place FILTER($x IN V_participant)}",
		"SELECT VARIABLES WHERE {$x instanceOf Place FILTER($x NOT IN V_participant)}",
		"SELECT VARIABLES WHERE {$x instanceOf Place FILTER($y != $x)}",
	} {
		f.Add(refused)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := q.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed query does not re-parse: %v\ninput: %q\nprinted:\n%s", err, input, printed)
		}
		if reprinted := again.String(); reprinted != printed {
			t.Fatalf("print is not stable:\ninput: %q\nfirst:\n%s\nsecond:\n%s", input, printed, reprinted)
		}
	})
}
