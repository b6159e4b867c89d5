package oassisql

import (
	"os"
	"strings"
	"testing"
)

// FuzzParse checks the parser against the printer: any input Parse
// accepts must print, re-parse, and print to the same text again. It is
// seeded with Figure 1, every golden corpus query, and the forms Parse
// refuses: HAVING, SUM, COUNT(*) and a FILTER in a subclause.
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
	for _, refused := range []string{
		"SELECT $x COUNT($a) AS $n WHERE {$a locatedIn $x} GROUP BY $x HAVING(COUNT($a) > 2)",
		"SELECT $x SUM($s) AS $total WHERE {$x size $s} GROUP BY $x",
		"SELECT VARIABLES COUNT(*) AS $n WHERE {$x instanceOf Place}",
		"SELECT VARIABLES WHERE {$x instanceOf Place} SATISFYING {[] visit $x FILTER($x != $x)} WITH SUPPORT THRESHOLD = 0.1",
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
