package oassisql

import (
	"os"
	"strings"
	"testing"
)

// FuzzParse checks the parser against the printer: any input Parse
// accepts must print, re-parse, and print to the same text again. It is
// seeded with Figure 1 and every golden corpus query.
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
