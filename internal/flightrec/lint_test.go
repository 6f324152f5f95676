package flightrec

import (
	"os"
	"strings"
	"testing"
)

// TestWaitNamesDocumented asserts every registered wait-event name appears
// in DESIGN.md's wait-event taxonomy table, so the code and the
// documentation cannot drift apart silently.
func TestWaitNamesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("reading DESIGN.md: %v", err)
	}
	text := string(doc)
	for _, name := range waitNames {
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("wait event %q is not documented in DESIGN.md's taxonomy table", name)
		}
	}
}
