package lint

import (
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestREADMEListsSuite: the "### <name> —" headings of README.md are the
// suite, name for name and in reporting order, so the prose cannot describe
// a check that is gone or omit one that runs.
func TestREADMEListsSuite(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile(`(?m)^### (\w+) —`).FindAllSubmatch(readme, -1) {
		documented = append(documented, string(m[1]))
	}
	var suite []string
	for _, a := range Analyzers() {
		suite = append(suite, a.Name)
	}
	if !reflect.DeepEqual(documented, suite) {
		t.Errorf("README.md documents %v, Analyzers() returns %v", documented, suite)
	}
}
