package lint

import "testing"

func TestDetRange(t *testing.T) {
	runTestdata(t, []*Analyzer{DetRange}, "detrange")
}

// TestDetRangeSkipsUntaggedPackages: the same analyzer applied to a fixture
// without the lint:deterministic directive must stay silent.
func TestDetRangeSkipsUntaggedPackages(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/handlerblock")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run([]*Analyzer{DetRange}, pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("detrange fired on an untagged package:\n%s", findingSummary(findings))
	}
}
