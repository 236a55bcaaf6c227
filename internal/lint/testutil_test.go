package lint

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts golden expectations from fixture comments, analysistest
// style: a comment containing the word want followed by a backquoted
// regexp expects one diagnostic on that line whose message matches it.
var wantRe = regexp.MustCompile("want `([^`]+)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runTestdata loads ./testdata/src/<name> and the packages below it (the
// whole program, for the unused check), runs the analyzers over it, and
// compares the surviving findings against the fixture's want comments —
// which exercises suppression too: a suppressed diagnostic has no want
// comment and must not surface.
func runTestdata(t *testing.T, analyzers []*Analyzer, name string) {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+name+"/...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", name)
	}

	findings, err := Run(analyzers, pkgs, nil)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", name, err)
	}

	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != f.Position.Filename || w.line != f.Position.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// findingSummary is a debugging aid for failed golden runs.
func findingSummary(findings []Finding) string {
	var b strings.Builder
	for _, f := range findings {
		fmt.Fprintln(&b, f)
	}
	return b.String()
}
