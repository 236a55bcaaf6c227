package lint

import "testing"

// TestUnusedGolden runs the unused check over a two-package program: a
// command and the library it calls. The fixture covers a use from another
// package, a method reached only through an interface, recursion, a type
// used only by its own dead methods, a use from a _test.go file only, a
// kept type that keeps its methods, a directive with no reason, and an
// iota enum used in part.
func TestUnusedGolden(t *testing.T) {
	runTestdata(t, []*Analyzer{Unused}, "unused")
}
