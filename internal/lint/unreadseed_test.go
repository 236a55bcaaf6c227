package lint

import "testing"

func TestUnreadSeed(t *testing.T) {
	runTestdata(t, []*Analyzer{UnreadSeed}, "unreadseed")
}
