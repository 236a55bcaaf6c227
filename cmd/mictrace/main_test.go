package main

import (
	"strings"
	"testing"
)

// TestCaptureTerminates: the traced exchange must run to quiescence (it hung
// until PR 17: the initiator never read the echo, so the responder's stream
// retransmitted it forever) and the capture must hold both directions.
func TestCaptureTerminates(t *testing.T) {
	rec, err := capture("", 20000, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A frame renders its source address after a space, its destination
	// after "->".
	text := rec.Text()
	h0, h15 := strings.Contains(text, " 10.0.0.1:"), strings.Contains(text, " 10.0.0.16:")
	if !h0 || !h15 {
		t.Fatalf("capture of %d events lacks a direction: from h0 %v, from h15 %v", rec.Len(), h0, h15)
	}
	if _, err := capture("nosuch", 100, 3, 0, 1); err == nil {
		t.Fatal("unknown switch name accepted")
	}
}

// TestCaptureFollowsSeed: one seed gives the same capture byte for byte;
// seeds 1 and 2 draw different paths, addresses or slices, so their
// captures differ.
func TestCaptureFollowsSeed(t *testing.T) {
	text := func(seed uint64) string {
		rec, err := capture("", 20000, 3, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Text()
	}
	one := text(1)
	if text(1) != one {
		t.Fatal("two captures at seed 1 differ")
	}
	if text(2) == one {
		t.Fatal("the captures at seeds 1 and 2 are identical: the seed reaches no draw")
	}
}
