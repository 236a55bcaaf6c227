package main

import (
	"strings"
	"testing"
)

// TestCaptureTerminates: the traced exchange must run to quiescence (it hung
// until PR 17: the initiator never read the echo, so the responder's stream
// retransmitted it forever) and the capture must hold both directions.
func TestCaptureTerminates(t *testing.T) {
	rec, err := capture("", 20000, 3, 0)
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
	if _, err := capture("nosuch", 100, 3, 0); err == nil {
		t.Fatal("unknown switch name accepted")
	}
}
