package main

import "testing"

// TestCaptureTerminates: the traced exchange must run to quiescence (it hung
// until PR 17: the initiator never read the echo, so the responder's stream
// retransmitted it forever) and the capture must hold both directions.
func TestCaptureTerminates(t *testing.T) {
	rec, err := capture("", 20000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	h0, h15 := false, false
	for _, ev := range rec.Events() {
		switch ev.Pkt.SrcIP.String() {
		case "10.0.0.1":
			h0 = true
		case "10.0.0.16":
			h15 = true
		}
	}
	if !h0 || !h15 {
		t.Fatalf("capture of %d events lacks a direction: from h0 %v, from h15 %v", rec.Len(), h0, h15)
	}
	if _, err := capture("nosuch", 100, 3, 0); err == nil {
		t.Fatal("unknown switch name accepted")
	}
}
