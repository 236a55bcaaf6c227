package chaos

import (
	"testing"
	"time"

	"mic/internal/topo"
)

// TestStormDeterministic: the same seed must yield the identical dial
// schedule — times, pair choices, length — across repeated builds.
func TestStormDeterministic(t *testing.T) {
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SetupStorm(g, 7, StormConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SetupStorm(g, 7, StormConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dial %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestStormVariesBySeed guards the identity check against vacuity.
func TestStormVariesBySeed(t *testing.T) {
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := SetupStorm(g, 7, StormConfig{})
	b, _ := SetupStorm(g, 8, StormConfig{})
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("storms for seeds 7 and 8 are identical; the schedule ignores the seed")
	}
}

// TestStormShape: arrivals are sorted, confined to
// [stormStart, stormStart+Window), cross-fabric (initiator and responder
// sets disjoint), and the achieved rate is within a factor of two of the
// offered rate.
func TestStormShape(t *testing.T) {
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StormConfig{Pairs: 4, Rate: 1000, Window: 80 * time.Millisecond}
	dials, err := SetupStorm(g, 11, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	initiators := make(map[topo.NodeID]bool)
	for _, h := range hosts[:cfg.Pairs] {
		initiators[h] = true
	}
	last := time.Duration(0)
	for i, d := range dials {
		if d.At < last {
			t.Fatalf("dial %d out of order: %v after %v", i, d.At, last)
		}
		last = d.At
		if d.At < stormStart || d.At >= stormStart+cfg.Window {
			t.Fatalf("dial %d at %v outside [%v, %v)", i, d.At, stormStart, stormStart+cfg.Window)
		}
		if !initiators[d.From] || initiators[d.To] {
			t.Fatalf("dial %d: %d -> %d crosses the initiator/responder split wrong", i, d.From, d.To)
		}
	}
	want := cfg.Rate * cfg.Window.Seconds()
	if n := float64(len(dials)); n < want/2 || n > want*2 {
		t.Errorf("achieved %d dials, offered rate predicts ~%.0f", len(dials), want)
	}
}

// TestStormMaxDialsCap: the schedule never exceeds the safety cap.
func TestStormMaxDialsCap(t *testing.T) {
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	dials, err := SetupStorm(g, 3, StormConfig{Rate: 1e6, MaxDials: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(dials) != 25 {
		t.Fatalf("cap ignored: %d dials, want 25", len(dials))
	}
}

// TestStormRejectsTooManyPairs: a topology without 2*Pairs hosts is a
// configuration error, not a silent overlap of initiators and responders.
func TestStormRejectsTooManyPairs(t *testing.T) {
	g, err := topo.FatTree(4) // 16 hosts
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SetupStorm(g, 1, StormConfig{Pairs: 9}); err == nil {
		t.Fatal("storm accepted 9 pairs on a 16-host fabric")
	}
}
