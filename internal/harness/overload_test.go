package harness

import "testing"

// storm runs s at seed 7 with fig s9's per-stream payload.
func storm(t *testing.T, s Scenario) *StormResult {
	t.Helper()
	o, err := Run(s, Params{Seed: 7, Size: stormSize}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return o.Storm
}

// TestStormAcceptance is the issue's acceptance bar: a seeded setup storm
// at 4x the sustainable dial rate against capacity-bounded tables must
// reach steady state with zero silently-dropped requests, a refusal rate
// below 100% (degraded-F admissions occur), and goodput of admitted
// channels within 20% of an unloaded baseline.
func TestStormAcceptance(t *testing.T) {
	r := storm(t, StormScenario(4))

	// Zero silent drops: every scheduled dial's callback fired.
	if r.Answered != r.Dials {
		t.Fatalf("%d of %d dials never answered", r.Dials-r.Answered, r.Dials)
	}
	// A handful of untyped failures are tolerated: a connect whose SYN is
	// in flight when its rule is LRU-evicted can leak to common routing and
	// be reset — the known race window of capacity eviction. They are
	// answered, never silent, and must stay rare.
	if r.Failed > r.Dials/20 {
		t.Fatalf("%d of %d dials failed with untyped errors (first: %s)", r.Failed, r.Dials, r.FirstFailure)
	}
	if rr := r.RefusalRate(); rr >= 1 {
		t.Fatalf("refusal rate %.2f: nothing admitted at 4x overload", rr)
	}
	if r.Degraded == 0 {
		t.Error("no degraded-F admissions: the degradation ladder never engaged")
	}
	if r.Counters.Get("mflow_rules_evicted") == 0 {
		t.Error("no capacity evictions: tables never came under pressure")
	}

	// Goodput of admitted channels within 20% of an unloaded baseline (a
	// single dial on the same fabric and admission config).
	one := StormScenario(4)
	one.Storm.MaxDials = 1
	base := storm(t, one)
	if base.GoodputMbps <= 0 || r.GoodputMbps <= 0 {
		t.Fatalf("goodput missing: storm %.1f, baseline %.1f", r.GoodputMbps, base.GoodputMbps)
	}
	if r.GoodputMbps < 0.8*base.GoodputMbps {
		t.Errorf("admitted goodput %.1f Mbps under load, below 80%% of unloaded %.1f Mbps",
			r.GoodputMbps, base.GoodputMbps)
	}
}

// TestStormShedOffAblationWorse: with load shedding disabled the queue
// grows without bound and queued dials wait forever — the client's setup
// deadline fires instead of a prompt typed refusal, so timeouts replace
// refusals and p99 dial latency degrades.
func TestStormShedOffAblationWorse(t *testing.T) {
	on := storm(t, StormScenario(4))
	shedOff := StormScenario(4)
	shedOff.MIC.Admission.DisableShed = true
	off := storm(t, shedOff)
	if off.Answered != off.Dials {
		t.Fatalf("shed-off run dropped %d dials silently", off.Dials-off.Answered)
	}
	// Without shedding the queue grows without bound and dials wait for
	// tokens instead of hearing a prompt typed refusal: the client retry
	// layer eventually pushes most of them through, but dial latency
	// explodes — the metric the ablation is about.
	if off.P99DialMs < 2*on.P99DialMs {
		t.Errorf("shed-off p99 dial latency %.1fms, not measurably worse than shedding's %.1fms",
			off.P99DialMs, on.P99DialMs)
	}
}

// TestStormDeterministic: two same-seed runs produce identical results —
// every counter, every latency percentile, every goodput figure.
func TestStormDeterministic(t *testing.T) {
	a, b := storm(t, StormScenario(4)), storm(t, StormScenario(4))
	if a.Counters.String() != b.Counters.String() {
		t.Errorf("telemetry differs:\n%s\nvs\n%s", a.Counters, b.Counters)
	}
	ac, bc := *a, *b
	ac.Counters, bc.Counters = nil, nil
	if ac != bc {
		t.Errorf("results differ:\n%+v\nvs\n%+v", ac, bc)
	}
}

// TestStormComposesWithTransfer: a scenario's workloads are independent. A
// bulk transfer into one of the storm's responder hosts shares the bed with
// the storm, not a listener: the transfer completes (Run fails otherwise)
// and every storm dial is answered.
func TestStormComposesWithTransfer(t *testing.T) {
	s := StormScenario(1)
	s.Transfer = true
	o, err := Run(s, Params{Seed: 7, From: 0, To: 15, Size: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := o.Storm; r.Answered != r.Dials || r.OK+r.Degraded == 0 {
		t.Fatalf("storm beside a transfer: %d of %d dials answered, %d admitted", r.Answered, r.Dials, r.OK+r.Degraded)
	}
	t.Logf("transfer %.1f Mbps beside %d storm dials", o.Transfer.Mbps(), o.Storm.Dials)
}
