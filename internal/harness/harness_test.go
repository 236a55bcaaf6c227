package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mic/internal/chaos"
	"mic/internal/maga"
	"mic/internal/mic"
)

var quick = RunConfig{Seed: 7, Trials: 1, Quick: true}

func TestSetupTimeAllSchemes(t *testing.T) {
	for _, s := range AllSchemes() {
		d, err := SetupTime(s, 3, 1)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if d <= 0 || d > time.Second {
			t.Fatalf("%v setup = %v, implausible", s, d)
		}
	}
}

func TestSetupTimeShapeMatchesFig7(t *testing.T) {
	tcp, _ := SetupTime(SchemeTCP, 3, 1)
	ssl, _ := SetupTime(SchemeSSL, 3, 1)
	micS, _ := SetupTime(SchemeMICTCP, 3, 1)
	tor1, _ := SetupTime(SchemeTor, 1, 1)
	tor5, _ := SetupTime(SchemeTor, 5, 1)
	mic1, _ := SetupTime(SchemeMICTCP, 1, 1)
	mic5, _ := SetupTime(SchemeMICTCP, 5, 1)

	if !(tcp < ssl) {
		t.Errorf("SSL setup (%v) should exceed TCP (%v)", ssl, tcp)
	}
	if !(tcp < micS) {
		t.Errorf("MIC setup (%v) should exceed TCP (%v)", micS, tcp)
	}
	if !(tor5 > tor1*2) {
		t.Errorf("Tor setup should grow strongly with route length: 1->%v 5->%v", tor1, tor5)
	}
	if mic5 > mic1*3/2 {
		t.Errorf("MIC setup should stay nearly flat: 1->%v 5->%v", mic1, mic5)
	}
	if tor5 < micS {
		t.Errorf("Tor (%v) should be slower to set up than MIC (%v)", tor5, micS)
	}
}

func TestLatencyShapeMatchesFig8(t *testing.T) {
	lat := map[Scheme]time.Duration{}
	for _, s := range AllSchemes() {
		d, err := PingPongLatency(s, defaultPair[0], defaultPair[1], 3, 1)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		lat[s] = d
	}
	if r := float64(lat[SchemeTor]) / float64(lat[SchemeTCP]); r < 10 {
		t.Errorf("Tor/TCP latency ratio = %.1f, want >> 1 (paper: ~62x)", r)
	}
	if r := float64(lat[SchemeMICTCP]) / float64(lat[SchemeTCP]); r > 1.25 {
		t.Errorf("MIC-TCP/TCP latency ratio = %.2f, want ~1", r)
	}
	if r := float64(lat[SchemeMICSSL]) / float64(lat[SchemeSSL]); r > 1.25 {
		t.Errorf("MIC-SSL/SSL latency ratio = %.2f, want ~1", r)
	}
}

func TestThroughputShapeMatchesFig9a(t *testing.T) {
	const size = 2 << 20
	tcp, err := ThroughputOneFlow(SchemeTCP, 3, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	micT, err := ThroughputOneFlow(SchemeMICTCP, 3, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := ThroughputOneFlow(SchemeTor, 3, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	if micT.Mbps < tcp.Mbps*0.95 {
		t.Errorf("MIC-TCP (%.0f Mbps) should be within ~1%% of TCP (%.0f)", micT.Mbps, tcp.Mbps)
	}
	if tor.Mbps > tcp.Mbps*0.5 {
		t.Errorf("Tor (%.0f Mbps) should be far below TCP (%.0f) (paper: ~80%% lower)", tor.Mbps, tcp.Mbps)
	}
	if tor.CPUTotal <= micT.CPUTotal {
		t.Errorf("Tor CPU (%v) should exceed MIC CPU (%v)", tor.CPUTotal, micT.CPUTotal)
	}
}

func TestMultiFlowShapeMatchesFig9b(t *testing.T) {
	const size = 1 << 20
	tor1, err := MultiFlowAvgThroughput(SchemeTor, 1, size, 1, mic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tor8, err := MultiFlowAvgThroughput(SchemeTor, 8, size, 1, mic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mic1, err := MultiFlowAvgThroughput(SchemeMICTCP, 1, size, 1, mic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mic8, err := MultiFlowAvgThroughput(SchemeMICTCP, 8, size, 1, mic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tor8 > tor1/2 {
		t.Errorf("Tor per-flow throughput should collapse with 8 flows: 1->%.0f 8->%.0f Mbps", tor1, tor8)
	}
	if mic8 < mic1*0.6 {
		t.Errorf("MIC per-flow throughput should stay roughly flat: 1->%.0f 8->%.0f Mbps", mic1, mic8)
	}
}

// TestStartTransferEveryScheme: one StartTransfer carries a payload over
// each of the five schemes and leaves the shared payload pattern as it was,
// and only the MIC schemes' transfers name their streams and channel; an
// empty one ends as its session comes up. A dial the
// MC refuses fails the transfer with that dial's own error.
func TestStartTransferEveryScheme(t *testing.T) {
	const size = 256 << 10
	for _, s := range AllSchemes() {
		t.Run(s.String(), func(t *testing.T) {
			tb, err := pairBed(s, mic.Config{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			x := tb.StartTransfer(s, 2, 9, 8080, 0, size)
			tb.Eng.Run()
			if err := x.Err(); err != nil {
				t.Fatal(err)
			}
			if x.Got != size || !(0 < x.Start && x.Start < x.End) {
				t.Fatalf("got %d/%d bytes, start %v end %v", x.Got, size, x.Start, x.End)
			}
			// Send was handed the shared payload pattern itself: no
			// sender may have written to it.
			for i, b := range payload(size) {
				if b != payloadByte(i) {
					t.Fatalf("payload byte %d is %#x after the transfer, want %#x", i, b, payloadByte(i))
				}
			}
			isMIC := s == SchemeMICTCP || s == SchemeMICSSL
			if (x.Stream != nil) != isMIC || (x.Remote != nil) != isMIC || (x.Channel != nil) != isMIC {
				t.Fatalf("stream %v, remote %v, channel %v set under %v", x.Stream != nil, x.Remote != nil, x.Channel != nil, s)
			}
			if isMIC && x.Channel.Flows[0].Path[0] != tb.Graph.Hosts()[2] {
				t.Fatalf("channel starts at %v, want host 2", x.Channel.Flows[0].Path[0])
			}
			// A transfer of no bytes is done when its session is up.
			tb, err = pairBed(s, mic.Config{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			x = tb.StartTransfer(s, 2, 9, 8080, 0, 0)
			tb.Eng.Run()
			if err := x.Err(); err != nil || x.Start == 0 || x.Wall() != 0 {
				t.Fatalf("empty transfer: err %v, start %v, wall %v", err, x.Start, x.Wall())
			}
		})
	}
	tb, err := pairBed(SchemeMICTCP, mic.Config{MFlows: -1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := tb.StartTransfer(SchemeMICTCP, 0, 15, 80, 0, size)
	tb.Eng.Run()
	if x.DialErr == nil || x.Err() != x.DialErr || !strings.Contains(x.Err().Error(), "at least one m-flow") {
		t.Fatalf("refused dial: Err() = %v, DialErr = %v", x.Err(), x.DialErr)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"7", "8", "9a", "9b", "9c", "a1", "a2", "a3", "a4", "s1", "s10", "s11", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "sc"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %q, want %q", i, e.ID, want[i])
		}
	}
	if _, err := Find("9a"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunTrialsParallel(t *testing.T) {
	sample, err := RunTrials(8, 100, func(seed uint64) (float64, error) {
		return float64(seed % 10), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sample.N() != 8 {
		t.Fatalf("N = %d", sample.N())
	}
}

func TestExperimentS1(t *testing.T) {
	e, _ := Find("s1")
	res, err := e.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if !strings.Contains(out, "fanout") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestExperimentS3(t *testing.T) {
	e, _ := Find("s3")
	res, err := e.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "MN 1") {
		t.Fatalf("missing MN rows:\n%s", res.String())
	}
	// linked_pairs column must be all zeros.
	if strings.Contains(res.Table.String(), "true  true") {
		t.Fatalf("some switch exposed both endpoints:\n%s", res.Table)
	}
}

func TestExperimentA1(t *testing.T) {
	e, _ := Find("a1")
	res, err := e.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Table.String()
	if !strings.Contains(out, "1.00") {
		t.Fatalf("global hash should recover 100%%:\n%s", out)
	}
}

func TestExperimentA3(t *testing.T) {
	e, _ := Find("a3")
	res, err := e.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Table.String()
	if !strings.Contains(out, "1.00") || !strings.Contains(out, "20.00") {
		t.Fatalf("reuse ablation rows unexpected:\n%s", out)
	}
}

func TestExperimentFig8Quick(t *testing.T) {
	e, _ := Find("8")
	res, err := e.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table.String(), "Tor") {
		t.Fatalf("missing scheme rows:\n%s", res.Table)
	}
}

func TestExperimentScQuick(t *testing.T) {
	e, _ := Find("sc")
	res, err := e.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Table.String()
	if !strings.Contains(out, "fattree-8") {
		t.Fatalf("missing k=8 rows:\n%s", out)
	}
}

func TestExperimentS4Quick(t *testing.T) {
	e, _ := Find("s4")
	res, err := e.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table.String(), "0.10") {
		t.Fatalf("missing fraction rows:\n%s", res.Table)
	}
}

func TestExperimentA4Quick(t *testing.T) {
	e, _ := Find("a4")
	if _, err := e.Run(quick); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentS7Quick(t *testing.T) {
	e, _ := Find("s7")
	res, err := e.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table.String(), "20%") {
		t.Fatalf("missing loss tiers:\n%s", res.Table)
	}
	// At 20% single-link loss, MIC's health layer must beat both plain TCP
	// (which has no second path) and its own ablation (which has the paths
	// but not the machinery).
	tcp, err := s7TCPTrial(0.2, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	micOn, err := s7MICTrial(0.2, 1<<20, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	micOff, err := s7MICTrial(0.2, 1<<20, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if micOn <= tcp {
		t.Fatalf("MIC F=4 (%.0f Mbps) should beat single-path TCP (%.0f Mbps) at 20%% loss", micOn, tcp)
	}
	if micOn <= micOff {
		t.Fatalf("health machinery (%.0f Mbps) should beat its ablation (%.0f Mbps) at 20%% loss", micOn, micOff)
	}
}

func TestExperimentS8Quick(t *testing.T) {
	e, _ := Find("s8")
	res, err := e.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Table.String()
	if !strings.Contains(out, "mic_f1") || !strings.Contains(out, "mic_f4_noreconcile") {
		t.Fatalf("missing variant rows:\n%s", out)
	}
	// The ablation's whole point: without reconciliation the dead life's
	// rules stay on the switches, with it they don't.
	on, err := s8Trial(4, false, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	off, err := s8Trial(4, true, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if on.stale != 0 {
		t.Fatalf("reconciling takeover left %.0f stale rules", on.stale)
	}
	if off.stale == 0 {
		t.Fatal("reconciliation-off takeover left no stale rules; the ablation shows nothing")
	}
	// The blackout a dial rides out is detection + replay + reconcile —
	// milliseconds, not the 10s trial window.
	if on.blackoutMs <= 0 || on.blackoutMs > 100 {
		t.Fatalf("setup blackout = %.2fms, implausible", on.blackoutMs)
	}
}

func TestExperimentS11Quick(t *testing.T) {
	e, _ := Find("s11")
	res, err := e.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Table.String()
	if !strings.Contains(out, "mic_fencing") || !strings.Contains(out, "mic_nofencing") {
		t.Fatalf("missing variant rows:\n%s", out)
	}
	// The protocol's contract, per arm. With fencing: the zombie steps down
	// before the takeover window opens, so nothing stale survives the heal
	// and the journal never sees a deposed master's writes. Without it: the
	// split-brain repair race leaves both masters' rules on the switches and
	// zombie appends in the journal — the damage the figure exists to show.
	on, err := s11Trial(false, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	off, err := s11Trial(true, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if on.staleRules != 0 {
		t.Fatalf("fencing-on heal left %.0f stale rules", on.staleRules)
	}
	if on.divergent != 0 {
		t.Fatalf("fencing-on journal recorded %.0f divergent appends", on.divergent)
	}
	if off.staleRules == 0 && off.divergent == 0 {
		t.Fatal("fencing-off ablation shows no stale installs; the control proves nothing")
	}
	// The symmetric-split handover blackout is at most lease expiry (6ms) +
	// takeover + one dial: the probe waits for the promotion, which sends it.
	if on.splitBlackoutMs <= 0 || on.splitBlackoutMs > 30 {
		t.Fatalf("split dial blackout = %.2fms, implausible", on.splitBlackoutMs)
	}
	// The zombie-window probe's dial, left unanswered by the cut-off active
	// when it stepped down, is answered by the successor once it has
	// reconciled the fabric, well inside the request deadline.
	if on.zombieBlackoutMs <= 0 || on.zombieBlackoutMs > 150 {
		t.Fatalf("zombie dial blackout = %.2fms, implausible", on.zombieBlackoutMs)
	}
}

// TestDeterminism: a (seed, config) pair must reproduce measurements
// bit-for-bit — the property that makes the whole evaluation replayable.
func TestDeterminism(t *testing.T) {
	a, err := ThroughputOneFlow(SchemeMICTCP, 3, 1<<20, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ThroughputOneFlow(SchemeMICTCP, 3, 1<<20, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mbps != b.Mbps || a.Wall != b.Wall || a.CPUTotal != b.CPUTotal {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := ThroughputOneFlow(SchemeMICTCP, 3, 1<<20, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Wall == c.Wall && a.Mbps == c.Mbps {
		t.Log("different seeds produced identical results (possible but suspicious)")
	}
}

// TestRunTrialsJoinsInTrialOrder: a data point's mean must not depend on
// which goroutine finishes first. Trials 0..2 yield 1e16, 1, -1e16, whose
// float64 sum is 0 in trial order and 1 in any order that cancels the large
// terms first; and a failed trial fails the point with the lowest-numbered
// trial's error.
func TestRunTrialsJoinsInTrialOrder(t *testing.T) {
	vals := map[uint64]float64{100: 1e16, 100 + 1000003: 1, 100 + 2*1000003: -1e16}
	for i := 0; i < 200; i++ {
		sample, err := RunTrials(3, 100, func(seed uint64) (float64, error) { return vals[seed], nil })
		if err != nil {
			t.Fatal(err)
		}
		if m := sample.Mean(); m != 0 {
			t.Fatalf("run %d: mean = %v, want 0 (trial-order sum)", i, m)
		}
	}
	_, err := RunTrials(3, 100, func(seed uint64) (float64, error) {
		if seed != 100 {
			return 0, fmt.Errorf("trial with seed %d failed", seed)
		}
		return 1, nil
	})
	if err == nil || !strings.Contains(err.Error(), "seed 1000103 ") {
		t.Fatalf("err = %v, want trial 1's error", err)
	}
}

// TestRunRefusesWhatItCannotPlay checks that Run returns an error, rather
// than narrating a fault that did nothing, for a control-loss act on a
// cluster bed (there is no one southbound channel to degrade) and for a
// probe timed against a fault its script does not have.
func TestRunRefusesWhatItCannotPlay(t *testing.T) {
	for _, c := range []struct {
		name string
		s    Scenario
	}{
		{"control loss on a cluster", Scenario{Cluster: &mic.ClusterConfig{}, Transfer: true,
			Faults: chaos.Fabric, Window: time.Second}},
		{"probe past the script", Scenario{Transfer: true,
			Faults: chaos.Lossy, Probes: []Probe{{Fault: len(chaos.Lossy.Faults), From: 3, To: 12}}}},
	} {
		var w strings.Builder
		if _, err := Run(c.s, Params{Seed: 1, From: 0, To: 15, Size: 1 << 10}, &w); err == nil {
			t.Errorf("%s: Run played it:\n%s", c.name, w.String())
		} else if strings.Contains(w.String(), "fault ") {
			t.Errorf("%s: a refused script narrated faults:\n%s", c.name, w.String())
		}
	}
}

// TestA2SplitMintsInOneDraw: fig a2 counts, per trial, the labels each
// method draws until one carries the MN's class and the flow's ID. Every
// label the split construction mints does on the first draw; rejection
// sampling needs about 2^(SID+FPart).
func TestA2SplitMintsInOneDraw(t *testing.T) {
	res, err := runA2MPLSSplit(quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Table.Rows()
	if len(rows) != 2 {
		t.Fatalf("a2 has %d rows, want 2", len(rows))
	}
	var split, rej float64
	if _, err := fmt.Sscan(rows[0][1], &split); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscan(rows[1][1], &rej); err != nil {
		t.Fatal(err)
	}
	if split != 1 {
		t.Errorf("split + inversion drew %v labels per mint, want 1", split)
	}
	w := maga.DefaultWidths()
	if want := float64(uint(1) << (w.SID + w.FPart)); rej < want/4 || rej > want*4 {
		t.Errorf("rejection sampling drew %v labels per mint, want about %v", rej, want)
	}
}
