package harness

import (
	"errors"
	"fmt"
	"time"

	"mic/internal/chaos"
	"mic/internal/metrics"
	"mic/internal/mic"
)

func init() {
	register(Experiment{
		ID:    "s8",
		Title: "Controller failover: goodput and setup blackout across an MC kill",
		Run:   runS8Failover,
	})
}

// s8Outcome is one failover trial's measurements.
type s8Outcome struct {
	goodput    float64 // Mbps of the bulk transfer, across the kill
	blackoutMs float64 // latency of a channel setup issued at the kill instant
	stale      float64 // stale-epoch rules left on switches after takeover
}

// runS8Failover regenerates the failover figure: a bulk transfer is
// mid-flight when the active controller is killed (the chaos failover
// scenario also cuts a link just before the kill, so the controller dies
// mid-repair). Three variants: MIC F=1, MIC F=4, and F=4 with the takeover
// reconciliation pass disabled. Goodput shows the data plane riding through
// the headless window on installed rules; the blackout column is the setup
// latency of a channel requested at the kill instant — it absorbs the full
// heartbeat-detection + journal-replay + reconciliation window; the stale
// column is the differential audit after takeover, non-zero only for the
// ablation.
func runS8Failover(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	size := 4 << 20
	if cfg.Quick {
		size = 1 << 20
	}
	variants := []struct {
		name        string
		mflows      int
		noReconcile bool
	}{
		{"mic_f1", 1, false},
		{"mic_f4", 4, false},
		{"mic_f4_noreconcile", 4, true},
	}
	tbl := metrics.NewTable("variant", "goodput_mbps", "setup_blackout_ms", "stale_rules_after")
	for _, v := range variants {
		var good, blk, stale metrics.Sample
		var firstErr error
		for i := 0; i < cfg.Trials; i++ {
			seed := cfg.Seed + uint64(i)*1000003
			o, err := s8Trial(v.mflows, v.noReconcile, size, seed)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			good.Add(o.goodput)
			blk.Add(o.blackoutMs)
			stale.Add(o.stale)
		}
		if good.N() == 0 && firstErr != nil {
			return nil, fmt.Errorf("s8 %s: %w", v.name, firstErr)
		}
		tbl.AddRow(v.name, good.Mean(), blk.Mean(), stale.Mean())
	}
	return &Result{
		ID: "s8", Title: "Goodput and setup blackout across a controller kill", Table: tbl,
		Notes: []string{
			"the chaos failover scenario cuts one uplink 1ms before the kill so the primary dies mid-repair, then cuts a second uplink while the cluster is headless and restarts the dead host later",
			"goodput barely dips: switches keep forwarding on installed rules through the blackout; the F=1 channel rides one path, F=4 spreads the cut across four",
			"setup_blackout_ms: a dial issued at the kill instant waits out heartbeat-miss detection, journal replay and switch reconciliation before the promoted standby answers — this is the control-plane outage the data plane never sees",
			"stale_rules_after: post-takeover differential audit of every switch against the rebuilt intent; zero with reconciliation, non-zero for the ablation because the dead life's rules are never purged",
		},
	}, nil
}

// s8Trial runs one controller-kill trial and reports goodput, the blackout
// probe's setup latency, and the post-takeover audit's stale-rule count.
func s8Trial(mflows int, noReconcile bool, size int, seed uint64) (s8Outcome, error) {
	tb, err := NewTestbed(SchemeMICTCP, mic.Config{
		MNs: 3, MFlows: mflows, Seed: seed,
		AutoRepair: true, RepairMaxRetries: 20,
	}, &mic.ClusterConfig{DisableReconcile: noReconcile})
	if err != nil {
		return s8Outcome{}, err
	}
	xfer := tb.StartTransfer(false, 0, 15, payload(size))

	sched, err := chaos.FailoverScenario(tb.Graph, seed, chaos.FailoverConfig{
		From: tb.Graph.Hosts()[0], To: tb.Graph.Hosts()[15],
	})
	if err != nil {
		return s8Outcome{}, err
	}
	var killAt time.Duration
	for _, f := range sched {
		if f.Kind == chaos.MCKill {
			killAt = f.At
		}
	}
	tb.Play(sched, nil, 0)

	// The blackout probe: a second tenant asks for a channel at the very
	// moment the controller dies. Its setup latency is the control-plane
	// outage window.
	probe := tb.probeDial(killAt, 3, 12)

	tb.Run(10 * time.Second)
	if err := errors.Join(xfer.DialErr, probe.err); err != nil {
		return s8Outcome{}, err
	}
	if probe.done == 0 {
		return s8Outcome{}, fmt.Errorf("harness: blackout probe dial never completed")
	}
	staleN, _ := tb.Cluster.Audit()
	return s8Outcome{
		goodput:    s7Goodput(xfer.Got, xfer.Start, xfer.End, tb.Eng.Now()),
		blackoutMs: probe.ms(),
		stale:      float64(staleN),
	}, nil
}
