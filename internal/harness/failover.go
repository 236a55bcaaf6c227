package harness

import (
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
// latency of a channel requested at the kill instant — it waits out
// heartbeat detection and journal replay, and the promoted standby serves it
// while it reconciles the switches; the stale
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
		cols, err := runTrialColumns(cfg.Trials, cfg.Seed, func(seed uint64) ([]float64, error) {
			o, err := s8Trial(v.mflows, v.noReconcile, size, seed)
			return []float64{o.goodput, o.blackoutMs, o.stale}, err
		})
		if err != nil {
			return nil, fmt.Errorf("s8 %s: %w", v.name, err)
		}
		tbl.AddRow(v.name, cols[0].Mean(), cols[1].Mean(), cols[2].Mean())
	}
	return &Result{
		ID: "s8", Title: "Goodput and setup blackout across a controller kill", Table: tbl,
		Notes: []string{
			"the chaos failover scenario cuts one uplink 1ms before the kill so the primary dies mid-repair, then cuts a second uplink while the cluster is headless and restarts the dead host later",
			"goodput barely dips: switches keep forwarding on installed rules through the blackout; the F=1 channel rides one path, F=4 spreads the cut across four",
			"setup_blackout_ms: a dial issued at the kill instant waits out heartbeat-miss detection and journal replay; the promotion sends it to the new active, which serves it while it reconciles the switches — this is the control-plane outage the data plane never sees",
			"stale_rules_after: post-takeover differential audit of every switch against the rebuilt intent; zero with reconciliation, non-zero for the ablation because the dead life's rules are never purged",
		},
	}, nil
}

// s8Trial runs one controller-kill trial and reports goodput, the blackout
// probe's setup latency, and the post-takeover audit's stale-rule count.
func s8Trial(mflows int, noReconcile bool, size int, seed uint64) (s8Outcome, error) {
	o, err := Run(Scenario{
		Cluster:  &mic.ClusterConfig{DisableReconcile: noReconcile},
		MIC:      mic.Config{MNs: 3, MFlows: mflows, AutoRepair: true, RepairMaxRetries: 20},
		Transfer: true,
		Faults:   chaos.Failover,
		// The blackout probe: a second tenant asks for a channel at the very
		// moment the controller dies (fault 1, the kill). Its setup latency
		// is the control-plane outage window.
		Probes: []Probe{{Fault: 1, From: 3, To: 12}},
		Window: 10 * time.Second,
	}, Params{Seed: seed, From: 0, To: 15, Size: size}, nil)
	if err != nil {
		return s8Outcome{}, err
	}
	staleN, _ := o.Bed.Cluster.Audit()
	return s8Outcome{
		goodput:    o.Transfer.Mbps(),
		blackoutMs: o.ProbeMs[0],
		stale:      float64(staleN),
	}, nil
}
