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
		ID:    "s11",
		Title: "Partition tolerance: dial blackout and zombie-primary containment",
		Run:   runS11Partition,
	})
}

// s11Outcome is one management-partition trial's measurements.
type s11Outcome struct {
	splitBlackoutMs  float64 // dial issued as the symmetric split's lease expires
	zombieBlackoutMs float64 // dial issued at the asymmetric-partition onset
	staleRules       float64 // flow-table audit's stale count after every cut heals
	divergent        float64 // journal appends from a fenced (deposed) master
	rejects          float64 // switch-side mutations refused for a stale epoch
}

// runS11Partition regenerates the partition-tolerance figure. The chaos
// partition scenario drives a two-member cluster through a symmetric
// controller split, an asymmetric zombie-primary partition (the active loses
// only its outbound management paths, so it keeps believing it is master),
// and a full heal — with a fabric link cut mid-zombie-window so the deposed
// and the legitimate active race to repair the same channel.
//
// Two variants: fencing on (leases force the cut-off active to step down
// before any standby's takeover window opens; epoch-stamped writes are
// refused by switches once a newer master says Hello) and the fencing-off
// ablation (mastership is decided by reachability alone). The ablation is
// the control: it must show the split-brain damage — stale rules surviving
// the heal and zombie writes landing in the journal — that the lease/epoch
// protocol exists to prevent.
func runS11Partition(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	size := 4 << 20
	if cfg.Quick {
		size = 1 << 20
	}
	variants := []struct {
		name           string
		disableFencing bool
	}{
		{"mic_fencing", false},
		{"mic_nofencing", true},
	}
	tbl := metrics.NewTable("variant", "split_blackout_ms", "zombie_blackout_ms", "stale_rules_after", "journal_divergent", "switch_rejects")
	for _, v := range variants {
		cols, err := runTrialColumns(cfg.Trials, cfg.Seed, func(seed uint64) ([]float64, error) {
			o, err := s11Trial(v.disableFencing, size, seed)
			return []float64{o.splitBlackoutMs, o.zombieBlackoutMs, o.staleRules, o.divergent, o.rejects}, err
		})
		if err != nil {
			return nil, fmt.Errorf("s11 %s: %w", v.name, err)
		}
		tbl.AddRow(v.name, cols[0].Mean(), cols[1].Mean(), cols[2].Mean(), cols[3].Mean(), cols[4].Mean())
	}
	return &Result{
		ID: "s11", Title: "Dial blackout and stale state across management partitions", Table: tbl,
		Notes: []string{
			"split_blackout_ms: a channel requested as the symmetric split expires the active's lease waits for the standby's promotion, which sends it; the step-down-then-takeover handover bounds it by the lease duration plus one dial — the figure's availability claim",
			"zombie_blackout_ms: a channel requested the instant the asymmetric partition opens goes to the active being cut off, which journals it but cannot install it; fenced, that active steps down at its lease edge and the successor, once it has reconciled the fabric, answers the request with the journaled channel; unfenced, the zombie never steps down, keeps the request and answers it only when the partition heals",
			"stale_rules_after: differential flow-table audit once every cut heals; zero with fencing because the lease forces the zombie to quiesce and switch-side epoch rejection kills anything it still sends, non-zero for the ablation because both masters repair the same fabric cut and neither purges the other's rules",
			"journal_divergent: appends stamped with a fencing epoch below the journal's high-water mark — a deposed master writing as if it were still in charge; the lease protocol keeps this at zero by quiescing before the takeover window opens",
			"switch_rejects: mutations refused by switches for carrying a stale epoch; the backstop only engages when fencing is on — the ablation's zero here is the vulnerability, not a virtue",
		},
	}, nil
}

// s11Trial runs one partition storm and reports the blackout probes' setup
// latencies plus the post-heal safety counters. The bulk transfer keeps a
// channel installed across all three acts so the mid-partition fabric cut has
// something to force a repair race over.
func s11Trial(disableFencing bool, size int, seed uint64) (s11Outcome, error) {
	lease := time.Duration(mic.DefaultHeartbeatMisses) * mic.DefaultHeartbeatInterval
	o, err := Run(Scenario{
		Cluster:  &mic.ClusterConfig{DisableFencing: disableFencing},
		MIC:      mic.Config{MNs: 3, MFlows: 2, AutoRepair: true, RepairMaxRetries: 20},
		Transfer: true,
		Faults:   chaos.Partition,
		Probes: []Probe{
			// A dial timed to land as the symmetric split (fault 0) expires
			// the founding active's lease — the handover window the
			// lease+takeover bound covers.
			{Fault: 0, At: lease, From: 3, To: 12},
			// A second tenant dials at the exact instant the asymmetric act
			// (fault 4) partitions the now-active controller from its peer
			// and half the fabric.
			{Fault: 4, From: 5, To: 13},
		},
		Window: 2 * time.Second,
	}, Params{Seed: seed, From: 0, To: 15, Size: size}, nil)
	if err != nil {
		return s11Outcome{}, err
	}
	cl := o.Bed.Cluster
	staleN, _ := cl.Audit()
	return s11Outcome{
		splitBlackoutMs:  o.ProbeMs[0],
		zombieBlackoutMs: o.ProbeMs[1],
		staleRules:       float64(staleN),
		divergent:        float64(cl.Journal.Divergent),
		rejects:          float64(o.Bed.StaleRejected()),
	}, nil
}
