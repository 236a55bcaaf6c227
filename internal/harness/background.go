package harness

import (
	"fmt"
	"time"

	"mic/internal/metrics"
	"mic/internal/mic"
	"mic/internal/sim"
	"mic/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "s6",
		Title: "Sec V (quantified): victim identification by rate matching under background traffic",
		Run:   runS6Background,
	})
}

// runS6Background measures how reliably a rate-matching adversary at the
// responder's edge picks out the victim's m-flow when the fabric also
// carries realistic background traffic. A quiet network (the s5 setting)
// flatters the adversary; this experiment adds heavy-tailed flows between
// other host pairs, several of them terminating behind the same edge
// switch as the victim.
func runS6Background(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	trials := cfg.Trials * 3
	tbl := metrics.NewTable("background", "top1_accuracy", "mean_best_corr")
	for _, bg := range []struct {
		name  string
		inter time.Duration
	}{
		{"none", 0},
		{"moderate (1 flow/ms)", time.Millisecond},
		{"heavy (1 flow/250us)", 250 * time.Microsecond},
	} {
		hits := 0
		corrs := &metrics.Sample{}
		for trial := 0; trial < trials; trial++ {
			hit, corr, err := backgroundTrial(bg.inter, cfg.Seed+uint64(trial)*2654435761)
			if err != nil {
				return nil, fmt.Errorf("s6 %s: %w", bg.name, err)
			}
			if hit {
				hits++
			}
			corrs.Add(corr)
		}
		tbl.AddRow(bg.name, float64(hits)/float64(trials), corrs.Mean())
	}
	return &Result{
		ID: "s6", Title: "Rate-matching accuracy vs background load", Table: tbl,
		Notes: []string{
			"top1_accuracy: fraction of trials where the adversary's tied-best rate matches include a flow exposing the responder's address",
			"background flows use the DCTCP web-search size mix; several terminate behind the victim's edge switch",
			"honest negative result: a distinctive on-off pattern survives both background noise and MIC's rewriting — the paper concedes end-to-end pattern correlation is out of scope; defeating it needs cover traffic or pacing, which MNs cannot do (Sec IV-C)",
		},
	}, nil
}

// backgroundTrial runs the rate-pattern bursts over MIC from h0 to h15
// plus background load, then asks the adversary to identify the victim at
// the responder edge. Reports whether its top-1 pick carries the
// responder's address.
func backgroundTrial(interarrival time.Duration, seed uint64) (hit bool, corr float64, err error) {
	tb, err := pairBed(SchemeMICTCP, mic.Config{MNs: 2}, seed)
	if err != nil {
		return false, 0, err
	}
	caps := tb.tapSwitches()
	if interarrival > 0 {
		gen, err := workload.New(tb.Net, tb.Stacks, workload.Config{
			// h13 and h16 share pod 4 with the victim responder h15 (h16 is
			// on the very same edge switch), so background flows transit the
			// adversary's vantage point.
			Pairs:            [][2]int{{1, 13}, {2, 15}, {3, 12}, {4, 13}, {5, 11}},
			MeanInterarrival: interarrival,
			Sizes:            workload.Pareto{Alpha: 1.3, Min: 2 << 10, Max: 256 << 10},
			Seed:             seed + 9,
		})
		if err != nil {
			return false, 0, err
		}
		// Pair {2,15}: h16 is stacks[15]; responder is stacks[14] (h15).
		gen.Run(sim.Time(40 * time.Millisecond))
	}

	respIdx := 14 // h15: shares edge4_2 with h16, a background destination
	// Background flows cross the initiator's edge too: the adversary's
	// reference is the flows touching the initiator.
	ref, resp, until, err := tb.burstsAtEdges(caps, respIdx, true)
	if err != nil {
		return false, 0, err
	}
	_, corr, _ = resp.RateMatch(rateWindow, ref, until)
	respIP := tb.hostIP(respIdx)
	for _, key := range resp.RateMatchTop(rateWindow, ref, until, 0.02) {
		if key.SrcIP == respIP || key.DstIP == respIP {
			return true, corr, nil
		}
	}
	return false, corr, nil
}
