package harness

import (
	"fmt"

	"mic/internal/adversary"
	"mic/internal/metrics"
	"mic/internal/mic"
)

func init() {
	register(Experiment{
		ID:    "s4",
		Title: "Sec V (quantified): end-to-end linkage probability vs compromised-switch fraction",
		Run:   runS4Linkage,
	})
}

// runS4Linkage quantifies the attack the paper concedes it cannot fully
// defeat (Sec IV-C end-to-end correlation): an adversary compromises a
// random fraction of the fabric's switches and content-matches their
// captures. Against plain TCP, any single on-path switch links the pair;
// under MIC the adversary needs observation points on BOTH exposed
// segments. Monte Carlo over random compromised subsets.
func runS4Linkage(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	size := securitySize(cfg)
	subsets := 400
	if cfg.Quick {
		subsets = 100
	}

	// One traced MIC transfer and one traced plain-TCP transfer, same pair.
	_, _, micList, err := tracedTransfer(SchemeMICTCP, mic.Config{MNs: 3}, size, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tb, _, tcpList, err := tracedTransfer(SchemeTCP, mic.Config{}, size, cfg.Seed)
	if err != nil {
		return nil, err
	}
	initIP, respIP := tb.hostIP(0), tb.hostIP(15)

	rng := tb.Net.Stream("linkage")
	tbl := metrics.NewTable("compromised_fraction", "TCP_linkage_prob", "MIC_linkage_prob")
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.5, 0.8} {
		k := int(frac*float64(len(micList)) + 0.5)
		if k < 1 {
			k = 1
		}
		tcpHits, micHits := 0, 0
		for s := 0; s < subsets; s++ {
			perm := rng.Perm(len(micList))
			var micSub, tcpSub []*adversary.Capture
			for _, idx := range perm[:k] {
				micSub = append(micSub, micList[idx])
				tcpSub = append(tcpSub, tcpList[idx])
			}
			if adversary.Linked(tcpSub, initIP, respIP) {
				tcpHits++
			}
			if adversary.Linked(micSub, initIP, respIP) {
				micHits++
			}
		}
		tbl.AddRow(frac, float64(tcpHits)/float64(subsets), float64(micHits)/float64(subsets))
	}
	return &Result{
		ID: "s4", Title: "End-to-end linkage vs compromised fraction (Monte Carlo)", Table: tbl,
		Notes: []string{
			"TCP: one on-path switch suffices; MIC: the adversary needs points on both the initiator- and responder-revealing segments",
			fmt.Sprintf("%d random subsets per fraction; 20-switch fat-tree; 3 MNs", subsets),
		},
	}, nil
}
