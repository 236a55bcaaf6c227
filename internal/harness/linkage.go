package harness

import (
	"fmt"

	"mic/internal/addr"
	"mic/internal/adversary"
	"mic/internal/metrics"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
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
	_, micCaps, _, err := micRun(mic.Config{MNs: 3}, size, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tcpCaps, initIP, respIP, err := tcpTracedRun(size, cfg.Seed)
	if err != nil {
		return nil, err
	}

	rng := sim.NewRNG(cfg.Seed ^ 0x54)
	tbl := metrics.NewTable("compromised_fraction", "TCP_linkage_prob", "MIC_linkage_prob")
	micList, tcpList, nodes := capturesAsLists(micCaps, tcpCaps)
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.5, 0.8} {
		k := int(frac*float64(len(nodes)) + 0.5)
		if k < 1 {
			k = 1
		}
		tcpHits, micHits := 0, 0
		for s := 0; s < subsets; s++ {
			perm := rng.Perm(len(nodes))
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

// tcpTracedRun runs a plain TCP transfer h0 -> h15 with every switch tapped.
func tcpTracedRun(size int, seed uint64) (map[topo.NodeID]*adversary.Capture, addr.IP, addr.IP, error) {
	tb, err := NewTestbed(SchemeTCP, 4, netsim.Config{}, mic.Config{}, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	caps := make(map[topo.NodeID]*adversary.Capture)
	for _, sid := range tb.Graph.Switches() {
		caps[sid] = adversary.Tap(tb.Net, sid)
	}
	done := false
	tb.serve(SchemeTCP, 15, 80, func(s appStream) {
		got := 0
		s.OnData(func(b []byte) {
			got += len(b)
			done = got >= size
		})
	})
	var dialErr error
	tb.dial(SchemeTCP, 0, 15, 80, 0, func(s appStream, err error) {
		if err != nil {
			dialErr = err
			return
		}
		s.Send(payload(size))
	})
	tb.Eng.Run()
	if dialErr != nil {
		return nil, 0, 0, dialErr
	}
	if !done {
		return nil, 0, 0, fmt.Errorf("harness: traced TCP transfer incomplete")
	}
	return caps, tb.hostIP(0), tb.hostIP(15), nil
}

// capturesAsLists aligns the two capture maps on a shared node order.
func capturesAsLists(micCaps, tcpCaps map[topo.NodeID]*adversary.Capture) (micOut, tcpOut []*adversary.Capture, nodes []topo.NodeID) {
	// lint:ignore detrange keys are collected then sorted immediately below
	for node := range micCaps {
		nodes = append(nodes, node)
	}
	sortNodes(nodes)
	for _, node := range nodes {
		micOut = append(micOut, micCaps[node])
		tcpOut = append(tcpOut, tcpCaps[node])
	}
	return micOut, tcpOut, nodes
}

// sortedCaptures returns the captures of caps in ascending node order.
// Experiments must never let map iteration order decide which capture they
// pick first or the order samples are aggregated in.
func sortedCaptures(caps map[topo.NodeID]*adversary.Capture) []*adversary.Capture {
	nodes := make([]topo.NodeID, 0, len(caps))
	// lint:ignore detrange keys are collected then sorted immediately below
	for node := range caps {
		nodes = append(nodes, node)
	}
	sortNodes(nodes)
	out := make([]*adversary.Capture, len(nodes))
	for i, node := range nodes {
		out[i] = caps[node]
	}
	return out
}

func sortNodes(ns []topo.NodeID) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j] < ns[j-1]; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}
