package harness

import (
	"fmt"
	"time"

	"mic/internal/addr"
	"mic/internal/adversary"
	"mic/internal/maga"
	"mic/internal/metrics"
	"mic/internal/mic"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// The paper's Section V argues its security properties qualitatively; the
// s* experiments quantify them, and the a* experiments ablate the design
// choices Sec IV-B3 motivates. EXPERIMENTS.md labels all of these
// "extension — no numeric counterpart in the paper".

func init() {
	register(Experiment{
		ID:    "s1",
		Title: "Sec V (quantified): MN-local correlation success vs partial-multicast fanout",
		Run:   runS1Correlation,
	})
	register(Experiment{
		ID:    "s2",
		Title: "Sec V (quantified): size-estimate accuracy vs m-flow count",
		Run:   runS2SizeHiding,
	})
	register(Experiment{
		ID:    "s3",
		Title: "Sec V (quantified): endpoint exposure by compromised-switch position",
		Run:   runS3Exposure,
	})
	register(Experiment{
		ID:    "a1",
		Title: "Ablation: per-MN hash functions vs one global hash (cross-MN flow-ID recovery)",
		Run:   runA1HashAblation,
	})
	register(Experiment{
		ID:    "a2",
		Title: "Ablation: MPLS1/MPLS2 split inversion vs rejection sampling (label generation cost)",
		Run:   runA2MPLSSplit,
	})
	register(Experiment{
		ID:    "a3",
		Title: "Ablation: channel reuse vs per-connection setup (MC request load)",
		Run:   runA3ChannelReuse,
	})
}

// tracedTransfer carries size bytes over the scheme between defaultPair's
// hosts (h0 to h15) of a fresh pairBed, its MC under cfg, with every switch
// tapped, and returns the bed, the transfer and the captures in switch
// order.
func tracedTransfer(scheme Scheme, cfg mic.Config, size int, seed uint64) (*Testbed, *Transfer, []*adversary.Capture, error) {
	tb, err := pairBed(scheme, cfg, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	caps := tb.tapSwitches()
	t, err := tb.runPair(scheme, 0, size)
	return tb, t, caps, err
}

// tapSwitches attaches an adversary capture to every switch, before any
// traffic, and returns them in switch order (ascending node ID), so no
// experiment lets map order decide which capture it picks first or the
// order its samples are aggregated in.
func (tb *Testbed) tapSwitches() []*adversary.Capture {
	caps := make([]*adversary.Capture, len(tb.Graph.Switches()))
	for i, sid := range tb.Graph.Switches() {
		caps[i] = adversary.Tap(tb.Net, sid)
	}
	return caps
}

// captureAt returns the capture of caps taken at node, or nil.
func captureAt(caps []*adversary.Capture, node topo.NodeID) *adversary.Capture {
	for _, c := range caps {
		if c.Node == node {
			return c
		}
	}
	return nil
}

func securitySize(cfg RunConfig) int {
	if cfg.Quick {
		return 20_000
	}
	return 100_000
}

func runS1Correlation(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	tbl := metrics.NewTable("fanout", "correlation_success", "mean_candidates", "traffic_overhead")
	var baseBytes float64
	for _, fanout := range []int{1, 2, 3} {
		cols, err := runTrialColumns(cfg.Trials, cfg.Seed, func(seed uint64) ([]float64, error) {
			tb, t, caps, err := tracedTransfer(SchemeMICTCP, mic.Config{MNs: 3, MulticastFanout: fanout}, securitySize(cfg), seed)
			if err != nil {
				return nil, err
			}
			rep := captureAt(caps, t.Channel.Flows[0].MNs[0]).IngressEgressCorrelation()
			if rep.DataPackets == 0 {
				return nil, fmt.Errorf("no packets observed at first MN")
			}
			return []float64{rep.MeanSuccess, rep.MeanCandidates, float64(tb.Net.Stats.TxBytes)}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("s1 fanout %d: %w", fanout, err)
		}
		if fanout == 1 {
			baseBytes = cols[2].Mean()
		}
		tbl.AddRow(fanout, cols[0].Mean(), cols[1].Mean(), fmt.Sprintf("+%.0f%%", (cols[2].Mean()/baseBytes-1)*100))
	}
	return &Result{
		ID: "s1", Title: "MN-local correlation vs partial-multicast fanout", Table: tbl,
		Notes: []string{
			"expected: success ~ 1/fanout (Sec IV-C partial multicast); overhead is extra fabric bytes from decoys",
		},
	}, nil
}

func runS2SizeHiding(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	tbl := metrics.NewTable("m_flows", "largest_flow_fraction")
	size := securitySize(cfg)
	for _, mf := range []int{1, 2, 4, 8} {
		sample, err := RunTrials(cfg.Trials, cfg.Seed, func(seed uint64) (float64, error) {
			_, _, caps, err := tracedTransfer(SchemeMICTCP, mic.Config{MFlows: mf, MNs: 2}, size, seed)
			if err != nil {
				return 0, err
			}
			return adversary.LargestFlowFraction(caps, int64(size)), nil
		})
		if err != nil {
			return nil, fmt.Errorf("s2 mflows %d: %w", mf, err)
		}
		tbl.AddRow(mf, sample.Mean())
	}
	return &Result{
		ID: "s2", Title: "Best single-flow size estimate vs m-flow count", Table: tbl,
		Notes: []string{
			"expected: fraction ~ 1/F — with F m-flows no observation point sees the real traffic size (Sec IV-C)",
		},
	}, nil
}

func runS3Exposure(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	tb, t, caps, err := tracedTransfer(SchemeMICTCP, mic.Config{MNs: 3}, securitySize(cfg), cfg.Seed)
	if err != nil {
		return nil, err
	}
	initIP, respIP := tb.hostIP(0), tb.hostIP(15)
	flow := t.Channel.Flows[0]
	// Classify each on-path switch by position relative to the MNs.
	mnSet := map[topo.NodeID]int{}
	for i, mn := range flow.MNs {
		mnSet[mn] = i + 1
	}
	tbl := metrics.NewTable("switch", "position", "sees_initiator", "sees_responder", "linked_pairs")
	pos := "before first MN"
	for _, node := range flow.Path {
		if tb.Graph.Node(node).Kind != topo.KindSwitch {
			continue
		}
		label := pos
		if i, isMN := mnSet[node]; isMN {
			label = fmt.Sprintf("MN %d", i)
			if i == len(flow.MNs) {
				pos = "after last MN"
			} else {
				pos = "between MNs"
			}
		}
		c := captureAt(caps, node)
		exp := c.Exposure(initIP, respIP)
		tbl.AddRow(tb.Graph.Node(node).Name, label, exp[initIP], exp[respIP], c.LinkedPairs(initIP, respIP))
	}
	return &Result{
		ID: "s3", Title: "Endpoint exposure by compromised-switch position (one m-flow)", Table: tbl,
		Notes: []string{
			"expected (Sec V): switches before the first MN see the initiator only; after the last MN the responder only; between MNs neither; linked_pairs must be 0 everywhere",
		},
	}, nil
}

func runA1HashAblation(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	w := maga.DefaultWidths()
	rng := sim.NewRNG(cfg.Seed)
	trials := 2000
	if cfg.Quick {
		trials = 500
	}
	recover := func(shared bool) float64 {
		var pa, pb maga.Params
		if shared {
			// One global hash for all MNs (the naive scheme Sec IV-B3 rejects).
			p := maga.NewParams(rng.Stream("global"), w)
			pa, pb = p, p
		} else {
			pa = maga.NewParams(rng.Stream("mnA"), w)
			pb = maga.NewParams(rng.Stream("mnB"), w)
		}
		ga := maga.NewGenerator(pa, 3, rng.Stream("genA"))
		hit := 0
		for i := 0; i < trials; i++ {
			flowID := uint32(i) % w.MaxFlowIDs()
			src, dst := addr.V4(10, 0, byte(i>>8), byte(i)), addr.V4(10, 0, byte(i), byte(i>>8))
			l := ga.Label(flowID, src, dst)
			// The adversary compromised MN B and knows ITS functions; it
			// tries to decode MN A's tuples with them.
			if pb.FlowIDOf(src, dst, l) == flowID {
				hit++
			}
		}
		return float64(hit) / float64(trials)
	}
	tbl := metrics.NewTable("keying", "cross_MN_flow_id_recovery")
	tbl.AddRow("global hash (ablated)", recover(true))
	tbl.AddRow("per-MN hashes (MIC)", recover(false))
	return &Result{
		ID: "a1", Title: "Cross-MN flow-ID recovery by a compromised MN", Table: tbl,
		Notes: []string{
			"expected: 1.0 under a global hash (adversary links m-addresses across MNs); ~1/2^FPart under per-MN keying",
		},
	}, nil
}

func runA2MPLSSplit(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	w := maga.DefaultWidths()
	rng := sim.NewRNG(cfg.Seed)
	p := maga.NewParams(rng.Stream("params"), w)
	gen := maga.NewGenerator(p, 9, rng.Stream("gen"))
	src, dst := addr.V4(10, 0, 0, 1), addr.V4(10, 0, 0, 2)
	trials := 200
	if cfg.Quick {
		trials = 50
	}
	// Each trial counts the labels drawn until one satisfies both the
	// per-MN class constraint and the flow-ID constraint. The split
	// construction (the paper's MPLS1/MPLS2 split) mints each label by
	// inversion; rejection sampling draws random 20-bit labels. gen draws
	// from its own stream, so it moves none of the rejection draws.
	draws := func(flowID uint32, next func() addr.Label) (float64, error) {
		for n := 1; n <= 1<<22; n++ {
			l := next()
			if p.ClassOf(l) == 9 && p.FlowIDOf(src, dst, l) == flowID {
				return float64(n), nil
			}
		}
		return 0, fmt.Errorf("a2: label draws diverged for flow %d", flowID)
	}
	split, rej := &metrics.Sample{}, &metrics.Sample{}
	for i := 0; i < trials; i++ {
		flowID := uint32(i) % w.MaxFlowIDs()
		n, err := draws(flowID, func() addr.Label { return gen.Label(flowID, src, dst) })
		if err != nil {
			return nil, err
		}
		split.Add(n)
		if n, err = draws(flowID, func() addr.Label { return addr.Label(rng.Uint32()) & addr.MaxLabel }); err != nil {
			return nil, err
		}
		rej.Add(n)
	}
	tbl := metrics.NewTable("method", "mean_label_draws")
	tbl.AddRow("split + inversion (MIC)", split.Mean())
	tbl.AddRow("rejection sampling", rej.Mean())
	return &Result{
		ID: "a2", Title: "Label generation cost: inversion vs rejection", Table: tbl,
		Notes: []string{
			fmt.Sprintf("expected: rejection needs ~2^(SID+FPart) = %d draws on average; the split construction needs exactly 1", 1<<(w.SID+w.FPart)),
		},
	}, nil
}

func runA3ChannelReuse(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	const messages = 20
	load := func(reuse bool) (float64, error) {
		tb, err := pairBed(SchemeMICTCP, mic.Config{}, cfg.Seed)
		if err != nil {
			return 0, err
		}
		tb.serve(SchemeMICTCP, 15, 80, func(s transport.ByteStream) { s.OnData(func([]byte) {}) })
		client := mic.NewClient(tb.Stacks[0], tb.MC)
		target := tb.hostIP(15).String()
		sent := 0
		var dialErr error
		var send func()
		send = func() {
			client.Dial(target, 80, func(s *mic.Stream, err error) {
				if err != nil {
					dialErr = err
					return
				}
				s.Send([]byte("short rpc"))
				s.Close()
				sent++
				if !reuse {
					// Tear the channel down after every message, forcing a
					// fresh MC request next time.
					// lint:ignore errdrop the driver sequences on the completion callback; the error only signals an already-gone channel
					client.CloseChannel(target, func() {
						if sent < messages {
							send()
						}
					})
					return
				}
				if sent < messages {
					send()
				}
			})
		}
		send()
		tb.Eng.Run()
		if dialErr != nil {
			return 0, fmt.Errorf("a3: message %d (reuse=%v): %w", sent+1, reuse, dialErr)
		}
		if sent != messages {
			return 0, fmt.Errorf("a3: only %d/%d messages sent (reuse=%v)", sent, messages, reuse)
		}
		return float64(tb.MC.Requests), nil
	}
	withReuse, err := load(true)
	if err != nil {
		return nil, err
	}
	without, err := load(false)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("policy", "mc_requests_for_20_messages")
	tbl.AddRow("channel reuse (MIC)", withReuse)
	tbl.AddRow("per-connection setup", without)
	return &Result{
		ID: "a3", Title: "MC request load under massive short communications", Table: tbl,
		Notes: []string{
			"expected: 1 request with reuse vs one per message without (Sec IV-B1)",
		},
	}, nil
}

func init() {
	register(Experiment{
		ID:    "a4",
		Title: "Ablation: random vs least-loaded m-flow path selection (8 concurrent channels)",
		Run:   runA4PathPolicy,
	})
	register(Experiment{
		ID:    "s5",
		Title: "Sec V (quantified): rate-pattern analysis vs m-flow count",
		Run:   runS5RatePattern,
	})
}

func runA4PathPolicy(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	size := transferSize(cfg) / 4
	tbl := metrics.NewTable("policy", "flows", "avg_mbps")
	for _, policy := range []mic.PathPolicy{mic.PathRandom, mic.PathLeastLoaded} {
		name := "random"
		if policy == mic.PathLeastLoaded {
			name = "least-loaded"
		}
		for _, nf := range []int{4, 8} {
			policy, nf := policy, nf
			sample, err := RunTrials(cfg.Trials, cfg.Seed, func(seed uint64) (float64, error) {
				return MultiFlowAvgThroughput(SchemeMICTCP, nf, size, seed, mic.Config{PathPolicy: policy})
			})
			if err != nil {
				return nil, fmt.Errorf("a4 %s/%d: %w", name, nf, err)
			}
			tbl.AddRow(name, nf, sample.Mean())
		}
	}
	return &Result{
		ID: "a4", Title: "Path policy under concurrent channels", Table: tbl,
		Notes: []string{
			"least-loaded uses the MC's global channel map to avoid stacking m-flows on one link; random is the paper's (anonymity-preserving) default",
		},
	}, nil
}

func runS5RatePattern(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	tbl := metrics.NewTable("m_flows", "best_rate_corr", "observed_peak_ratio")
	for _, mf := range []int{1, 2, 4, 8} {
		corr, peak, err := ratePatternTrial(mf, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("s5 mflows %d: %w", mf, err)
		}
		tbl.AddRow(mf, corr, peak)
	}
	return &Result{
		ID: "s5", Title: "Rate-pattern adversary at the responder edge", Table: tbl,
		Notes: []string{
			"multiple m-flows dilute the observable rate amplitude (~1/F) but the temporal shape of the best-matching flow stays correlated — MIC reduces what rate analysis measures, not that the pattern exists (consistent with Sec IV-C's scope)",
		},
	}, nil
}

// ratePatternTrial sends the rate-pattern bursts through a MIC channel of
// mflows m-flows and runs the rate adversary at the responder's edge switch.
func ratePatternTrial(mflows int, seed uint64) (corr, peak float64, err error) {
	tb, err := pairBed(SchemeMICTCP, mic.Config{MFlows: mflows, MNs: 2}, seed)
	if err != nil {
		return 0, 0, err
	}
	ref, resp, until, err := tb.burstsAtEdges(tb.tapSwitches(), 15, false)
	if err != nil {
		return 0, 0, err
	}
	_, corr, peak = resp.RateMatch(rateWindow, ref, until)
	return corr, peak, nil
}

// The rate-pattern trials' sender (figs s5, s6): bursts sends of burstBytes,
// burstGap apart; and the window their adversary bins rates in.
const (
	bursts     = 5
	burstBytes = 30_000
	burstGap   = 4 * time.Millisecond
	rateWindow = time.Millisecond
)

// burstsAtEdges sends the rate-pattern bursts over a MIC-TCP channel from
// host 0 to host `to` of tb, whose switches caps taps in switch order, and
// runs the engine until they have arrived. It returns what the rate
// adversary works from over [0, until): ref, the summed rate series at the
// first switch exposing the initiator — of every flow there, or with
// initOnly of those addressed from or to the initiator — and resp, the
// capture of the first switch exposing the responder.
func (tb *Testbed) burstsAtEdges(caps []*adversary.Capture, to int, initOnly bool) (ref []float64, resp *adversary.Capture, until sim.Time, err error) {
	t := tb.expect(SchemeMICTCP, to, 80, bursts*burstBytes)
	tb.dial(SchemeMICTCP, 0, to, 80, 0, func(s transport.ByteStream, err error) {
		if err != nil {
			t.DialErr = err
			return
		}
		t.begin(tb, s)
		var send func(n int)
		send = func(n int) {
			if n == 0 {
				return
			}
			s.Send(payload(burstBytes))
			tb.Eng.After(burstGap, func() { send(n - 1) })
		}
		send(bursts)
	})
	tb.Eng.Run()
	if err := t.Err(); err != nil {
		return nil, nil, 0, err
	}
	until = tb.Eng.Now()
	initIP, respIP := tb.hostIP(0), tb.hostIP(to)
	var init *adversary.Capture
	for _, c := range caps {
		if init == nil && len(c.Exposure(initIP)) > 0 {
			init = c
		}
		if resp == nil && len(c.Exposure(respIP)) > 0 {
			resp = c
		}
	}
	if init == nil || resp == nil {
		return nil, nil, 0, fmt.Errorf("harness: edge captures missing")
	}
	for _, k := range init.FlowKeys() {
		if initOnly && k.SrcIP != initIP && k.DstIP != initIP {
			continue
		}
		s := init.RateSeries(rateWindow, k, until)
		if ref == nil {
			ref = make([]float64, len(s))
		}
		for i := range s {
			ref[i] += s[i]
		}
	}
	return ref, resp, until, nil
}
