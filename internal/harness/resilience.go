package harness

import (
	"fmt"
	"strings"
	"time"

	"mic/internal/metrics"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

func init() {
	register(Experiment{
		ID:    "s7",
		Title: "Data-plane resilience: goodput vs per-link loss (MIC vs TCP)",
		Run:   runS7Resilience,
	})
}

// runS7Resilience measures bulk goodput while one interior (agg<->core) link
// on the transfer's path runs a gray fault: random per-frame loss the control
// plane never sees. TCP has a single path, so every byte crosses the sick
// link and go-back-N recovery caps its goodput. MIC slices the stream over
// F=4 m-flows of which only one crosses the sick link; the per-m-flow health
// monitor notices the slow flow, retransmits its overdue slices over healthy
// flows, and rebalances the slicing weights away from it. The ablation
// column (health machinery disabled) shows the same channel without the
// resilience layer: the lossy m-flow's conn still recovers frame-by-frame,
// but the stream must wait for it.
func runS7Resilience(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	size := 4 << 20
	if cfg.Quick {
		size = 1 << 20
	}
	tbl := metrics.NewTable("link_loss", "tcp_mbps", "mic_f4_mbps", "mic_f4_nohealth_mbps")
	for _, p := range []float64{0, 0.01, 0.05, 0.20} {
		cols, err := runTrialColumns(cfg.Trials, cfg.Seed, func(seed uint64) ([]float64, error) {
			tcp, err := s7TCPTrial(p, size, seed)
			if err != nil {
				return nil, fmt.Errorf("tcp: %w", err)
			}
			on, err := s7MICTrial(p, size, seed, false)
			if err != nil {
				return nil, fmt.Errorf("mic: %w", err)
			}
			off, err := s7MICTrial(p, size, seed, true)
			return []float64{tcp, on, off}, err
		})
		if err != nil {
			return nil, fmt.Errorf("s7 loss=%g: %w", p, err)
		}
		tbl.AddRow(fmt.Sprintf("%g%%", p*100), cols[0].Mean(), cols[1].Mean(), cols[2].Mean())
	}
	return &Result{
		ID: "s7", Title: "Goodput under a gray (lossy) interior link", Table: tbl,
		Notes: []string{
			"the faulted link is an agg<->core hop on the transfer's own path; loss is invisible to the control plane (no port-down event), so only endpoint machinery can react",
			"TCP: single path, every segment crosses the sick link; MIC F=4: one m-flow crosses it, slices retransmit over the healthy three and weights rebalance away",
			"mic_f4_nohealth: same channel with the health/retransmit/rebalance layer disabled — each m-flow's conn still recovers losses itself, but the stream is paced by its slowest quarter",
			"channels use PathLeastLoaded so the four m-flows start with per-flow link diversity",
		},
	}, nil
}

// s7Cap bounds one trial's virtual time; a trial that misses it reports the
// goodput of whatever arrived, rather than erroring.
const s7Cap = 60 * time.Second

// s7TCPTrial sends one bulk TCP transfer h0 -> h15 and returns its goodput
// in Mbps, with the path's agg<->core hop degraded to the given loss rate.
// The hop is discovered by tracing a warmup transfer's link counters.
func s7TCPTrial(loss float64, size int, seed uint64) (float64, error) {
	tb, err := NewTestbed(SchemeTCP, 4, netsim.Config{Seed: seed}, mic.Config{}, nil)
	if err != nil {
		return 0, err
	}
	const warm = 64 << 10
	t := tb.expect(SchemeTCP, 15, 80, warm+size)
	var traceErr error
	data := payload(size)
	tb.dial(SchemeTCP, 0, 15, 80, 0, func(s appStream, err error) {
		if err != nil {
			t.DialErr = err
			return
		}
		s.Send(payload(warm))
		tb.Eng.After(3*time.Millisecond, func() {
			node, port, ok := hottestCoreUplink(tb)
			if !ok {
				traceErr = fmt.Errorf("harness: warmup traced no agg<->core hop")
				return
			}
			if loss > 0 {
				tb.Net.SetLinkFault(node, port, netsim.FaultProfile{Loss: loss})
			}
			t.begin(tb, s)
			s.Send(data)
		})
	})
	tb.Eng.RunUntil(sim.Time(s7Cap))
	if t.DialErr != nil {
		return 0, t.DialErr
	}
	if traceErr != nil {
		return 0, traceErr
	}
	return s7Goodput(t.Got-warm, t, tb.Eng.Now()), nil
}

// s7MICTrial sends one bulk MIC-TCP transfer h0 -> h15 over F=4 m-flows and
// returns its goodput in Mbps, with an interior link crossed by exactly one
// m-flow degraded to the given loss rate. disabled turns off the stream's
// health/retransmit/rebalance machinery (the ablation).
func s7MICTrial(loss float64, size int, seed uint64, disabled bool) (float64, error) {
	tb, err := NewTestbed(SchemeMICTCP, 4, netsim.Config{Seed: seed}, mic.Config{
		MNs: 2, MFlows: 4, PathPolicy: mic.PathLeastLoaded, Seed: seed + 1,
	}, nil)
	if err != nil {
		return 0, err
	}
	t := tb.expect(SchemeMICTCP, 15, 80, size)
	client := mic.NewClient(tb.Stacks[0], tb.MC)
	client.Health = mic.HealthConfig{Disabled: disabled}
	target := tb.hostIP(15).String()
	var str *mic.Stream
	client.Dial(target, 80, func(s *mic.Stream, err error) {
		t.DialErr = err
		str = s
	})
	tb.Eng.RunFor(5 * time.Millisecond)
	if t.DialErr != nil {
		return 0, t.DialErr
	}
	if str == nil {
		return 0, fmt.Errorf("harness: MIC stream not established in 5ms")
	}
	if loss > 0 {
		info, ok := client.Channel(target)
		if !ok {
			return 0, fmt.Errorf("harness: no cached channel to %s", target)
		}
		node, port, ok := flowUniqueInteriorLink(tb.Graph, info)
		if !ok {
			return 0, fmt.Errorf("harness: no m-flow has a flow-unique interior link")
		}
		tb.Net.SetLinkFault(node, port, netsim.FaultProfile{Loss: loss})
	}
	t.begin(tb, str)
	str.Send(payload(size))
	tb.Eng.RunUntil(t.Start + sim.Time(s7Cap))
	return s7Goodput(t.Got, t, tb.Eng.Now()), nil
}

// s7Goodput converts the bytes of t's timed part into Mbps. A finished
// trial is scored over its true duration; one that blew the cap is scored
// over the cap, crediting only what arrived.
func s7Goodput(bytes int, t *Transfer, now sim.Time) float64 {
	if bytes <= 0 {
		return 0
	}
	at := t.End
	if at == 0 {
		at = now
	}
	return mbps(bytes, time.Duration(at-t.Start))
}

// hottestCoreUplink returns the agg->core link direction that carried the
// most bytes so far — with a single warmed-up flow, the path's core uplink.
func hottestCoreUplink(tb *Testbed) (topo.NodeID, int, bool) {
	var bestNode topo.NodeID
	bestPort := -1
	var best uint64
	for _, sid := range tb.Graph.Switches() {
		n := tb.Graph.Node(sid)
		if !strings.HasPrefix(n.Name, "agg") {
			continue
		}
		for p, port := range n.Ports {
			if !strings.HasPrefix(tb.Graph.Node(port.Peer).Name, "core") {
				continue
			}
			if tx := tb.Net.LinkTxBytes(sid, p); tx > best {
				best, bestNode, bestPort = tx, sid, p
			}
		}
	}
	return bestNode, bestPort, bestPort >= 0
}

// flowUniqueInteriorLink finds an interior switch-switch hop (not adjacent
// to either end's edge switch) crossed by exactly one of the channel's
// m-flows — the right place for a gray fault that degrades one m-flow
// without starving the rest.
func flowUniqueInteriorLink(g *topo.Graph, info *mic.ChannelInfo) (topo.NodeID, int, bool) {
	for fi := range info.Flows {
		onOther := map[[2]topo.NodeID]bool{}
		for j, fl := range info.Flows {
			if j == fi {
				continue
			}
			for i := 0; i+1 < len(fl.Path); i++ {
				onOther[[2]topo.NodeID{fl.Path[i], fl.Path[i+1]}] = true
				onOther[[2]topo.NodeID{fl.Path[i+1], fl.Path[i]}] = true
			}
		}
		path := info.Flows[fi].Path
		for i := 2; i+4 <= len(path); i++ {
			a, b := path[i], path[i+1]
			if g.Node(a).Kind != topo.KindSwitch || g.Node(b).Kind != topo.KindSwitch {
				continue
			}
			if onOther[[2]topo.NodeID{a, b}] {
				continue
			}
			return a, g.PortTo(a, b), true
		}
	}
	return 0, -1, false
}
