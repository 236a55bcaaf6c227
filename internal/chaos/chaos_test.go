package chaos_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"mic/internal/chaos"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// TestChaosTransferSurvives is the headline robustness test: a fat-tree
// carrying one MIC transfer absorbs the full five-act fault storm — link
// flap, core crash, lossy control channel with a concurrent cut, agg crash,
// correlated pod failure — and the self-healing MC delivers every byte with
// zero manual repair calls.
func TestChaosTransferSurvives(t *testing.T) {
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	mc, err := mic.NewMC(net, mic.Config{MNs: 3, AutoRepair: true, RepairMaxRetries: 20})
	if err != nil {
		t.Fatal(err)
	}
	var stacks []*transport.Stack
	for _, hid := range g.Hosts() {
		stacks = append(stacks, transport.NewStack(net.Host(hid)))
	}
	data := make([]byte, 32<<20) // spans all five acts of the default schedule
	for i := range data {
		data[i] = byte(i*131 + i>>10)
	}
	var got []byte
	mic.Listen(stacks[15], 80, false, func(s *mic.Stream) {
		s.OnData(func(b []byte) { got = append(got, b...) })
	})
	client := mic.NewClient(stacks[0], mc)
	target := stacks[15].Host.IP.String()
	client.Dial(target, 80, func(s *mic.Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Send(data)
	})

	sched, err := chaos.Fabric.Resolve(g, 7, g.Hosts()[0], g.Hosts()[15])
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("schedule:\n%s", sched.Render(g))
	runner := chaos.NewRunner(net, mc.Ch)
	if err := runner.Play(sched); err != nil {
		t.Fatal(err)
	}

	eng.RunUntil(sim.Time(120 * time.Second))
	if len(runner.Applied) != len(sched) {
		t.Fatalf("only %d/%d faults applied", len(runner.Applied), len(sched))
	}
	if n := kinds(sched); len(n) < 3 {
		t.Fatalf("schedule exercised only %d fault kinds: %v", len(n), n)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("chaos broke the transfer: %d/%d bytes delivered (repairs=%d failures=%d)",
			len(got), len(data), mc.Repairs, mc.RepairFailures)
	}
	if mc.Repairs == 0 {
		t.Fatal("storm triggered no repair; the schedule is not stressing self-healing")
	}
	if mc.Ch.Retransmits == 0 {
		t.Fatal("control-loss window caused no retransmission; degradation not exercised")
	}
	if mc.RepairFailures != 0 {
		t.Fatalf("%d channels declared unrepairable during a survivable storm", mc.RepairFailures)
	}
}

// TestChaosDeterministicOutcome replays the same storm twice and demands
// bit-identical fault logs and repair counts — the property that makes
// chaos failures debuggable.
func TestChaosDeterministicOutcome(t *testing.T) {
	run := func() (applied []chaos.Fault, repairs uint64, bytesGot int) {
		g, err := topo.FatTree(4)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		net := netsim.New(eng, g, netsim.Config{})
		mc, err := mic.NewMC(net, mic.Config{MNs: 3, AutoRepair: true, RepairMaxRetries: 20})
		if err != nil {
			t.Fatal(err)
		}
		var stacks []*transport.Stack
		for _, hid := range g.Hosts() {
			stacks = append(stacks, transport.NewStack(net.Host(hid)))
		}
		data := make([]byte, 32<<20)
		got := 0
		mic.Listen(stacks[15], 80, false, func(s *mic.Stream) {
			s.OnData(func(b []byte) { got += len(b) })
		})
		client := mic.NewClient(stacks[0], mc)
		client.Dial(stacks[15].Host.IP.String(), 80, func(s *mic.Stream, err error) {
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			s.Send(data)
		})
		sched, err := chaos.Fabric.Resolve(g, 3, g.Hosts()[0], g.Hosts()[15])
		if err != nil {
			t.Fatal(err)
		}
		runner := chaos.NewRunner(net, mc.Ch)
		if err := runner.Play(sched); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(sim.Time(60 * time.Second))
		return runner.Applied, mc.Repairs, got
	}
	a1, r1, g1 := run()
	a2, r2, g2 := run()
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("applied fault logs differ between identical runs")
	}
	if r1 != r2 || g1 != g2 {
		t.Fatalf("outcome diverged: repairs %d vs %d, bytes %d vs %d", r1, r2, g1, g2)
	}
}

// TestRunnerAppliesLinkDegrade checks the runner actually installs and
// clears per-link fault profiles on the live network: a frame sent into the
// degraded cable is lost, one sent after the clear is not.
func TestRunnerAppliesLinkDegrade(t *testing.T) {
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	host := net.Host(g.Hosts()[0])
	uplink := g.Node(host.ID).Ports[0]
	sched := chaos.Schedule{
		{At: time.Millisecond, Kind: chaos.LinkDegrade, Node: uplink.Peer, Port: uplink.PeerPort, Profile: netsim.FaultProfile{Loss: 1}},
		{At: 2 * time.Millisecond, Kind: chaos.LinkClear, Node: uplink.Peer, Port: uplink.PeerPort},
	}
	runner := chaos.NewRunner(net, nil)
	if err := runner.Play(sched); err != nil {
		t.Fatal(err)
	}

	send := func() {
		host.Send(0, &packet.Packet{SrcIP: host.IP, DstIP: host.IP + 1, Proto: packet.ProtoTCP, TTL: 64})
	}
	eng.RunUntil(sim.Time(1500 * time.Microsecond))
	send()
	eng.RunUntil(sim.Time(1900 * time.Microsecond))
	if net.Stats.LostFault != 1 {
		t.Fatalf("frames lost to the degraded link = %d, want 1", net.Stats.LostFault)
	}
	eng.RunUntil(sim.Time(3 * time.Millisecond))
	send()
	eng.Run()
	if net.Stats.LostFault != 1 {
		t.Fatalf("frames lost after the clear = %d, want still 1", net.Stats.LostFault)
	}
	if len(runner.Applied) != 2 {
		t.Fatalf("applied %d faults, want 2", len(runner.Applied))
	}
}

// flowOnlyLink finds an interior switch-switch link (not adjacent to either
// end's edge switch — in a fat-tree, an agg<->core link) crossed by m-flow
// fi of the channel and by no other m-flow, so a fault there hits exactly
// one m-flow. Interior links matter: the links next to an endpoint's edge
// switch are shared chokepoints, and faulting them starves every m-flow at
// once — a failure no amount of rebalancing can route around.
func flowOnlyLink(g *topo.Graph, info *mic.ChannelInfo, fi int) (topo.NodeID, int, bool) {
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
	return 0, -1, false
}

// TestDegradedModeTransfer64MB is the degraded-mode acceptance test: a
// 64 MB transfer sliced over F=4 m-flows must complete, byte-exact, while
// one m-flow's path runs at 20% random loss (a gray failure the MC never
// sees) and a second m-flow is cut outright mid-transfer and auto-repaired
// by the MC. The ablation run (health machinery disabled, same fault
// schedule) must stall outright or take at least twice as long — proof the
// health/retransmit/rebalance layer is what keeps degraded transfers fast.
func TestDegradedModeTransfer64MB(t *testing.T) {
	data := make([]byte, 64<<20)
	for i := range data {
		data[i] = byte(i*167 + i>>12)
	}
	const cap = 600 * time.Second

	run := func(disabled bool) (done sim.Time, got int, retx int64, repairs uint64) {
		g, err := topo.FatTree(4)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		net := netsim.New(eng, g, netsim.Config{})
		// PathLeastLoaded spreads the four m-flows across the fabric so the
		// channel starts with per-flow link diversity worth degrading.
		mc, err := mic.NewMC(net, mic.Config{MFlows: 4, MNs: 2, AutoRepair: true,
			RepairMaxRetries: 20, PathPolicy: mic.PathLeastLoaded})
		if err != nil {
			t.Fatal(err)
		}
		var stacks []*transport.Stack
		for _, hid := range g.Hosts() {
			stacks = append(stacks, transport.NewStack(net.Host(hid)))
		}
		got = 0
		mic.Listen(stacks[15], 80, false, func(s *mic.Stream) {
			s.OnData(func(b []byte) {
				got += len(b)
				if got == len(data) {
					done = eng.Now()
				}
			})
		})
		client := mic.NewClient(stacks[0], mc)
		client.Health = mic.HealthConfig{Disabled: disabled}
		target := stacks[15].Host.IP.String()
		var str *mic.Stream
		client.Dial(target, 80, func(s *mic.Stream, err error) {
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			str = s
		})
		eng.RunFor(5 * time.Millisecond)
		if str == nil {
			t.Fatal("stream never opened")
		}
		info, _ := client.Channel(target)
		if len(info.Flows) != 4 {
			t.Fatalf("channel has %d m-flows, want 4", len(info.Flows))
		}
		// Lossy fault: an interior link only one m-flow crosses, so exactly
		// one m-flow degrades. Cut fault: an interior switch-switch link of a
		// *different* m-flow that avoids the lossy flow's path (other flows
		// may share it — the MC repairs every affected m-flow). Both faults
		// sit in the agg/core layer: edge-adjacent links are chokepoints
		// every m-flow shares, and breaking those leaves nothing to
		// rebalance onto.
		lossyFlow, lossyNode, lossyPort := -1, topo.NodeID(0), -1
		for fi := range info.Flows {
			if n, p, ok := flowOnlyLink(g, info, fi); ok {
				lossyFlow, lossyNode, lossyPort = fi, n, p
				break
			}
		}
		if lossyFlow < 0 {
			t.Skip("no m-flow has a link of its own")
		}
		onLossy := map[[2]topo.NodeID]bool{}
		lp := info.Flows[lossyFlow].Path
		for i := 0; i+1 < len(lp); i++ {
			onLossy[[2]topo.NodeID{lp[i], lp[i+1]}] = true
			onLossy[[2]topo.NodeID{lp[i+1], lp[i]}] = true
		}
		cutNode, cutPort := topo.NodeID(0), -1
		for fj := range info.Flows {
			if fj == lossyFlow || cutPort >= 0 {
				continue
			}
			path := info.Flows[fj].Path
			for i := 2; i+4 <= len(path); i++ {
				a, b := path[i], path[i+1]
				if g.Node(a).Kind != topo.KindSwitch || g.Node(b).Kind != topo.KindSwitch {
					continue
				}
				if onLossy[[2]topo.NodeID{a, b}] {
					continue
				}
				cutNode, cutPort = a, g.PortTo(a, b)
				break
			}
		}
		if cutPort < 0 {
			t.Skip("no cuttable link off the lossy path")
		}
		sched := chaos.Schedule{
			{At: time.Millisecond, Kind: chaos.LinkDegrade, Node: lossyNode, Port: lossyPort,
				Profile: netsim.FaultProfile{Loss: 0.2}},
			{At: 20 * time.Millisecond, Kind: chaos.LinkCut, Node: cutNode, Port: cutPort},
		}
		runner := chaos.NewRunner(net, mc.Ch)
		if err := runner.Play(sched); err != nil {
			t.Fatal(err)
		}
		str.Send(data)
		eng.RunUntil(sim.Time(cap))
		if len(runner.Applied) != len(sched) {
			t.Fatalf("only %d/%d faults applied", len(runner.Applied), len(sched))
		}
		return done, got, str.Retransmits(), mc.Repairs
	}

	done, got, retx, repairs := run(false)
	if got != len(data) || done == 0 {
		t.Fatalf("degraded-mode transfer incomplete: %d/%d bytes", got, len(data))
	}
	if repairs == 0 {
		t.Fatal("the cut m-flow was never auto-repaired")
	}
	if retx == 0 {
		t.Fatal("no slice retransmissions; the faults did not exercise the health layer")
	}
	healthyTime := time.Duration(done)
	t.Logf("health on: %v, %d slice retransmissions, %d repairs", healthyTime, retx, repairs)

	doneOff, gotOff, _, _ := run(true)
	if gotOff == len(data) && doneOff != 0 {
		ablationTime := time.Duration(doneOff)
		t.Logf("health off: %v", ablationTime)
		if ablationTime < 2*healthyTime {
			t.Fatalf("ablation finished in %v, want stall or >= 2x the healthy %v", ablationTime, healthyTime)
		}
	} else {
		t.Logf("health off: stalled at %v with %d/%d bytes", cap, gotOff, len(data))
	}
}

// kinds returns the distinct fault kinds s contains.
func kinds(s chaos.Schedule) []chaos.Kind {
	seen := map[chaos.Kind]bool{}
	var out []chaos.Kind
	for _, f := range s {
		if !seen[f.Kind] {
			seen[f.Kind] = true
			out = append(out, f.Kind)
		}
	}
	return out
}
