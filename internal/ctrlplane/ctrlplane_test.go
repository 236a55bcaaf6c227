package ctrlplane

import (
	"testing"
	"time"

	"mic/internal/addr"
	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

func build(t *testing.T, g *topo.Graph) (*sim.Engine, *netsim.Network, *Channel) {
	t.Helper()
	return buildOn(t, g, 0)
}

// buildOn is build on a network seeded seed, the root of the channel's
// southbound loss coin.
func buildOn(t *testing.T, g *topo.Graph, seed uint64) (*sim.Engine, *netsim.Network, *Channel) {
	t.Helper()
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{Seed: seed})
	return eng, net, NewChannel(net)
}

// installOne installs e alone on sw; onAll receives 1 if it failed.
func installOne(ch *Channel, sw *netsim.Switch, e *flowtable.Entry, onAll func(failed int)) {
	ch.Install([]Mod{{Switch: sw, Entry: e}}, onAll)
}

func TestFlowModAppliesAfterLatency(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, net, ch := build(t, g)
	sw := net.Switch(g.Switches()[0])
	acked := sim.Time(-1)
	installOne(ch, sw, &flowtable.Entry{Priority: 1}, func(int) { acked = eng.Now() })
	if sw.Table.Len() != 0 {
		t.Fatal("FlowMod applied synchronously")
	}
	eng.Run()
	if sw.Table.Len() != 1 {
		t.Fatal("FlowMod never applied")
	}
	if want := sim.Time(2 * Latency); acked != want {
		t.Fatalf("ack at %v, want %v (2x one-way latency)", acked, want)
	}
	if ch.FlowMods != 1 {
		t.Fatalf("FlowMods counter = %d", ch.FlowMods)
	}
}

func TestInstallAllWaitsForEveryAck(t *testing.T) {
	g, _ := topo.Linear(3)
	eng, net, ch := build(t, g)
	var mods []Mod
	for _, sid := range g.Switches() {
		mods = append(mods, Mod{Switch: net.Switch(sid), Entry: &flowtable.Entry{Priority: 1}})
	}
	mods[0].Group = &flowtable.Group{ID: 9}
	done := sim.Time(-1)
	ch.Install(mods, func(int) { done = eng.Now() })
	eng.Run()
	if done < 0 {
		t.Fatal("InstallAll callback never fired")
	}
	// All mods go out concurrently: completion is one control RTT.
	if want := sim.Time(2 * Latency); done != want {
		t.Fatalf("InstallAll completed at %v, want %v", done, want)
	}
	for _, sid := range g.Switches() {
		if net.Switch(sid).Table.Len() != 1 {
			t.Fatalf("switch %v missing entry", sid)
		}
	}
	if _, ok := net.Switch(g.Switches()[0]).Table.Group(9); !ok {
		t.Fatal("group not installed")
	}
}

func TestInstallAllEmpty(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, _, ch := build(t, g)
	fired := false
	ch.Install(nil, func(int) { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("empty InstallAll never completed")
	}
}

func TestDeleteByCookie(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, net, ch := build(t, g)
	sw := net.Switch(g.Switches()[0])
	sw.Table.Insert(&flowtable.Entry{Priority: 1, Cookie: 7}, 0)
	sw.Table.Insert(&flowtable.Entry{Priority: 2, Cookie: 7, Match: flowtable.Match{Mask: flowtable.MatchInPort, InPort: 1}}, 0)
	removed := -1
	ch.DeleteByCookie(sw, 7, func(_ topo.NodeID, n int) { removed = n })
	eng.Run()
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if sw.Table.Len() != 0 {
		t.Fatal("entries survived delete")
	}
}

func TestPacketOut(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, net, ch := build(t, g)
	sw := net.Switch(g.Switches()[0])
	h2 := net.Host(g.Hosts()[1])
	var got *packet.Packet
	h2.SetHandler(func(_ int, p *packet.Packet) { got = p })
	ch.PacketOut(sw, []flowtable.Action{flowtable.Output(g.PortTo(sw.ID, h2.ID))}, &packet.Packet{DstIP: h2.IP, TTL: 64})
	eng.Run()
	if got == nil {
		t.Fatal("PacketOut not delivered")
	}
	if ch.PacketOuts != 1 {
		t.Fatalf("PacketOuts = %d", ch.PacketOuts)
	}
}

func TestProactiveRouterFatTree(t *testing.T) {
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	r := &ProactiveRouter{CFLabel: 1000}
	if _, err := r.Install(net); err != nil {
		t.Fatal(err)
	}

	hosts := g.Hosts()
	// Every ordered host pair must deliver.
	pairs := [][2]int{{0, 1}, {0, 3}, {0, 15}, {7, 8}, {15, 0}, {4, 12}}
	for _, pr := range pairs {
		src, dst := net.Host(hosts[pr[0]]), net.Host(hosts[pr[1]])
		var got *packet.Packet
		dst.SetHandler(func(_ int, p *packet.Packet) { got = p })
		src.Send(0, &packet.Packet{
			SrcMAC: src.MAC, SrcIP: src.IP, DstIP: dst.IP,
			Proto: packet.ProtoTCP, TTL: 64, Payload: []byte("cf"),
		})
		eng.Run()
		if got == nil {
			t.Fatalf("pair %v undelivered", pr)
		}
		if len(got.MPLS) != 0 {
			t.Fatalf("pair %v delivered with residual MPLS %v", pr, got.MPLS)
		}
		if got.DstMAC != dst.MAC {
			t.Fatalf("pair %v delivered with wrong MAC", pr)
		}
	}
}

func TestProactiveRouterTagsInterSwitchTraffic(t *testing.T) {
	g, _ := topo.FatTree(4)
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	r := &ProactiveRouter{CFLabel: 1000}
	if _, err := r.Install(net); err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	src, dst := net.Host(hosts[0]), net.Host(hosts[15])
	dst.SetHandler(func(_ int, p *packet.Packet) {})

	// Tap a core switch: every transit packet must carry the CF label.
	sawTagged := false
	for _, sid := range g.Switches() {
		if g.Node(sid).Name == "core1" {
			net.AddTap(sid, func(ev netsim.TapEvent) {
				if l, ok := ev.Pkt.TopMPLS(); ok && l == 1000 {
					sawTagged = true
				} else {
					t.Errorf("untagged transit packet at core: %v", ev.Pkt)
				}
			})
		}
	}
	for i := 0; i < 4; i++ {
		src.Send(0, &packet.Packet{SrcIP: src.IP, DstIP: dst.IP, Proto: packet.ProtoTCP, TTL: 64})
	}
	eng.Run()
	if !sawTagged {
		t.Skip("flow did not transit core1 (ECMP chose another core); routing still verified elsewhere")
	}
}

func TestProactiveRouterSameEdgeNoLabel(t *testing.T) {
	g, _ := topo.FatTree(4)
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	r := &ProactiveRouter{CFLabel: 1000}
	if _, err := r.Install(net); err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts() // h1 and h2 share edge1_1
	src, dst := net.Host(hosts[0]), net.Host(hosts[1])
	var got *packet.Packet
	dst.SetHandler(func(_ int, p *packet.Packet) { got = p })
	src.Send(0, &packet.Packet{SrcIP: src.IP, DstIP: dst.IP, Proto: packet.ProtoTCP, TTL: 64})
	eng.Run()
	if got == nil {
		t.Fatal("undelivered")
	}
	if len(got.MPLS) != 0 {
		t.Fatalf("same-edge traffic was labeled: %v", got.MPLS)
	}
}

func TestProactiveRouterLinear(t *testing.T) {
	g, _ := topo.Linear(5)
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	r := &ProactiveRouter{CFLabel: 42}
	n, err := r.Install(net)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no rules installed")
	}
	src, dst := net.Host(g.Hosts()[0]), net.Host(g.Hosts()[1])
	var got *packet.Packet
	dst.SetHandler(func(_ int, p *packet.Packet) { got = p })
	src.Send(0, &packet.Packet{SrcIP: src.IP, DstIP: dst.IP, Proto: packet.ProtoTCP, TTL: 64, Payload: []byte("abc")})
	eng.Run()
	if got == nil || string(got.Payload) != "abc" {
		t.Fatalf("delivery failed: %v", got)
	}
}

// TestInstallAckedOneRoundTripAfterSend: an install sent at any instant is
// acknowledged one control round trip later.
func TestInstallAckedOneRoundTripAfterSend(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, net, ch := build(t, g)
	sw := net.Switch(g.Switches()[0])
	sent := sim.Time(3 * time.Millisecond)
	var at sim.Time
	eng.At(sent, func() {
		installOne(ch, sw, &flowtable.Entry{Priority: 1}, func(int) { at = eng.Now() })
	})
	eng.Run()
	if want := sent.Add(2 * Latency); at != want {
		t.Fatalf("ack at %v, want %v", at, want)
	}
}

func TestRouterRulePrioritiesBelowMFlow(t *testing.T) {
	if PriorityCommonUntagged >= PriorityMFlow || PriorityCommonTagged >= PriorityMFlow {
		t.Fatal("m-flow rules must out-rank common routing")
	}
	_ = addr.Label(0)
}

// TestECMPSpreadsDestinations: the proactive router must not funnel every
// destination through the same uplink — ECMP hashing should use several
// equal-cost ports.
func TestECMPSpreadsDestinations(t *testing.T) {
	g, _ := topo.FatTree(4)
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	r := &ProactiveRouter{CFLabel: 5}
	if _, err := r.Install(net); err != nil {
		t.Fatal(err)
	}
	// At edge1_1, destinations in other pods can leave via either agg.
	// Collect the chosen uplink per remote destination from the installed
	// untagged rules.
	var edge *netsim.Switch
	for _, sw := range net.Switches() {
		if sw.Name == "edge1_1" {
			edge = sw
		}
	}
	ports := map[int]int{}
	for _, e := range edge.Table.Entries() {
		if e.Cookie != CookieCommon {
			continue
		}
		for _, a := range e.Actions {
			if a.Op == flowtable.OpOutput {
				out := int(a.Arg)
				if peer := g.Node(edge.ID).Ports[out].Peer; g.Node(peer).Kind == topo.KindSwitch {
					ports[out]++
				}
			}
		}
	}
	if len(ports) < 2 {
		t.Fatalf("all destinations use one uplink: %v", ports)
	}
}

// TestLossyChannelConverges: at 25% per-direction control loss, every
// install message must still land via retransmission, and the reliability
// counters must show the work. Each entry has its own cookie, so each is its
// own message.
func TestLossyChannelConverges(t *testing.T) {
	g, _ := topo.Linear(4)
	eng, net, ch := buildOn(t, g, 7)
	ch.LossRate = 0.25
	var mods []Mod
	for i, sid := range g.Switches() {
		for j := 0; j < 8; j++ {
			mods = append(mods, Mod{Switch: net.Switch(sid), Entry: &flowtable.Entry{
				Priority: 10 + j,
				Cookie:   uint64(len(mods) + 1),
				Match:    flowtable.Match{Mask: flowtable.MatchInPort, InPort: i*10 + j},
			}})
		}
	}
	failed := -1
	ch.Install(mods, func(f int) { failed = f })
	eng.Run()
	if failed != 0 {
		t.Fatalf("abandoned %d mods at 25%% loss (retry budget too small)", failed)
	}
	for _, sid := range g.Switches() {
		if n := net.Switch(sid).Table.Len(); n != 8 {
			t.Fatalf("switch %v has %d entries, want 8", sid, n)
		}
		if ch.InFlight(sid) != 0 {
			t.Fatalf("switch %v still has %d in-flight after completion", sid, ch.InFlight(sid))
		}
	}
	if ch.Retransmits == 0 || ch.Timeouts == 0 {
		t.Fatalf("loss left no trace: retransmits=%d timeouts=%d", ch.Retransmits, ch.Timeouts)
	}
	if ch.Acked != uint64(len(mods)) {
		t.Fatalf("acked=%d, want %d", ch.Acked, len(mods))
	}
}

// TestGiveUpAfterRetryBudget: messages to a dead switch are abandoned after
// MaxRetries with capped backoff, and the failure is observable.
func TestGiveUpAfterRetryBudget(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, net, ch := build(t, g)
	ch.MaxRetries = 3
	sw := net.Switch(g.Switches()[0])
	net.SetSwitchDown(sw.ID, true)
	failed := -1
	installOne(ch, sw, &flowtable.Entry{Priority: 1}, func(f int) { failed = f })
	if ch.InFlight(sw.ID) != 1 {
		t.Fatalf("in-flight = %d", ch.InFlight(sw.ID))
	}
	eng.Run()
	if failed != 1 {
		t.Fatalf("dead switch: %d mods failed, want 1", failed)
	}
	if ch.GiveUps != 1 || ch.Failed(sw.ID) != 1 {
		t.Fatalf("give-up not recorded: %d / %d", ch.GiveUps, ch.Failed(sw.ID))
	}
	if ch.Retransmits != 3 {
		t.Fatalf("retransmits = %d, want 3", ch.Retransmits)
	}
	if ch.InFlight(sw.ID) != 0 {
		t.Fatalf("in-flight leaked: %d", ch.InFlight(sw.ID))
	}
	if sw.Table.Len() != 0 {
		t.Fatal("rule appeared on a dead switch")
	}
}

// TestBackoffIsCapped: the retransmit timer doubles from AckTimeout until
// MaxBackoff caps it, so the give-up time grows linearly past the cap
// rather than exponentially.
func TestBackoffIsCapped(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, net, ch := build(t, g)
	ch.MaxRetries = 6
	sw := net.Switch(g.Switches()[0])
	net.SetSwitchDown(sw.ID, true)
	var doneAt sim.Time
	installOne(ch, sw, &flowtable.Entry{Priority: 1}, func(int) { doneAt = eng.Now() })
	eng.Run()
	// 7 attempts wait 2 + 4 + 8 + 16 + 32 + 32 + 32 = 126ms; uncapped, the
	// last two would wait 64 and 128ms (254ms in all).
	if want := sim.Time(126 * time.Millisecond); doneAt != want {
		t.Fatalf("gave up at %v, want %v (cap not applied)", doneAt, want)
	}
}

// TestBarrierWaitsForInFlight: a barrier must not complete before messages
// sent ahead of it resolve.
func TestBarrierWaitsForInFlight(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, net, ch := build(t, g)
	sw := net.Switch(g.Switches()[0])
	applied := false
	installOne(ch, sw, &flowtable.Entry{Priority: 1}, func(failed int) { applied = failed == 0 })
	barrierOK := false
	ch.Barrier(sw, func(ok bool) {
		if !applied {
			t.Fatal("barrier completed before the preceding FlowMod was acked")
		}
		barrierOK = ok
	})
	eng.Run()
	if !barrierOK {
		t.Fatal("barrier never completed")
	}
	// An idle channel's barrier is just one round trip.
	at := sim.Time(-1)
	ch.Barrier(sw, func(bool) { at = eng.Now() })
	start := eng.Now()
	eng.Run()
	if at.Sub(start) != 2*Latency {
		t.Fatalf("idle barrier took %v, want one RTT", at.Sub(start))
	}
	if ch.Barriers != 2 {
		t.Fatalf("Barriers = %d", ch.Barriers)
	}
}

// TestDeleteByCookieOnDeadSwitch: the controller must learn the delete
// never landed.
func TestDeleteByCookieOnDeadSwitch(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, net, ch := build(t, g)
	ch.MaxRetries = 2
	sw := net.Switch(g.Switches()[0])
	sw.Table.Insert(&flowtable.Entry{Priority: 1, Cookie: 9}, 0)
	net.SetSwitchDown(sw.ID, true)
	removed := 0
	ch.DeleteByCookie(sw, 9, func(_ topo.NodeID, n int) { removed = n })
	eng.Run()
	if removed != -1 {
		t.Fatalf("removed = %d, want -1 (unacknowledged)", removed)
	}
	if sw.Table.Len() != 1 {
		t.Fatal("rule vanished from a dead switch")
	}
}

// TestProberDetectsSilentFailure: a quiet switch failure (no port-status
// event) is caught by echo probing within Misses intervals, and recovery is
// reported when the switch answers again.
func TestProberDetectsSilentFailure(t *testing.T) {
	g, _ := topo.Linear(3)
	eng, net, ch := build(t, g)
	victim := g.Switches()[1]
	p := NewProber(ch, 10*time.Millisecond)
	var downAt, upAt sim.Time = -1, -1
	var downID topo.NodeID = -1
	p.OnDown = func(id topo.NodeID) { downID, downAt = id, eng.Now() }
	p.OnUp = func(id topo.NodeID) { upAt = eng.Now() }
	stop := p.Start()
	eng.RunFor(25 * time.Millisecond) // two healthy rounds
	if downAt >= 0 {
		t.Fatal("healthy switch declared dead")
	}
	net.SetSwitchDownQuiet(victim, true)
	failedAt := eng.Now()
	eng.RunFor(50 * time.Millisecond)
	if downID != victim {
		t.Fatalf("prober blamed %v, want %v", downID, victim)
	}
	if !p.Dead(victim) {
		t.Fatal("Dead() disagrees with OnDown")
	}
	detect := downAt.Sub(failedAt)
	if detect <= 0 || detect > 40*time.Millisecond {
		t.Fatalf("detection latency %v outside (0, 4 intervals]", detect)
	}
	net.SetSwitchDownQuiet(victim, false)
	eng.RunFor(30 * time.Millisecond)
	if upAt < 0 || p.Dead(victim) {
		t.Fatal("recovery not detected")
	}
	stop()
	if p.Deaths != 1 || p.Recoveries != 1 {
		t.Fatalf("deaths=%d recoveries=%d", p.Deaths, p.Recoveries)
	}
}

// TestProberIgnoresEchoesAfterStop: a switch declared dead comes back while
// a probe round is in flight, and the prober is stopped before the round's
// echoes are answered. The answers arrive, but a stopped prober records
// nothing: no recovery, and the engine drains.
func TestProberIgnoresEchoesAfterStop(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, net, ch := build(t, g)
	id := g.Switches()[0]
	p := NewProber(ch, 10*time.Millisecond)
	net.SetSwitchDownQuiet(id, true)
	stop := p.Start()
	eng.RunFor(35 * time.Millisecond) // three silent rounds
	if !p.Dead(id) || p.Deaths != 1 {
		t.Fatalf("silent switch: dead %v, deaths %d", p.Dead(id), p.Deaths)
	}
	net.SetSwitchDownQuiet(id, false)
	eng.RunUntil(sim.Time(40*time.Millisecond + Latency)) // round four's echoes arrived
	stop()
	eng.Run()
	if p.Probes != 4 || p.Recoveries != 0 || !p.Dead(id) {
		t.Fatalf("after stop: probes %d recoveries %d dead %v, want 4, 0, true", p.Probes, p.Recoveries, p.Dead(id))
	}
	if ch.Echoes != 4*ProbeRedundancy {
		t.Fatalf("%d echoes sent, want %d", ch.Echoes, 4*ProbeRedundancy)
	}
}

// TestProberTolleratesLoss: at 20% control loss a healthy fabric must not be
// declared dead (the consecutive-miss debounce).
func TestProberToleratesLoss(t *testing.T) {
	g, _ := topo.Linear(4)
	eng, _, ch := buildOn(t, g, 99)
	ch.LossRate = 0.2
	p := NewProber(ch, 5*time.Millisecond)
	p.OnDown = func(id topo.NodeID) { t.Errorf("false positive on switch %v", id) }
	stop := p.Start()
	eng.RunFor(500 * time.Millisecond)
	stop()
	if p.Probes < 90 {
		t.Fatalf("prober ran %d rounds, expected ~100", p.Probes)
	}
}

// Dead reports whether the prober currently believes switch id is down.
func (p *Prober) Dead(id topo.NodeID) bool { return p.dead[id] }
