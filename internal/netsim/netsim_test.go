package netsim

import (
	"testing"
	"time"

	"mic/internal/addr"
	"mic/internal/flowtable"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

// linear1 builds h1-s1-h2 and returns the pieces.
func linear1(t *testing.T) (*sim.Engine, *Network, *Host, *Switch, *Host) {
	t.Helper()
	g, err := topo.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	n := New(eng, g, Config{})
	h1 := n.Host(g.Hosts()[0])
	h2 := n.Host(g.Hosts()[1])
	s1 := n.Switch(g.Switches()[0])
	return eng, n, h1, s1, h2
}

func frame(src, dst addr.IP, payload string) *packet.Packet {
	return &packet.Packet{
		SrcMAC: 1, DstMAC: 2, SrcIP: src, DstIP: dst,
		Proto: packet.ProtoTCP, TTL: 64, SrcPort: 1000, DstPort: 2000,
		Payload: []byte(payload),
	}
}

// firstArrival is the instant p, sent by a host at instant 0, reaches the
// switch at the far end of the host's link.
func firstArrival(n *Network, p *packet.Packet) sim.Time {
	wire := time.Duration(p.WireLen()) * 8 * time.Second / time.Duration(n.Cfg.LinkBandwidthBps)
	return sim.Time(HostLatency + wire + LinkDelay)
}

func TestDeliveryThroughOneSwitch(t *testing.T) {
	eng, n, h1, s1, h2 := linear1(t)
	port := n.Graph.PortTo(s1.ID, h2.ID)
	s1.Table.Insert(&flowtable.Entry{
		Priority: 1,
		Match:    flowtable.Match{Mask: flowtable.MatchIPDst, IPDst: h2.IP},
		Actions:  []flowtable.Action{flowtable.Output(port)},
	}, 0)

	var got *packet.Packet
	h2.SetHandler(func(_ int, p *packet.Packet) { got = p })
	h1.Send(0, frame(h1.IP, h2.IP, "payload"))
	eng.Run()

	if got == nil {
		t.Fatal("packet not delivered")
	}
	if string(got.Payload) != "payload" || got.SrcIP != h1.IP || got.DstIP != h2.IP {
		t.Fatalf("delivered packet corrupted: %v", got)
	}
	if s1.RxPackets != 1 || s1.TxPackets != 1 {
		t.Fatalf("switch counters rx=%d tx=%d", s1.RxPackets, s1.TxPackets)
	}
	if n.Stats.Delivered != 1 {
		t.Fatalf("Delivered = %d", n.Stats.Delivered)
	}
}

func TestDeliveryLatencyMatchesModel(t *testing.T) {
	eng, n, h1, s1, h2 := linear1(t)
	port := n.Graph.PortTo(s1.ID, h2.ID)
	s1.Table.Insert(&flowtable.Entry{
		Priority: 1,
		Match:    flowtable.Match{},
		Actions:  []flowtable.Action{flowtable.Output(port)},
	}, 0)
	var at sim.Time
	h2.SetHandler(func(_ int, p *packet.Packet) { at = eng.Now() })

	p := frame(h1.IP, h2.IP, "x")
	wire := time.Duration(p.WireLen()) * 8 * time.Second / time.Duration(n.Cfg.LinkBandwidthBps)
	want := HostLatency + // sender stack
		wire + LinkDelay + // first link
		SwitchLatency +
		wire + LinkDelay + // second link
		HostLatency // receiver stack
	h1.Send(0, p)
	eng.Run()
	if got := time.Duration(at); got != want {
		t.Fatalf("one-way latency = %v, want %v", got, want)
	}
}

// TestFig2RewriteChain reproduces the paper's Figure 2 walk-through: Alice
// (10.0.0.1) sends to entry address 10.0.0.2; S1, S2 and S3 each rewrite
// the addresses; Bob (10.0.0.8) receives a packet whose destination was
// restored by the last switch. No intermediate link ever carries the real
// (src, dst) pair.
func TestFig2RewriteChain(t *testing.T) {
	g, err := topo.Linear(3)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	n := New(eng, g, Config{})
	hosts, sws := g.Hosts(), g.Switches()
	alice, bob := n.Host(hosts[0]), n.Host(hosts[1])
	s1, s2, s3 := n.Switch(sws[0]), n.Switch(sws[1]), n.Switch(sws[2])

	ip := func(d byte) addr.IP { return addr.V4(10, 0, 0, d) }
	ins := func(sw *Switch, mSrc, mDst, nSrc, nDst addr.IP, out int) {
		sw.Table.Insert(&flowtable.Entry{
			Priority: 1,
			Match:    flowtable.Match{Mask: flowtable.MatchIPSrc | flowtable.MatchIPDst, IPSrc: mSrc, IPDst: mDst},
			Actions:  []flowtable.Action{flowtable.SetIPSrc(nSrc), flowtable.SetIPDst(nDst), flowtable.Output(out)},
		}, 0)
	}
	ins(s1, ip(1), ip(2), ip(3), ip(4), g.PortTo(s1.ID, s2.ID))
	ins(s2, ip(3), ip(4), ip(5), ip(6), g.PortTo(s2.ID, s3.ID))
	ins(s3, ip(5), ip(6), ip(7), ip(8), g.PortTo(s3.ID, bob.ID))

	// Tap the middle link to assert no real addresses appear there.
	var midObserved []packet.FlowKey
	n.AddTap(s2.ID, func(ev TapEvent) { midObserved = append(midObserved, ev.Pkt.Key()) })

	var got *packet.Packet
	bob.SetHandler(func(_ int, p *packet.Packet) { got = p })
	alice.Send(0, frame(ip(1), ip(2), "anonymous hello"))
	eng.Run()

	if got == nil {
		t.Fatal("Bob received nothing")
	}
	if got.SrcIP != ip(7) || got.DstIP != ip(8) {
		t.Fatalf("Bob sees %v->%v, want 10.0.0.7->10.0.0.8", got.SrcIP, got.DstIP)
	}
	if string(got.Payload) != "anonymous hello" {
		t.Fatalf("payload corrupted: %q", got.Payload)
	}
	for _, k := range midObserved {
		if k.SrcIP == ip(1) || k.DstIP == ip(8) {
			t.Fatalf("real address leaked at middle switch: %+v", k)
		}
	}
	if len(midObserved) == 0 {
		t.Fatal("tap observed nothing")
	}
}

// TestOneEventPerNode pins the event budget of a frame: one engine event
// per node it reaches, plus the sender's. Across h1-s1-s2-s3-h2 that is the
// send, one per switch and the delivery.
func TestOneEventPerNode(t *testing.T) {
	g, err := topo.Linear(3)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	n := New(eng, g, Config{})
	src, dst := n.Host(g.Hosts()[0]), n.Host(g.Hosts()[1])
	sws := g.Switches()
	for i, id := range sws {
		next := dst.ID
		if i+1 < len(sws) {
			next = sws[i+1]
		}
		n.Switch(id).Table.Insert(&flowtable.Entry{
			Priority: 1,
			Actions:  []flowtable.Action{flowtable.Output(g.PortTo(id, next))},
		}, 0)
	}
	delivered := 0
	dst.SetHandler(func(int, *packet.Packet) { delivered++ })
	before := eng.Processed()
	src.Send(0, frame(src.IP, dst.IP, "x"))
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d frames, want 1", delivered)
	}
	if got := eng.Processed() - before; got != 5 {
		t.Fatalf("one frame across three switches cost %d engine events, want 5", got)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	g, _ := topo.Linear(1)
	eng := sim.New()
	n := New(eng, g, Config{QueueCapPackets: 2, LinkBandwidthBps: 1e6}) // slow link, tiny queue
	h1, h2 := n.Host(g.Hosts()[0]), n.Host(g.Hosts()[1])
	s1 := n.Switch(g.Switches()[0])
	s1.Table.Insert(&flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.Output(n.Graph.PortTo(s1.ID, h2.ID))}}, 0)
	delivered := 0
	h2.SetHandler(func(_ int, p *packet.Packet) { delivered++ })
	for i := 0; i < 50; i++ {
		h1.Send(0, frame(h1.IP, h2.IP, "bulk data payload that is long enough to serialize slowly"))
	}
	eng.Run()
	if n.Stats.Dropped == 0 {
		t.Fatal("no drops despite overload")
	}
	if delivered == 0 || delivered >= 50 {
		t.Fatalf("delivered = %d, want some but not all", delivered)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	g, _ := topo.Linear(1)
	eng := sim.New()
	n := New(eng, g, Config{LinkBandwidthBps: 8e6}) // 1 byte per microsecond
	h1, h2 := n.Host(g.Hosts()[0]), n.Host(g.Hosts()[1])
	s1 := n.Switch(g.Switches()[0])
	s1.Table.Insert(&flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.Output(n.Graph.PortTo(s1.ID, h2.ID))}}, 0)
	var arrivals []sim.Time
	h2.SetHandler(func(_ int, p *packet.Packet) { arrivals = append(arrivals, eng.Now()) })
	p1 := frame(h1.IP, h2.IP, "aaaaaaaaaa")
	p2 := frame(h1.IP, h2.IP, "bbbbbbbbbb")
	h1.Send(0, p1)
	h1.Send(0, p2)
	eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	gap := time.Duration(arrivals[1] - arrivals[0])
	wire := time.Duration(p2.WireLen()) * time.Microsecond
	if gap != wire {
		t.Fatalf("inter-arrival gap = %v, want serialization time %v", gap, wire)
	}
}

func TestGroupMulticast(t *testing.T) {
	// Star: one switch, three hosts. A group ALL entry replicates to two of
	// them with different rewrites — the partial-multicast primitive.
	g := topo.New()
	s := g.AddSwitch("s1")
	var hosts []topo.NodeID
	for i := 0; i < 3; i++ {
		ip, mac := addr.V4(10, 0, 0, byte(i+1)), addr.MAC(i+1)
		h := g.AddHost("h", ip, mac)
		g.Connect(s, h)
		hosts = append(hosts, h)
	}
	eng := sim.New()
	n := New(eng, g, Config{})
	sw := n.Switch(s)
	sw.Table.SetGroup(&flowtable.Group{ID: 1, Buckets: []flowtable.Bucket{
		{Actions: []flowtable.Action{flowtable.SetIPDst(addr.V4(10, 0, 0, 2)), flowtable.Output(g.PortTo(s, hosts[1]))}},
		{Actions: []flowtable.Action{flowtable.SetIPDst(addr.V4(10, 0, 0, 3)), flowtable.Output(g.PortTo(s, hosts[2]))}},
	}})
	sw.Table.Insert(&flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.OutputGroup(1)}}, 0)

	got := map[string]addr.IP{}
	for i := 1; i <= 2; i++ {
		name := string(rune('0' + i))
		n.Host(hosts[i]).SetHandler(func(_ int, p *packet.Packet) { got[name] = p.DstIP })
	}
	n.Host(hosts[0]).Send(0, frame(addr.V4(10, 0, 0, 1), addr.V4(10, 0, 0, 9), "m"))
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("replicas delivered = %d, want 2", len(got))
	}
	if got["1"] != addr.V4(10, 0, 0, 2) || got["2"] != addr.V4(10, 0, 0, 3) {
		t.Fatalf("bucket rewrites wrong: %v", got)
	}
}

type ctrlRecorder struct {
	ins int
	sw  *Switch
	at  sim.Time
}

func (c *ctrlRecorder) PacketIn(sw *Switch, inPort int, p *packet.Packet) {
	c.ins++
	c.sw = sw
	c.at = sw.net.Eng.Now()
}

// TestTableMissGoesToController also pins when the miss is raised: a switch
// reads its table one forwarding latency after the frame arrives.
func TestTableMissGoesToController(t *testing.T) {
	eng, n, h1, s1, _ := linear1(t)
	ctrl := &ctrlRecorder{}
	n.SetController(ctrl)
	p := frame(h1.IP, addr.V4(9, 9, 9, 9), "?")
	want := firstArrival(n, p).Add(SwitchLatency)
	h1.Send(0, p)
	eng.Run()
	if ctrl.ins != 1 || ctrl.sw != s1 {
		t.Fatalf("PacketIn calls = %d (sw=%v)", ctrl.ins, ctrl.sw)
	}
	if ctrl.at != want {
		t.Fatalf("PacketIn at %v, want arrival + SwitchLatency = %v", ctrl.at, want)
	}
}

// TestRuleInstalledDuringLatencyApplies: a rule that lands while a frame
// waits out the forwarding latency forwards that frame, and the entry's
// LastUsed records the frame's arrival, not the lookup.
func TestRuleInstalledDuringLatencyApplies(t *testing.T) {
	eng, n, h1, s1, h2 := linear1(t)
	p := frame(h1.IP, h2.IP, "late rule")
	arrived := firstArrival(n, p)
	e := &flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.Output(n.Graph.PortTo(s1.ID, h2.ID))}}
	eng.At(arrived.Add(SwitchLatency/2), func() { s1.Table.Insert(e, eng.Now()) })
	delivered := 0
	h2.SetHandler(func(int, *packet.Packet) { delivered++ })
	h1.Send(0, p)
	eng.Run()
	if delivered != 1 || n.Stats.TableMiss != 0 {
		t.Fatalf("delivered %d, table misses %d: want the rule installed mid-latency to forward the frame", delivered, n.Stats.TableMiss)
	}
	if e.LastUsed != arrived {
		t.Fatalf("LastUsed = %v, want the arrival instant %v", e.LastUsed, arrived)
	}
}

func TestTableMissWithoutControllerCounts(t *testing.T) {
	eng, n, h1, _, _ := linear1(t)
	h1.Send(0, frame(h1.IP, addr.V4(9, 9, 9, 9), "?"))
	eng.Run()
	if n.Stats.TableMiss != 1 {
		t.Fatalf("TableMiss = %d", n.Stats.TableMiss)
	}
}

func TestTapReceivesClone(t *testing.T) {
	eng, n, h1, s1, h2 := linear1(t)
	s1.Table.Insert(&flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.Output(n.Graph.PortTo(s1.ID, h2.ID))}}, 0)
	var tapped *packet.Packet
	var tappedAt sim.Time
	n.AddTap(s1.ID, func(ev TapEvent) {
		if ev.Dir == Ingress {
			tapped, tappedAt = ev.Pkt, ev.At
		}
	})
	var delivered *packet.Packet
	h2.SetHandler(func(_ int, p *packet.Packet) { delivered = p })
	p := frame(h1.IP, h2.IP, "secret")
	arrived := firstArrival(n, p)
	h1.Send(0, p)
	eng.Run()
	if tapped == nil || delivered == nil {
		t.Fatal("missing tap or delivery")
	}
	if tappedAt != arrived {
		t.Fatalf("ingress tap stamped %v, want the arrival instant %v", tappedAt, arrived)
	}
	tapped.Payload[0] = 'X' // adversary mutation must not corrupt the flow
	if delivered.Payload[0] == 'X' {
		t.Fatal("tap shares memory with forwarded packet")
	}
}

func TestCPUAccounting(t *testing.T) {
	eng, n, h1, s1, h2 := linear1(t)
	s1.Table.Insert(&flowtable.Entry{
		Priority: 1,
		Actions:  []flowtable.Action{flowtable.SetIPSrc(1), flowtable.SetIPDst(2), flowtable.Output(n.Graph.PortTo(s1.ID, h2.ID))},
	}, 0)
	h2.SetHandler(func(_ int, p *packet.Packet) {})
	h1.Send(0, frame(h1.IP, h2.IP, "x"))
	eng.Run()
	wantSwitch := CostSwitchPacket + 2*CostSwitchAction
	if got := n.CPU.Category("vswitch"); got != wantSwitch {
		t.Fatalf("vswitch CPU = %v, want %v", got, wantSwitch)
	}
	wantStack := 2 * CostHostPacket // sender + receiver
	if got := n.CPU.Category("stack"); got != wantStack {
		t.Fatalf("stack CPU = %v, want %v", got, wantStack)
	}
}

func TestHostWithoutHandlerDrops(t *testing.T) {
	eng, n, h1, s1, h2 := linear1(t)
	s1.Table.Insert(&flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.Output(n.Graph.PortTo(s1.ID, h2.ID))}}, 0)
	h1.Send(0, frame(h1.IP, h2.IP, "x"))
	eng.Run()
	if n.Stats.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Stats.Dropped)
	}
}

func TestLinkTxBytes(t *testing.T) {
	eng, n, h1, _, _ := linear1(t)
	p := frame(h1.IP, addr.V4(9, 9, 9, 9), "count me")
	h1.Send(0, p)
	eng.Run()
	if got := n.LinkTxBytes(h1.ID, 0); got != uint64(p.WireLen()) {
		t.Fatalf("LinkTxBytes = %d, want %d", got, p.WireLen())
	}
	if n.Stats.TxBytes != uint64(p.WireLen()) {
		t.Fatalf("Stats.TxBytes = %d", n.Stats.TxBytes)
	}
}

func TestHostByIP(t *testing.T) {
	_, n, h1, _, _ := linear1(t)
	if n.HostByIP(h1.IP) != h1 {
		t.Fatal("HostByIP failed")
	}
	if n.HostByIP(addr.V4(1, 1, 1, 1)) != nil {
		t.Fatal("HostByIP invented a host")
	}
}

func BenchmarkForwardOneHop(b *testing.B) {
	g, _ := topo.Linear(1)
	eng := sim.New()
	n := New(eng, g, Config{})
	h1, h2 := n.Host(g.Hosts()[0]), n.Host(g.Hosts()[1])
	s1 := n.Switch(g.Switches()[0])
	s1.Table.Insert(&flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.Output(n.Graph.PortTo(s1.ID, h2.ID))}}, 0)
	h2.SetHandler(func(_ int, p *packet.Packet) {})
	p := frame(h1.IP, h2.IP, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	before := eng.Processed()
	for i := 0; i < b.N; i++ {
		h1.Send(0, p.Clone())
		eng.Run()
	}
	b.ReportMetric(float64(eng.Processed()-before)/float64(b.N), "events/op")
}

func TestSetLinkDownBlackHoles(t *testing.T) {
	eng, n, h1, s1, h2 := linear1(t)
	s1.Table.Insert(&flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.Output(n.Graph.PortTo(s1.ID, h2.ID))}}, 0)
	delivered := 0
	h2.SetHandler(func(int, *packet.Packet) { delivered++ })
	n.SetLinkDown(h1.ID, 0, true)
	if !n.LinkDown(h1.ID, 0) {
		t.Fatal("LinkDown not reported")
	}
	h1.Send(0, frame(h1.IP, h2.IP, "x"))
	eng.Run()
	if delivered != 0 || n.Stats.LostDown != 1 {
		t.Fatalf("delivered=%d lostDown=%d", delivered, n.Stats.LostDown)
	}
	// Restore: traffic flows again.
	n.SetLinkDown(h1.ID, 0, false)
	h1.Send(0, frame(h1.IP, h2.IP, "y"))
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered=%d after restore", delivered)
	}
}

func TestSetSwitchDownBlackHoles(t *testing.T) {
	eng, n, h1, s1, h2 := linear1(t)
	s1.Table.Insert(&flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.Output(n.Graph.PortTo(s1.ID, h2.ID))}}, 0)
	delivered := 0
	h2.SetHandler(func(int, *packet.Packet) { delivered++ })
	n.SetSwitchDown(s1.ID, true)
	h1.Send(0, frame(h1.IP, h2.IP, "x"))
	eng.Run()
	if delivered != 0 {
		t.Fatal("failed switch forwarded traffic")
	}
	n.SetSwitchDown(s1.ID, false)
	h1.Send(0, frame(h1.IP, h2.IP, "y"))
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered=%d after restore", delivered)
	}
}

func TestLossInjectionDeterministic(t *testing.T) {
	run := func() uint64 {
		g, _ := topo.Linear(1)
		eng := sim.New()
		n := New(eng, g, Config{Seed: 5})
		for _, node := range g.Nodes {
			for p := range node.Ports {
				n.SetLinkFault(node.ID, p, FaultProfile{Loss: 0.3})
			}
		}
		h1, h2 := n.Host(g.Hosts()[0]), n.Host(g.Hosts()[1])
		s1 := n.Switch(g.Switches()[0])
		s1.Table.Insert(&flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.Output(n.Graph.PortTo(s1.ID, h2.ID))}}, 0)
		h2.SetHandler(func(int, *packet.Packet) {})
		for i := 0; i < 100; i++ {
			h1.Send(0, frame(h1.IP, h2.IP, "z"))
		}
		eng.Run()
		return n.Stats.Dropped
	}
	a, b := run(), run()
	if a == 0 {
		t.Fatal("no losses at 30% rate")
	}
	if a != b {
		t.Fatalf("loss injection nondeterministic: %d vs %d", a, b)
	}
}

// TestFailureEvents: SetLinkDown and SetSwitchDown must notify listeners
// with the right kinds, and only on effective liveness flips.
func TestFailureEvents(t *testing.T) {
	g, _ := topo.Linear(2) // h1-s1-s2-h2
	eng := sim.New()
	n := New(eng, g, Config{})
	s1, s2 := g.Switches()[0], g.Switches()[1]
	var got []Event
	n.Notify(func(ev Event) { got = append(got, ev) })

	port := n.Graph.PortTo(s1, s2)
	n.SetLinkDown(s1, port, true)
	downs := 0
	for _, ev := range got {
		if ev.Kind != PortDown {
			t.Fatalf("unexpected event %v", ev)
		}
		downs++
	}
	if downs != 2 {
		t.Fatalf("PortDown events = %d, want 2 (one per cable end)", downs)
	}
	// Re-failing an already-failed link is not a flip: no new events.
	n.SetLinkDown(s1, port, true)
	if len(got) != 2 {
		t.Fatalf("duplicate failure re-notified: %d events", len(got))
	}
	got = got[:0]
	n.SetLinkDown(s1, port, false)
	if len(got) != 2 || got[0].Kind != PortUp || got[1].Kind != PortUp {
		t.Fatalf("restore events wrong: %v", got)
	}

	got = got[:0]
	n.SetSwitchDown(s2, true)
	var swDowns, portDowns int
	for _, ev := range got {
		switch ev.Kind {
		case SwitchDown:
			swDowns++
			if ev.Node != s2 || ev.Port != -1 {
				t.Fatalf("switch event malformed: %v", ev)
			}
		case PortDown:
			portDowns++
		default:
			t.Fatalf("unexpected event %v", ev)
		}
	}
	// s2 has 2 cables (to s1 and h2), each with two ends.
	if swDowns != 1 || portDowns != 4 {
		t.Fatalf("switch failure events: %d switch, %d port", swDowns, portDowns)
	}

	// Quiet failures emit nothing.
	n.SetSwitchDown(s2, false)
	got = got[:0]
	n.SetSwitchDownQuiet(s1, true)
	if len(got) != 0 {
		t.Fatalf("quiet failure emitted %d events", len(got))
	}
	if !n.Switch(s1).Down || !n.LinkDown(s1, port) {
		t.Fatal("quiet failure did not take effect")
	}
}

// TestSwitchRestoreKeepsIndependentLinkFailures is the cause-tracking fix:
// restoring a switch must not resurrect a cable that was cut independently.
func TestSwitchRestoreKeepsIndependentLinkFailures(t *testing.T) {
	g, _ := topo.Linear(2)
	eng := sim.New()
	n := New(eng, g, Config{})
	s1, s2 := g.Switches()[0], g.Switches()[1]
	port := n.Graph.PortTo(s1, s2)

	n.SetLinkDown(s1, port, true) // independent cable cut
	n.SetSwitchDown(s1, true)     // then the switch crashes
	n.SetSwitchDown(s1, false)    // and restarts
	if !n.LinkDown(s1, port) {
		t.Fatal("switch restore resurrected an independently failed link")
	}
	// The host-facing cable, darkened only by the crash, is back.
	hostPort := n.Graph.PortTo(s1, g.Hosts()[0])
	if n.LinkDown(s1, hostPort) {
		t.Fatal("switch restore left its own links dark")
	}
	n.SetLinkDown(s1, port, false)
	if n.LinkDown(s1, port) {
		t.Fatal("link restore failed")
	}

	// Adjacent crashes overlap on the shared cable: both must restore
	// before it carries traffic again.
	n.SetSwitchDown(s1, true)
	n.SetSwitchDown(s2, true)
	n.SetSwitchDown(s1, false)
	if !n.LinkDown(s1, port) {
		t.Fatal("cable lit while peer switch still down")
	}
	n.SetSwitchDown(s2, false)
	if n.LinkDown(s1, port) {
		t.Fatal("cable dark after both switches restored")
	}
	_ = eng
}

// TestAllUpTracksEveryFailure: AllUp is true exactly when no switch is down
// and no link direction is down for any cause, across overlapping cuts,
// crashes, silent crashes and restores.
func TestAllUpTracksEveryFailure(t *testing.T) {
	g, _ := topo.FatTree(4)
	n := New(sim.New(), g, Config{})
	sws := g.Switches()
	check := func(step string) {
		t.Helper()
		want := true
		for _, id := range sws {
			want = want && !n.Switch(id).Down
		}
		for _, nd := range g.Nodes {
			for port := range nd.Ports {
				want = want && !n.LinkDown(nd.ID, port)
			}
		}
		if n.AllUp() != want {
			t.Fatalf("after %s: AllUp() = %v, want %v", step, n.AllUp(), want)
		}
	}
	check("nothing")
	n.SetLinkDown(sws[0], 0, true)
	check("a cut")
	n.SetSwitchDown(sws[0], true)
	check("a crash over the cut")
	n.SetLinkDown(sws[0], 0, true)
	check("the cut repeated")
	n.SetSwitchDown(sws[0], false)
	check("the restart")
	n.SetLinkDown(sws[0], 0, false)
	check("the mend")
	n.SetSwitchDownQuiet(sws[5], true)
	check("a silent crash")
	n.SetSwitchDown(sws[6], true)
	check("an adjacent crash")
	n.SetSwitchDownQuiet(sws[5], false)
	check("the silent restart")
	n.SetSwitchDown(sws[6], false)
	check("everything restored")
}

// faultRig wires h1-s1-h2 with forwarding both ways and a counter on h2.
func faultRig(t *testing.T, cfg Config) (*sim.Engine, *Network, *Host, *Switch, *Host, *int) {
	t.Helper()
	g, err := topo.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	n := New(eng, g, cfg)
	h1, h2 := n.Host(g.Hosts()[0]), n.Host(g.Hosts()[1])
	s1 := n.Switch(g.Switches()[0])
	s1.Table.Insert(&flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.Output(n.Graph.PortTo(s1.ID, h2.ID))}}, 0)
	delivered := 0
	h2.SetHandler(func(int, *packet.Packet) { delivered++ })
	return eng, n, h1, s1, h2, &delivered
}

// TestLinkFaultLoss: an injected loss profile on one link drops a fraction
// of frames, deterministically per seed, and clears cleanly.
func TestLinkFaultLoss(t *testing.T) {
	run := func() (uint64, int) {
		eng, n, h1, _, _, delivered := faultRig(t, Config{Seed: 11})
		n.SetLinkFault(h1.ID, 0, FaultProfile{Loss: 0.3})
		for i := 0; i < 200; i++ {
			at := time.Duration(i) * 50 * time.Microsecond // spaced: no queue drops
			eng.After(at, func() { h1.Send(0, frame(h1.IP, 0, "x")) })
		}
		eng.Run()
		return n.Stats.LostFault, *delivered
	}
	lost, delivered := run()
	if lost == 0 {
		t.Fatal("no frames lost at 30% per-link loss")
	}
	if delivered+int(lost) != 200 {
		t.Fatalf("delivered %d + lost %d != 200", delivered, lost)
	}
	lost2, delivered2 := run()
	if lost != lost2 || delivered != delivered2 {
		t.Fatalf("per-link loss nondeterministic: (%d,%d) vs (%d,%d)", lost, delivered, lost2, delivered2)
	}
}

// TestLinkFaultClear: clearing a profile restores a clean link.
func TestLinkFaultClear(t *testing.T) {
	eng, n, h1, _, _, delivered := faultRig(t, Config{})
	n.SetLinkFault(h1.ID, 0, FaultProfile{Loss: 1.0})
	h1.Send(0, frame(h1.IP, 0, "a"))
	eng.Run()
	if *delivered != 0 {
		t.Fatal("frame survived 100% loss")
	}
	n.ClearLinkFault(h1.ID, 0)
	if d := n.dir(h1.ID, 0); d.fault != nil {
		t.Fatalf("profile still active after clear: %+v", *d.fault)
	}
	for i := 0; i < 10; i++ {
		h1.Send(0, frame(h1.IP, 0, "b"))
	}
	eng.Run()
	if *delivered != 10 {
		t.Fatalf("delivered %d/10 after clearing fault", *delivered)
	}
}

// TestLinkFaultDuplication: a dup profile delivers extra copies and counts
// them.
func TestLinkFaultDuplication(t *testing.T) {
	eng, n, h1, _, _, delivered := faultRig(t, Config{Seed: 3})
	n.SetLinkFault(h1.ID, 0, FaultProfile{Dup: 1.0})
	for i := 0; i < 20; i++ {
		h1.Send(0, frame(h1.IP, 0, "d"))
	}
	eng.Run()
	// Every frame duplicates on the host link; the switch then forwards both
	// copies over the (also faulted, cable-scoped) second link, so each send
	// yields four arrivals.
	if n.Stats.Duplicated == 0 {
		t.Fatal("no duplications recorded")
	}
	if *delivered != 40 {
		t.Fatalf("delivered %d, want 40 (each frame duplicated once per hop is out of scope: fault is per-cable)", *delivered)
	}
}

// TestLinkFaultReorder: reorder jitter delays some frames past later ones.
func TestLinkFaultReorder(t *testing.T) {
	eng, n, h1, s1, h2, _ := faultRig(t, Config{Seed: 7})
	_ = s1
	n.SetLinkFault(h1.ID, 0, FaultProfile{Reorder: 0.3, Jitter: 500 * time.Microsecond})
	var order []int
	h2.SetHandler(func(_ int, p *packet.Packet) { order = append(order, int(p.Seq)) })
	for i := 0; i < 50; i++ {
		h1.Send(0, &packet.Packet{SrcIP: h1.IP, DstIP: h2.IP, Proto: packet.ProtoTCP, TTL: 64, Seq: uint32(i)})
	}
	eng.Run()
	if n.Stats.Reordered == 0 {
		t.Fatal("no frames jittered at 30% reorder")
	}
	if len(order) != 50 {
		t.Fatalf("reorder lost frames: %d/50", len(order))
	}
	inverted := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inverted++
		}
	}
	if inverted == 0 {
		t.Fatal("jitter never actually reordered arrivals")
	}
}

// TestLinkFaultCorruption: corrupted frames burn wire time but never reach
// the handler.
func TestLinkFaultCorruption(t *testing.T) {
	eng, n, h1, _, _, delivered := faultRig(t, Config{Seed: 5})
	n.SetLinkFault(h1.ID, 0, FaultProfile{Corrupt: 1.0})
	before := n.Stats.TxBytes
	h1.Send(0, frame(h1.IP, 0, "c"))
	eng.Run()
	if *delivered != 0 {
		t.Fatal("corrupted frame delivered")
	}
	if n.Stats.Corrupted == 0 {
		t.Fatal("corruption not counted")
	}
	if n.Stats.TxBytes == before {
		t.Fatal("corrupted frame did not burn wire time")
	}
}
