package mic

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"mic/internal/addr"
	"mic/internal/chunk"
	"mic/internal/netsim"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// fixture is a test bed: a fat-tree fabric with per-host transport stacks,
// run by a standalone MC or, when cl is set, by a Cluster. verify holds its
// acting controller to the oracle.
type fixture struct {
	eng    *sim.Engine
	net    *netsim.Network
	mc     *MC      // the standalone controller; nil on a cluster bed
	cl     *Cluster // nil on a standalone bed
	stacks []*transport.Stack
	graph  *topo.Graph
}

func newFixture(t testing.TB, cfg Config) *fixture {
	return buildFixture(t, 4, netsim.Config{}, cfg, nil)
}

func newClusterFixture(t testing.TB, cfg Config, ccfg ClusterConfig) *fixture {
	return buildFixture(t, 4, netsim.Config{}, cfg, &ccfg)
}

// buildFixture builds a bed on fat-tree(k), its network configured by nc
// (nc.Seed roots its fault streams and every channel's southbound loss coin),
// run by a standalone MC, or by a Cluster when ccfg is not nil.
func buildFixture(t testing.TB, k int, nc netsim.Config, cfg Config, ccfg *ClusterConfig) *fixture {
	t.Helper()
	g, err := topo.FatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	// PoolDebug arms the packet and chunk pools' use-after-release guards
	// for every MIC fixture test — MN rewrites, group multicast, heal paths
	// and every stream's frames run with poisoned free-list detection.
	nc.PoolDebug = true
	f := &fixture{eng: sim.New(), graph: g}
	f.net = netsim.New(f.eng, g, nc)
	if ccfg == nil {
		f.mc, err = NewMC(f.net, cfg)
	} else {
		f.cl, err = NewCluster(f.net, cfg, *ccfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Whatever repair or flow restore a test provokes, the books of the
	// controller that announces it balance (checkBooks) at that instant.
	watch := func(mc *MC) { mc.SubscribeRepair(func(RepairEvent) { checkBooks(t, mc) }) }
	if f.cl == nil {
		watch(f.mc)
	} else {
		for _, m := range f.cl.members {
			watch(m.mc)
		}
	}
	for _, hid := range g.Hosts() {
		f.stacks = append(f.stacks, transport.NewStack(f.net.Host(hid)))
	}
	return f
}

// settle drives a cluster bed's engine to the deadline, cancels the
// cluster's perpetual tickers, and drains what remains.
func (f *fixture) settle(deadline time.Duration) {
	f.eng.RunUntil(sim.Time(deadline))
	f.cl.Stop()
	f.eng.Run()
}

// hostIP returns host i's address as a string target.
func (f *fixture) hostIP(i int) addr.IP { return f.stacks[i].Host.IP }

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*197 + i>>9)
	}
	return b
}

func TestEchoOverMimicChannel(t *testing.T) {
	f := newFixture(t, Config{})
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { s.Send(b) })
	})
	client := NewClient(f.stacks[0], f.mc)
	var reply []byte
	client.Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.OnData(func(b []byte) { reply = append(reply, b...) })
		s.Send([]byte("hello anonymous world"))
	})
	f.eng.Run()
	if string(reply) != "hello anonymous world" {
		t.Fatalf("reply = %q", reply)
	}
	if f.mc.UnexpectedMisses != 0 {
		t.Fatalf("unexpected packet-ins: %d", f.mc.UnexpectedMisses)
	}
}

// TestUnlinkability is the paper's core security property (Sec V): no
// single switch ever observes a packet carrying both real endpoint
// addresses of the anonymous flow.
func TestUnlinkability(t *testing.T) {
	f := newFixture(t, Config{MNs: 3})
	initIP, respIP := f.hostIP(0), f.hostIP(15)
	type seen struct{ src, dst bool }
	observed := make(map[topo.NodeID]*seen)
	for _, sid := range f.graph.Switches() {
		sid := sid
		observed[sid] = &seen{}
		f.net.AddTap(sid, func(ev netsim.TapEvent) {
			if ev.Dir != netsim.Ingress {
				return
			}
			if ev.Pkt.SrcIP == initIP && ev.Pkt.DstIP == respIP {
				t.Errorf("switch %s saw both real addresses together: %v", f.graph.Node(sid).Name, ev.Pkt)
			}
			if ev.Pkt.SrcIP == initIP || ev.Pkt.DstIP == initIP {
				observed[sid].src = true
			}
			if ev.Pkt.SrcIP == respIP || ev.Pkt.DstIP == respIP {
				observed[sid].dst = true
			}
		})
	}
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { s.Send(b) })
	})
	client := NewClient(f.stacks[0], f.mc)
	done := false
	client.Dial(respIP.String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.OnData(func([]byte) { done = true })
		s.Send(pattern(4000))
	})
	f.eng.Run()
	if !done {
		t.Fatal("no reply")
	}
	// With 3 MNs on a 5-switch path, no switch sees initiator AND responder
	// addresses (in any packet, either direction).
	for sid, o := range observed {
		if o.src && o.dst {
			t.Errorf("switch %s observed both endpoints' real addresses across packets", f.graph.Node(sid).Name)
		}
	}
}

func TestResponderSeesFakePeer(t *testing.T) {
	f := newFixture(t, Config{})
	initIP := f.hostIP(0)
	var peer addr.IP
	f.stacks[15].Listen(80, func(c *transport.Conn) {
		ip, _ := c.RemoteAddr()
		peer = ip
	})
	client := NewClient(f.stacks[0], f.mc)
	client.Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
	})
	f.eng.Run()
	if peer == 0 {
		t.Fatal("no connection accepted")
	}
	if peer == initIP {
		t.Fatal("responder learned the initiator's real address")
	}
}

func TestChannelReuseAcrossDials(t *testing.T) {
	f := newFixture(t, Config{})
	Listen(f.stacks[15], 80, false, func(s *Stream) { s.OnData(func([]byte) {}) })
	client := NewClient(f.stacks[0], f.mc)
	target := f.hostIP(15).String()
	opened := 0
	var redial func()
	redial = func() {
		client.Dial(target, 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			opened++
			if opened < 3 {
				redial()
			}
		})
	}
	redial()
	f.eng.Run()
	if opened != 3 {
		t.Fatalf("opened = %d", opened)
	}
	if f.mc.Requests != 1 {
		t.Fatalf("MC requests = %d, want 1 (channel reuse)", f.mc.Requests)
	}
}

func TestMultipleMFlows(t *testing.T) {
	f := newFixture(t, Config{MFlows: 3, MNs: 2})
	data := pattern(200_000)
	var got []byte
	Listen(f.stacks[12], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { got = append(got, b...) })
	})
	client := NewClient(f.stacks[3], f.mc)
	var stream *Stream
	client.Dial(f.hostIP(12).String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		stream = s
		s.Send(data)
	})
	f.eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatalf("multi-flow transfer corrupted: %d/%d bytes", len(got), len(data))
	}
	if stream.FlowCount() != 3 {
		t.Fatalf("FlowCount = %d", stream.FlowCount())
	}
	carrying := 0
	for _, n := range stream.SlicesOut {
		if n > 0 {
			carrying++
		}
	}
	if carrying < 2 {
		t.Fatalf("traffic not split: slice distribution %v", stream.SlicesOut)
	}
	// The three m-flows use distinct entry addresses.
	info, _ := client.Channel(f.hostIP(12).String())
	seen := map[addr.IP]bool{}
	for _, fl := range info.Flows {
		if seen[fl.Entry] {
			t.Fatalf("entry address %v reused across m-flows", fl.Entry)
		}
		seen[fl.Entry] = true
	}
}

func TestMICSSL(t *testing.T) {
	f := newFixture(t, Config{})
	secret := []byte("SECRET-OVER-MIC-SSL-1234567890abcdef")
	var got []byte
	Listen(f.stacks[9], 443, true, func(s *Stream) {
		s.OnData(func(b []byte) { got = append(got, b...) })
	})
	leaked := false
	for _, sid := range f.graph.Switches() {
		f.net.AddTap(sid, func(ev netsim.TapEvent) {
			if bytes.Contains(ev.Pkt.Payload, secret) {
				leaked = true
			}
		})
	}
	client := NewClient(f.stacks[2], f.mc)
	client.Secure = true
	client.Dial(f.hostIP(9).String(), 443, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Send(secret)
	})
	f.eng.Run()
	if !bytes.Equal(got, secret) {
		t.Fatalf("MIC-SSL delivery failed: %q", got)
	}
	if leaked {
		t.Fatal("plaintext visible on the fabric under MIC-SSL")
	}
}

func TestPartialMulticast(t *testing.T) {
	f := newFixture(t, Config{MNs: 3, MulticastFanout: 3})
	data := pattern(30_000)
	var got []byte
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { got = append(got, b...) })
	})
	client := NewClient(f.stacks[0], f.mc)
	client.Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Send(data)
	})
	f.eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatalf("delivery corrupted under partial multicast: %d/%d", len(got), len(data))
	}
	// Decoys must have died at drop rules: count drop-rule hits.
	decoyKills := uint64(0)
	for _, sw := range f.net.Switches() {
		for _, e := range sw.Table.Entries() {
			if len(e.Actions) == 0 && e.Cookie >= 2 {
				decoyKills += e.Packets
			}
		}
	}
	if decoyKills == 0 {
		t.Fatal("no decoy packets were generated/dropped")
	}
	if f.mc.UnexpectedMisses != 0 {
		t.Fatalf("unexpected misses: %d", f.mc.UnexpectedMisses)
	}
}

func TestHiddenService(t *testing.T) {
	f := newFixture(t, Config{})
	if err := f.mc.RegisterHiddenService("storage-master", f.hostIP(7)); err != nil {
		t.Fatal(err)
	}
	if err := f.mc.RegisterHiddenService("storage-master", f.hostIP(8)); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	var got []byte
	Listen(f.stacks[7], 9000, false, func(s *Stream) {
		s.OnData(func(b []byte) { got = append(got, b...); s.Send([]byte("ack")) })
	})
	client := NewClient(f.stacks[1], f.mc)
	var ack []byte
	client.Dial("storage-master", 9000, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial hidden service: %v", err)
		}
		s.OnData(func(b []byte) { ack = append(ack, b...) })
		s.Send([]byte("write block 42"))
	})
	f.eng.Run()
	if string(got) != "write block 42" || string(ack) != "ack" {
		t.Fatalf("hidden service exchange failed: got=%q ack=%q", got, ack)
	}
}

func TestCloseChannelRemovesRules(t *testing.T) {
	f := newFixture(t, Config{MNs: 3})
	baseline := tableSizes(f)
	Listen(f.stacks[15], 80, false, func(s *Stream) {})
	client := NewClient(f.stacks[0], f.mc)
	target := f.hostIP(15).String()
	client.Dial(target, 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Close()
		if err := client.CloseChannel(target, nil); err != nil {
			t.Fatalf("close channel: %v", err)
		}
	})
	f.eng.Run()
	after := tableSizes(f)
	for sid, n := range after {
		if n != baseline[sid] {
			t.Fatalf("switch %v has %d entries after teardown, want %d", sid, n, baseline[sid])
		}
	}
	if f.mc.LiveChannels() != 0 {
		t.Fatalf("LiveChannels = %d", f.mc.LiveChannels())
	}
	if f.mc.flowIDs.inUse() != 0 {
		t.Fatalf("flow IDs leaked: %d", f.mc.flowIDs.inUse())
	}
	if len(f.mc.entryInUse) != 0 {
		t.Fatalf("entry reservations leaked: %d", len(f.mc.entryInUse))
	}
}

func tableSizes(f *fixture) map[topo.NodeID]int {
	out := make(map[topo.NodeID]int)
	for _, sw := range f.net.Switches() {
		out[sw.ID] = sw.Table.Len()
	}
	return out
}

// TestNoRuleConflicts establishes many concurrent channels and checks the
// paper's collision-avoidance invariant: every installed match entry is
// unique on its switch.
func TestNoRuleConflicts(t *testing.T) {
	f := newFixture(t, Config{MNs: 3})
	okCount := 0
	pairs := [][2]int{{0, 15}, {1, 14}, {2, 13}, {3, 12}, {4, 11}, {5, 10}, {6, 9}, {7, 8}, {0, 8}, {1, 9}}
	for _, pr := range pairs {
		pr := pr
		Listen(f.stacks[pr[1]], uint16(8000+pr[0]), false, func(s *Stream) {
			s.OnData(func(b []byte) { s.Send(b) })
		})
		client := NewClient(f.stacks[pr[0]], f.mc)
		client.Dial(f.hostIP(pr[1]).String(), uint16(8000+pr[0]), func(s *Stream, err error) {
			if err != nil {
				t.Errorf("dial %v: %v", pr, err)
				return
			}
			s.OnData(func([]byte) { okCount++ })
			s.Send([]byte("probe"))
		})
	}
	f.eng.Run()
	if okCount != len(pairs) {
		t.Fatalf("echoes = %d, want %d", okCount, len(pairs))
	}
	for _, sw := range f.net.Switches() {
		for _, e := range sw.Table.Entries() {
			if len(sw.Table.Conflicts(e.Match, e.Priority)) != 1 {
				t.Fatalf("conflicting entries on %s: %v", sw.Name, e.Match)
			}
		}
	}
}

func TestPathExtensionWhenShortestTooShort(t *testing.T) {
	// Hosts 0 and 2 sit in the same pod (shortest path: 3 switches) but we
	// demand 5 MNs, forcing the paper's longer-path calculation through the
	// core.
	f := newFixture(t, Config{MNs: 5})
	var got []byte
	Listen(f.stacks[2], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { got = append(got, b...) })
	})
	client := NewClient(f.stacks[0], f.mc)
	var info *ChannelInfo
	client.Dial(f.hostIP(2).String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Send([]byte("extended"))
	})
	f.eng.Run()
	if string(got) != "extended" {
		t.Fatalf("got %q", got)
	}
	info, _ = client.Channel(f.hostIP(2).String())
	if sc := info.Flows[0].Path.SwitchCount(f.graph); sc < 5 {
		t.Fatalf("path has %d switches, want >= 5 (extension rule)", sc)
	}
	if len(info.Flows[0].MNs) != 5 {
		t.Fatalf("MNs = %d", len(info.Flows[0].MNs))
	}
}

func TestSameEdgeDegradesMNCount(t *testing.T) {
	// Hosts 0 and 1 share a ToR: every simple path has exactly one switch.
	// The MC degrades to 1 MN.
	f := newFixture(t, Config{MNs: 3})
	var got []byte
	Listen(f.stacks[1], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { got = append(got, b...) })
	})
	client := NewClient(f.stacks[0], f.mc)
	client.Dial(f.hostIP(1).String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Send([]byte("degraded"))
	})
	f.eng.Run()
	if string(got) != "degraded" {
		t.Fatalf("got %q", got)
	}
	info, _ := client.Channel(f.hostIP(1).String())
	if len(info.Flows[0].MNs) != 1 {
		t.Fatalf("MNs = %d, want 1 (clamped)", len(info.Flows[0].MNs))
	}
}

func TestErrorPaths(t *testing.T) {
	f := newFixture(t, Config{})
	client := NewClient(f.stacks[0], f.mc)
	cases := []struct {
		name   string
		target string
	}{
		{"unknown target", "no-such-service"},
		{"nonexistent host", "99.99.99.99"},
		{"self dial", f.hostIP(0).String()},
	}
	for _, c := range cases {
		gotErr := false
		client.Dial(c.target, 80, func(s *Stream, err error) {
			if err == nil {
				t.Errorf("%s: dial succeeded", c.name)
			}
			gotErr = err != nil
		})
		f.eng.Run()
		if !gotErr {
			t.Errorf("%s: callback never fired with error", c.name)
		}
	}
}

// TestEstablishRefusesEmptyOptions: a dial asking for fewer than one m-flow,
// Mimic Node or multicast copy is refused before a channel ID is drawn, so
// nothing is live, booked or journaled afterwards.
func TestEstablishRefusesEmptyOptions(t *testing.T) {
	for _, c := range []struct {
		name string
		opts ChannelOptions
	}{
		{"no m-flows", ChannelOptions{MFlows: -1}},
		{"no Mimic Nodes", ChannelOptions{MNs: -1}},
		{"no multicast copies", ChannelOptions{MulticastFanout: -1}},
	} {
		f := newFixture(t, Config{})
		j := NewJournal()
		f.mc.journal = j
		next := f.mc.nextChan
		var answer error
		answered := false
		f.mc.EstablishChannel(f.hostIP(0), f.hostIP(15).String(), c.opts, func(info *ChannelInfo, err error) {
			answered, answer = true, err
		})
		f.eng.Run()
		if !answered || answer == nil {
			t.Fatalf("%s: answered %v with error %v, want a refusal", c.name, answered, answer)
		}
		if n := f.mc.LiveChannels(); n != 0 || f.mc.nextChan != next || j.Len() != 0 || f.mc.flowIDs.inUse() != 0 {
			t.Fatalf("%s: %d channels live, channel counter %d -> %d, %d journal records, %d flow IDs held; want nothing",
				c.name, n, next, f.mc.nextChan, j.Len(), f.mc.flowIDs.inUse())
		}
		verify(t, f)
	}
}

func TestSetupTimeFlatInMNCount(t *testing.T) {
	// The paper's Fig 7 claim: route setup stays nearly constant as the
	// route length grows, because rules install in parallel.
	var times []time.Duration
	for _, n := range []int{1, 3, 5} {
		f := newFixture(t, Config{MNs: n})
		var setup time.Duration
		Listen(f.stacks[15], 80, false, func(s *Stream) {})
		client := NewClient(f.stacks[0], f.mc)
		client.Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("MNs=%d: %v", n, err)
			}
			setup = time.Duration(f.eng.Now())
		})
		f.eng.Run()
		times = append(times, setup)
	}
	if times[2] > times[0]*3/2 {
		t.Fatalf("setup grows with MN count: %v", times)
	}
}

func TestIDRecycling(t *testing.T) {
	a := newIDAllocator(0, 4)
	ids := map[uint32]bool{}
	for i := 0; i < 4; i++ {
		id, err := a.alloc()
		if err != nil {
			t.Fatal(err)
		}
		if ids[id] {
			t.Fatalf("duplicate id %d", id)
		}
		ids[id] = true
	}
	if _, err := a.alloc(); err == nil {
		t.Fatal("exhausted allocator still allocated")
	}
	a.release(2)
	id, err := a.alloc()
	if err != nil || id != 2 {
		t.Fatalf("recycling failed: %d %v", id, err)
	}
}

func TestStreamSliceReassemblyOutOfOrder(t *testing.T) {
	// Direct unit test of the slicing protocol: feed slices out of order.
	s := bareStream(2, chunk.NewPool())
	var got []byte
	s.OnData(func(b []byte) { got = append(got, b...) })
	mk := func(seq uint32, payload string) []byte {
		b := make([]byte, sliceHeaderLen+len(payload))
		b[0], b[1], b[2], b[3] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
		b[4], b[5] = byte(len(payload)>>8), byte(len(payload))
		b[6], b[7] = b[4], b[5] // padded == len
		copy(b[sliceHeaderLen:], payload)
		return b
	}
	feedCopy(s, 0, mk(1, "world"))
	if len(got) != 0 {
		t.Fatal("delivered out of order")
	}
	feedCopy(s, 1, mk(0, "hello "))
	if string(got) != "hello world" {
		t.Fatalf("got %q", got)
	}
	// Split across feeds (partial header).
	frag := mk(2, "!!")
	feedCopy(s, 0, frag[:3])
	feedCopy(s, 0, frag[3:])
	if string(got) != "hello world!!" {
		t.Fatalf("got %q", got)
	}
}

// TestDistributedControllers exercises the paper's Sec VI-C deployment:
// two controllers sharing MAGA keying (same Seed) but owning disjoint flow
// ID spaces and instance IDs serve different initiators on one fabric
// without any rule collision.
func TestDistributedControllers(t *testing.T) {
	w := (Config{}).withDefaults().Widths
	half := w.MaxFlowIDs() / 2
	f := newFixture(t, Config{Seed: 5, MulticastFanout: 2, InstanceID: 1, IDSpace: IDRange{0, half}})
	eng, net, stacks, mcA := f.eng, f.net, f.stacks, f.mc
	mcB, err := NewMC(net, Config{Seed: 5, MulticastFanout: 2, InstanceID: 2, IDSpace: IDRange{half, w.MaxFlowIDs()}})
	if err != nil {
		t.Fatal(err)
	}
	okA, okB := false, false
	Listen(stacks[15], 80, false, func(s *Stream) { s.OnData(func(b []byte) { s.Send(b) }) })
	Listen(stacks[14], 81, false, func(s *Stream) { s.OnData(func(b []byte) { s.Send(b) }) })
	ca := NewClient(stacks[0], mcA)
	cb := NewClient(stacks[1], mcB)
	ca.Dial(stacks[15].Host.IP.String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Errorf("mcA dial: %v", err)
			return
		}
		s.OnData(func([]byte) { okA = true })
		s.Send([]byte("via controller A"))
	})
	cb.Dial(stacks[14].Host.IP.String(), 81, func(s *Stream, err error) {
		if err != nil {
			t.Errorf("mcB dial: %v", err)
			return
		}
		s.OnData(func([]byte) { okB = true })
		s.Send([]byte("via controller B"))
	})
	eng.Run()
	if !okA || !okB {
		t.Fatalf("echoes: A=%v B=%v", okA, okB)
	}
	// No ambiguous rules anywhere despite two independent controllers.
	for _, sw := range net.Switches() {
		for _, e := range sw.Table.Entries() {
			if len(sw.Table.Conflicts(e.Match, e.Priority)) != 1 {
				t.Fatalf("cross-controller rule conflict on %s: %v", sw.Name, e.Match)
			}
		}
	}
	// Channel/cookie spaces are disjoint.
	infoA, _ := ca.Channel(stacks[15].Host.IP.String())
	infoB, _ := cb.Channel(stacks[14].Host.IP.String())
	if infoA.ID>>32 == infoB.ID>>32 {
		t.Fatalf("instance ID spaces overlap: %x %x", infoA.ID, infoB.ID)
	}
	// A's close goes unconfirmed everywhere, so A reconciles those switches:
	// its passes delete A's rules and leave B's rules and groups, which A did
	// not mint.
	mcA.Ch.MaxRetries, mcA.Ch.LossRate = 1, 1
	if err := mcA.CloseChannel(infoA.ID, func() { mcA.Ch.LossRate = 0 }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	f.mc = mcB // A holds nothing now; B's channel must be intact
	verify(t, f)
}

func TestIDSpaceValidation(t *testing.T) {
	g, _ := topo.FatTree(4)
	for _, r := range []IDRange{{5, 5}, {10, 4}, {0, 1 << 20}} {
		net := netsim.New(sim.New(), g, netsim.Config{})
		if _, err := NewMC(net, Config{IDSpace: r}); err == nil {
			t.Errorf("IDSpace %+v accepted", r)
		}
	}
}

// TestMACsRewrittenAtMNs verifies the MAC dimension of m-addresses: between
// MNs the frame carries neither endpoint's real MAC.
func TestMACsRewrittenAtMNs(t *testing.T) {
	f := newFixture(t, Config{MNs: 3})
	initMAC := f.net.Host(f.graph.Hosts()[0]).MAC
	Listen(f.stacks[15], 80, false, func(s *Stream) { s.OnData(func([]byte) {}) })
	client := NewClient(f.stacks[0], f.mc)
	var info *ChannelInfo
	leaks := 0
	client.Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		info, _ = client.Channel(f.hostIP(15).String())
		// Tap the middle MN (all traffic there is between MNs).
		f.net.AddTap(info.Flows[0].MNs[1], func(ev netsim.TapEvent) {
			if ev.Dir == netsim.Ingress && (ev.Pkt.SrcMAC == initMAC || ev.Pkt.DstMAC == initMAC) {
				leaks++
			}
		})
		s.Send(pattern(5000))
	})
	f.eng.Run()
	if info == nil {
		t.Fatal("no channel")
	}
	if leaks > 0 {
		t.Fatalf("initiator MAC observed %d times between MNs", leaks)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MFlows != 1 || c.MNs != 3 || c.MulticastFanout != 1 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	o := ChannelOptions{}.withDefaults(c)
	if o.MFlows != 1 || o.MNs != 3 {
		t.Fatalf("option defaults wrong: %+v", o)
	}
}

func TestTooManySwitchesForWidths(t *testing.T) {
	g, _ := topo.FatTree(8) // 80 switches > 63 S_IDs at default widths
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	if _, err := NewMC(net, Config{}); err == nil {
		t.Fatal("S_ID overflow not detected")
	}
	// Wider S_ID space fixes it.
	cfg := Config{}
	cfg.Widths.SID, cfg.Widths.SPart, cfg.Widths.FPart = 8, 13, 7
	if _, err := NewMC(netsim.New(sim.New(), g, netsim.Config{}), cfg); err != nil {
		t.Fatalf("wide config rejected: %v", err)
	}
}

func TestMFlowPacketsCarryMFLabelsBetweenMNs(t *testing.T) {
	f := newFixture(t, Config{MNs: 3})
	respIP := f.hostIP(15)
	Listen(f.stacks[15], 80, false, func(s *Stream) { s.OnData(func([]byte) {}) })
	client := NewClient(f.stacks[0], f.mc)
	var info *ChannelInfo
	client.Dial(respIP.String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		info = &ChannelInfo{}
		*info, _ = func() (ChannelInfo, bool) {
			i, ok := client.Channel(respIP.String())
			return *i, ok
		}()
		s.Send(pattern(5000))
	})
	// Tap the middle MN: ingress packets of the m-flow must carry MF labels
	// (not the CF label, not untagged) between MNs.
	f.eng.Run()
	if info == nil {
		t.Fatal("no channel")
	}
	mns := info.Flows[0].MNs
	if len(mns) != 3 {
		t.Fatalf("MNs = %d", len(mns))
	}
	midMN := f.net.Switch(mns[1])
	// Check installed rules on the middle MN reference an MF label.
	foundMF := false
	for _, e := range midMN.Table.Entries() {
		if e.Cookie >= 2 && e.Match.Mask&(1<<8) != 0 { // MatchMPLS bit
			if e.Match.MPLS != f.mc.CFLabel {
				foundMF = true
			}
		}
	}
	if !foundMF {
		t.Fatal("middle MN has no MF-labeled match rule")
	}
	_ = packet.Packet{}
}

func TestIdleNotifierTearsDownUnusedChannels(t *testing.T) {
	f := newFixture(t, Config{})
	Listen(f.stacks[15], 80, false, func(s *Stream) { s.OnData(func([]byte) {}) })
	client := NewClient(f.stacks[0], f.mc)
	target := f.hostIP(15).String()
	stop := client.StartIdleNotifier(50 * time.Millisecond)
	client.Dial(target, 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Close()
	})
	f.eng.RunUntil(sim.Time(200 * time.Millisecond))
	if f.mc.LiveChannels() != 0 {
		t.Fatalf("idle channel survived the notifier: %d live", f.mc.LiveChannels())
	}
	if _, ok := client.Channel(target); ok {
		t.Fatal("client cache still holds the closed channel")
	}
	// A later dial re-establishes (second MC request).
	redone := false
	client.Dial(target, 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("redial: %v", err)
		}
		redone = true
	})
	f.eng.RunUntil(sim.Time(250 * time.Millisecond))
	if !redone {
		t.Fatal("redial after teardown failed")
	}
	if f.mc.Requests != 2 {
		t.Fatalf("Requests = %d, want 2", f.mc.Requests)
	}
	stop()
	pendingBefore := f.eng.Pending()
	f.eng.RunUntil(sim.Time(600 * time.Millisecond))
	_ = pendingBefore
	if f.mc.LiveChannels() != 1 {
		t.Fatalf("stop() did not cancel the notifier; live = %d", f.mc.LiveChannels())
	}
}

func TestIdleNotifierKeepsActiveChannels(t *testing.T) {
	f := newFixture(t, Config{})
	Listen(f.stacks[15], 80, false, func(s *Stream) { s.OnData(func(b []byte) { s.Send(b) }) })
	client := NewClient(f.stacks[0], f.mc)
	target := f.hostIP(15).String()
	client.StartIdleNotifier(20 * time.Millisecond)
	// Re-dial every 10ms: the channel stays warm and must survive.
	dials := 0
	var redial func()
	redial = func() {
		client.Dial(target, 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("dial %d: %v", dials, err)
			}
			dials++
			s.Close()
			if dials < 8 {
				f.eng.After(10*time.Millisecond, redial)
			}
		})
	}
	redial()
	f.eng.RunUntil(sim.Time(85 * time.Millisecond))
	if f.mc.Requests != 1 {
		t.Fatalf("active channel was torn down: %d MC requests", f.mc.Requests)
	}
}

// TestIdleNotifierClosesInTargetOrder: two channels that idle out in one
// tick are closed in target order, not map order. The free list their flow
// IDs go back on is LIFO, so close order decides the next channel's flow IDs
// and m-addresses; every fresh bed must hand the next dial the same ones.
func TestIdleNotifierClosesInTargetOrder(t *testing.T) {
	var first []flowRes
	for bed := 0; bed < 128; bed++ {
		f := newFixture(t, Config{})
		for _, h := range []int{9, 12, 15} {
			Listen(f.stacks[h], 80, false, func(s *Stream) { s.OnData(func([]byte) {}) })
		}
		client := NewClient(f.stacks[0], f.mc)
		client.StartIdleNotifier(50 * time.Millisecond)
		for _, h := range []int{9, 12} {
			client.Dial(f.hostIP(h).String(), 80, func(s *Stream, err error) {
				if err != nil {
					t.Fatalf("dial %d: %v", h, err)
				}
				s.Close()
			})
		}
		f.eng.RunUntil(sim.Time(200 * time.Millisecond))
		if n := f.mc.LiveChannels(); n != 0 {
			t.Fatalf("bed %d: %d channels survived the notifier", bed, n)
		}
		var id uint64
		client.Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("dial 15: %v", err)
			}
			info, _ := client.Channel(f.hostIP(15).String())
			id = info.ID
		})
		f.eng.RunUntil(sim.Time(230 * time.Millisecond))
		st := f.mc.channels[id]
		if st == nil {
			t.Fatalf("bed %d: the third dial left no channel", bed)
		}
		if bed == 0 {
			first = st.res
		} else if !slices.Equal(st.res, first) {
			t.Fatalf("bed %d: the third channel holds %v, bed 0's held %v", bed, st.res, first)
		}
	}
}

// TestRepairSurvivesLinkFailure kills a link in the middle of a transfer,
// repairs the channel at the MC, and requires every byte to arrive: the
// endpoint-visible addresses are preserved, so the transport's
// retransmissions ride the new rules transparently.
func TestRepairSurvivesLinkFailure(t *testing.T) {
	f := newFixture(t, Config{MNs: 3})
	data := pattern(400_000)
	var got []byte
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { got = append(got, b...) })
	})
	client := NewClient(f.stacks[0], f.mc)
	target := f.hostIP(15).String()
	client.Dial(target, 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Send(data)
	})
	// Let some data flow, then cut a link on the m-flow's path (between
	// the first two path switches) and repair.
	f.eng.RunFor(6 * time.Millisecond)
	info, _ := client.Channel(target)
	oldPath := info.Flows[0].Path
	var cutNode topo.NodeID
	cutPort := -1
	for i := 1; i < len(oldPath)-2; i++ {
		if f.graph.Node(oldPath[i]).Kind == topo.KindSwitch && f.graph.Node(oldPath[i+1]).Kind == topo.KindSwitch {
			cutNode = oldPath[i]
			cutPort = f.graph.PortTo(oldPath[i], oldPath[i+1])
			break
		}
	}
	if cutPort < 0 {
		t.Fatal("no switch-switch link on path to cut")
	}
	f.net.SetLinkDown(cutNode, cutPort, true)
	repaired := false
	f.mc.RepairChannel(info.ID, func(err error) {
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		repaired = true
	})
	f.eng.RunUntil(sim.Time(30 * time.Second))
	if !repaired {
		t.Fatal("repair never completed")
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("transfer broken after repair: %d/%d bytes (lost down: %d)",
			len(got), len(data), f.net.Stats.LostDown)
	}
	if f.net.Stats.LostDown == 0 {
		t.Fatal("the cut link never ate a packet; test cut the wrong link")
	}
	// The repaired flow keeps its entry address but routes around the cut.
	newInfo, _ := client.Channel(target)
	if newInfo.Flows[0].Entry != info.Flows[0].Entry {
		t.Fatal("repair changed the entry address")
	}
	for i := 0; i < len(newInfo.Flows[0].Path)-1; i++ {
		a, b := newInfo.Flows[0].Path[i], newInfo.Flows[0].Path[i+1]
		if a == cutNode && f.graph.PortTo(a, b) == cutPort {
			t.Fatal("repaired path still crosses the failed link")
		}
	}
}

// TestRepairSurvivesSwitchFailure fails a whole middle switch.
func TestRepairSurvivesSwitchFailure(t *testing.T) {
	f := newFixture(t, Config{MNs: 2})
	data := pattern(200_000)
	var got []byte
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { got = append(got, b...) })
	})
	client := NewClient(f.stacks[0], f.mc)
	target := f.hostIP(15).String()
	client.Dial(target, 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Send(data)
	})
	f.eng.RunFor(6 * time.Millisecond)
	info, _ := client.Channel(target)
	// Fail a core/agg switch in the middle of the path (never the edges,
	// which are the hosts' only uplinks).
	var victim topo.NodeID = -1
	for _, node := range info.Flows[0].Path[2 : len(info.Flows[0].Path)-2] {
		n := f.graph.Node(node)
		if n.Kind == topo.KindSwitch {
			victim = node
			break
		}
	}
	if victim < 0 {
		t.Skip("path too short to have a non-edge middle switch")
	}
	f.net.SetSwitchDown(victim, true)
	f.mc.RepairChannel(info.ID, func(err error) {
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
	})
	f.eng.RunUntil(sim.Time(30 * time.Second))
	if !bytes.Equal(got, data) {
		t.Fatalf("transfer broken after switch failure: %d/%d", len(got), len(data))
	}
	for _, node := range f.mc.channels[info.ID].info.Flows[0].Path {
		if node == victim {
			t.Fatal("repaired path still crosses the failed switch")
		}
	}
}

func TestRepairUnknownChannel(t *testing.T) {
	f := newFixture(t, Config{})
	var got error
	f.mc.RepairChannel(999, func(err error) { got = err })
	f.eng.Run()
	if got == nil {
		t.Fatal("repairing unknown channel did not error")
	}
}

// TestCrossTopology establishes channels and echoes data on every
// switch-centric topology builder, checking delivery and the no-conflict
// invariant hold beyond the paper's fat-tree.
func TestCrossTopology(t *testing.T) {
	builders := []struct {
		name  string
		build func() (*topo.Graph, error)
		mns   int
	}{
		{"leafspine", func() (*topo.Graph, error) { return topo.LeafSpine(4, 6, 2) }, 2},
		{"ring", func() (*topo.Graph, error) { return topo.Ring(8) }, 3},
		{"jellyfish", func() (*topo.Graph, error) { return topo.Jellyfish(10, 3, 2, 5) }, 2},
	}
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			g, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.New()
			net := netsim.New(eng, g, netsim.Config{})
			mcc, err := NewMC(net, Config{MNs: b.mns})
			if err != nil {
				t.Fatal(err)
			}
			var stacks []*transport.Stack
			for _, hid := range g.Hosts() {
				stacks = append(stacks, transport.NewStack(net.Host(hid)))
			}
			n := len(stacks)
			pairs := [][2]int{{0, n - 1}, {1, n / 2}, {2, n - 2}}
			echoes := 0
			for i, pr := range pairs {
				if pr[0] == pr[1] {
					continue
				}
				port := uint16(8000 + i)
				Listen(stacks[pr[1]], port, false, func(s *Stream) {
					s.OnData(func(b []byte) { s.Send(b) })
				})
				client := NewClient(stacks[pr[0]], mcc)
				client.Dial(stacks[pr[1]].Host.IP.String(), port, func(s *Stream, err error) {
					if err != nil {
						t.Errorf("%s pair %v: %v", b.name, pr, err)
						return
					}
					got := 0
					s.OnData(func(b []byte) {
						got += len(b)
						if got == 4000 {
							echoes++
						}
					})
					s.Send(pattern(4000))
				})
			}
			eng.Run()
			if echoes != len(pairs) {
				t.Fatalf("%s: %d/%d echoes", b.name, echoes, len(pairs))
			}
			for _, sw := range net.Switches() {
				for _, e := range sw.Table.Entries() {
					if len(sw.Table.Conflicts(e.Match, e.Priority)) != 1 {
						t.Fatalf("%s: conflicting entries on %s", b.name, sw.Name)
					}
				}
			}
			if mcc.UnexpectedMisses != 0 {
				t.Fatalf("%s: %d unexpected packet-ins", b.name, mcc.UnexpectedMisses)
			}
		})
	}
}

func BenchmarkEstablishChannel(b *testing.B) {
	f := newFixture(b, Config{MNs: 3})
	targets := f.graph.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % 8
		dst := 8 + i%8
		done := false
		f.mc.EstablishChannel(f.hostIP(src), f.hostIP(dst).String(), ChannelOptions{}, func(info *ChannelInfo, err error) {
			if err != nil {
				b.Fatal(err)
			}
			done = true
			// Tear down immediately so ID/entry spaces never exhaust.
			f.mc.CloseChannel(info.ID, nil)
		})
		f.eng.Run()
		if !done {
			b.Fatal("establishment incomplete")
		}
	}
	_ = targets
}

func BenchmarkMICTransfer1MB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := newFixture(b, Config{MNs: 3})
		got := 0
		Listen(f.stacks[15], 80, false, func(s *Stream) {
			s.OnData(func(p []byte) { got += len(p) })
		})
		client := NewClient(f.stacks[0], f.mc)
		client.Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) {
			if err != nil {
				b.Fatal(err)
			}
			s.Send(pattern(1 << 20))
		})
		f.eng.Run()
		if got != 1<<20 {
			b.Fatalf("delivered %d", got)
		}
	}
	b.SetBytes(1 << 20)
}

func BenchmarkMAddrChainGeneration(b *testing.B) {
	f := newFixture(b, Config{MNs: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.mc.computeChannel(0, f.hostIP(i%8), f.hostIP(8+i%8).String(), ChannelOptions{}.withDefaults(f.mc.Cfg)); err != nil {
			b.Fatal(err)
		}
		// Free resources for the next iteration.
		for id := range f.mc.channels {
			f.mc.CloseChannel(id, nil)
		}
		f.eng.Run()
	}
}

func (a *idAllocator) inUse() int { return len(a.held) }

// Err returns the stream's terminal error, if any: non-nil after the MC
// declared the underlying channel unrepairable (RepairEvent.Down), or
// once a reset tore down the stream's last open conn.
func (s *Stream) Err() error { return s.failed }

// OnError registers a callback fired at most once, when the stream dies
// terminally: the MC abandoned the channel (no live path after all repair
// retries) and tore it down, or a reset tore down its last open conn. The
// stream is unusable afterwards; Err
// returns the same error. Without the callback the error is still
// available from Err — but registering it is how an application turns a
// would-be hang into a clean failure.
func (s *Stream) OnError(fn func(error)) {
	s.onError = fn
	if s.failed != nil && fn != nil {
		s.onError = nil
		fn(s.failed)
	}
}
