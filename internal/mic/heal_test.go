package mic

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mic/internal/ctrlplane"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// cutFirstInterSwitchLink cuts the first switch-to-switch link on the
// flow's current path and returns its (node, port).
func cutFirstInterSwitchLink(t *testing.T, f *fixture, path topo.Path) (topo.NodeID, int) {
	t.Helper()
	for i := 1; i < len(path)-2; i++ {
		if f.graph.Node(path[i]).Kind == topo.KindSwitch && f.graph.Node(path[i+1]).Kind == topo.KindSwitch {
			node, port := path[i], f.graph.PortTo(path[i], path[i+1])
			f.net.SetLinkDown(node, port, true)
			return node, port
		}
	}
	t.Fatal("no switch-switch link on path to cut")
	return 0, -1
}

// TestAutoRepairSurvivesLinkFailure is TestRepairSurvivesLinkFailure with
// ZERO manual RepairChannel calls: the MC detects the port-down event and
// heals the channel itself.
func TestAutoRepairSurvivesLinkFailure(t *testing.T) {
	f := newFixture(t, Config{MNs: 3, AutoRepair: true})
	data := pattern(400_000)
	var got []byte
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { got = append(got, b...) })
	})
	var repairs []RepairEvent
	f.mc.SubscribeRepair(func(ev RepairEvent) { repairs = append(repairs, ev) })
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
	oldEntry := info.Flows[0].Entry
	cutNode, cutPort := cutFirstInterSwitchLink(t, f, info.Flows[0].Path)
	f.eng.RunUntil(sim.Time(30 * time.Second))
	if !bytes.Equal(got, data) {
		t.Fatalf("transfer broken: %d/%d bytes (lost down: %d)", len(got), len(data), f.net.Stats.LostDown)
	}
	if len(repairs) == 0 || repairs[0].Err != nil {
		t.Fatalf("no successful auto-repair: %+v", repairs)
	}
	if f.mc.Repairs == 0 {
		t.Fatal("Repairs counter untouched")
	}
	lat := repairs[0].CompletedAt.Sub(repairs[0].DetectedAt)
	if lat <= 0 || lat > 100*time.Millisecond {
		t.Fatalf("detection→repair latency %v implausible", lat)
	}
	newInfo, _ := client.Channel(target)
	if newInfo.Flows[0].Entry != oldEntry {
		t.Fatal("auto-repair changed the entry address")
	}
	for i := 0; i+1 < len(newInfo.Flows[0].Path); i++ {
		a, b := newInfo.Flows[0].Path[i], newInfo.Flows[0].Path[i+1]
		if a == cutNode && f.graph.PortTo(a, b) == cutPort {
			t.Fatal("repaired path still crosses the failed link")
		}
	}
	verify(t, f)
}

// TestAutoRepairSurvivesSwitchFailure: a whole switch dies; the SwitchDown
// event heals every channel crossing it.
func TestAutoRepairSurvivesSwitchFailure(t *testing.T) {
	f := newFixture(t, Config{MNs: 2, AutoRepair: true})
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
	var victim topo.NodeID = -1
	for _, node := range info.Flows[0].Path[2 : len(info.Flows[0].Path)-2] {
		if f.graph.Node(node).Kind == topo.KindSwitch {
			victim = node
			break
		}
	}
	if victim < 0 {
		t.Skip("path too short to have a non-edge middle switch")
	}
	f.net.SetSwitchDown(victim, true)
	f.eng.RunUntil(sim.Time(30 * time.Second))
	if !bytes.Equal(got, data) {
		t.Fatalf("transfer broken after switch failure: %d/%d", len(got), len(data))
	}
	for _, node := range f.mc.channels[info.ID].info.Flows[0].Path {
		if node == victim {
			t.Fatal("repaired path still crosses the failed switch")
		}
	}
	verify(t, f)
}

// TestAutoRepairDoubleFailure cuts a second link — on the freshly repaired
// path — the instant the first repair completes; the MC must retry onto a
// third disjoint path and the transfer must still finish.
func TestAutoRepairDoubleFailure(t *testing.T) {
	f := newFixture(t, Config{MNs: 3, AutoRepair: true})
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
	f.eng.RunFor(6 * time.Millisecond)
	info, _ := client.Channel(target)
	type cut struct {
		node topo.NodeID
		port int
	}
	var cuts []cut
	// aggCoreLink finds an agg<->core hop on one of the channel's current
	// paths. Cutting one always leaves the MC an alternative: in a k=4
	// fat-tree every agg has two core uplinks.
	aggCoreLink := func() (topo.NodeID, int, bool) {
		for _, fl := range info.Flows {
			for i := 0; i+1 < len(fl.Path); i++ {
				a, b := f.graph.Node(fl.Path[i]).Name, f.graph.Node(fl.Path[i+1]).Name
				if (strings.HasPrefix(a, "agg") && strings.HasPrefix(b, "core")) ||
					(strings.HasPrefix(a, "core") && strings.HasPrefix(b, "agg")) {
					return fl.Path[i], f.graph.PortTo(fl.Path[i], fl.Path[i+1]), true
				}
			}
		}
		return 0, -1, false
	}
	secondCutDone := false
	f.mc.SubscribeRepair(func(ev RepairEvent) {
		if ev.Err != nil {
			t.Errorf("repair failed: %v", ev.Err)
			return
		}
		if secondCutDone {
			return
		}
		secondCutDone = true
		// First repair just landed: immediately cut a link on the NEW path.
		n, p, ok := aggCoreLink()
		if !ok {
			t.Error("no agg-core hop on the repaired paths to cut")
			return
		}
		f.net.SetLinkDown(n, p, true)
		cuts = append(cuts, cut{n, p})
	})
	// First cut: an agg-core hop, so the detour stays within path diversity
	// that survives a second cut.
	n0, p0, ok := aggCoreLink()
	if !ok {
		t.Skip("channel routed without crossing the core; cannot stage double failure")
	}
	f.net.SetLinkDown(n0, p0, true)
	cuts = append(cuts, cut{n0, p0})
	f.eng.RunUntil(sim.Time(30 * time.Second))
	if !secondCutDone {
		t.Fatal("first repair never completed")
	}
	if len(cuts) != 2 {
		t.Fatalf("made %d cuts, want 2", len(cuts))
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("transfer broken after double failure: %d/%d (lost: %d)", len(got), len(data), f.net.Stats.LostDown)
	}
	if f.mc.Repairs < 2 {
		t.Fatalf("Repairs = %d, want >= 2 (one per cut)", f.mc.Repairs)
	}
	for _, fl := range info.Flows {
		for i := 0; i+1 < len(fl.Path); i++ {
			for _, c := range cuts {
				if fl.Path[i] == c.node && f.graph.PortTo(fl.Path[i], fl.Path[i+1]) == c.port {
					t.Fatal("final path crosses a failed link")
				}
			}
		}
	}
	verify(t, f)
}

// TestAutoRepairTerminalWhenNoPath: killing the responder's only edge
// switch leaves no possible route; after the retry budget the channel must
// be surfaced as dead to the endpoints, not silently black-holed.
func TestAutoRepairTerminalWhenNoPath(t *testing.T) {
	f := newFixture(t, Config{MNs: 2, AutoRepair: true, RepairMaxRetries: 2, RepairBackoff: time.Millisecond})
	Listen(f.stacks[15], 80, false, func(s *Stream) { s.OnData(func([]byte) {}) })
	client := NewClient(f.stacks[0], f.mc)
	target := f.hostIP(15).String()
	var downErr error
	var downID uint64
	f.mc.SubscribeChannelDown(func(id uint64, err error) {
		downID, downErr = id, err
	})
	established := false
	client.Dial(target, 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		established = true
		s.Send(pattern(100_000))
	})
	f.eng.RunFor(6 * time.Millisecond)
	if !established {
		t.Fatal("channel never established")
	}
	info, _ := client.Channel(target)
	// The responder's edge switch is its only uplink: no repair can work.
	respEdge := f.graph.Node(f.graph.Hosts()[15]).Ports[0].Peer
	f.net.SetSwitchDown(respEdge, true)
	f.eng.RunUntil(sim.Time(5 * time.Second))
	if downErr == nil {
		t.Fatal("unrepairable channel was never declared dead")
	}
	if downID != info.ID {
		t.Fatalf("wrong channel declared dead: %d, want %d", downID, info.ID)
	}
	if f.mc.LiveChannels() != 0 {
		t.Fatalf("dead channel still live at the MC: %d", f.mc.LiveChannels())
	}
	if f.mc.RepairFailures != 1 {
		t.Fatalf("RepairFailures = %d", f.mc.RepairFailures)
	}
	verify(t, f)
}

// TestAutoRepairWithLossyControlChannel: the whole detect→repair loop must
// converge even when every southbound message can be lost.
func TestAutoRepairWithLossyControlChannel(t *testing.T) {
	f := buildFixture(t, 4, netsim.Config{Seed: 11}, Config{MNs: 3, AutoRepair: true}, nil)
	f.mc.Ch.LossRate = 0.2
	data := pattern(300_000)
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
	// Establishment itself rides the lossy control channel; give the
	// retransmission machinery room before injecting the failure.
	f.eng.RunFor(50 * time.Millisecond)
	info, ok := client.Channel(target)
	if !ok {
		t.Fatalf("channel not established under %v loss (retransmits=%d)", f.mc.Ch.LossRate, f.mc.Ch.Retransmits)
	}
	cutFirstInterSwitchLink(t, f, info.Flows[0].Path)
	f.eng.RunUntil(sim.Time(60 * time.Second))
	if !bytes.Equal(got, data) {
		t.Fatalf("lossy control channel broke the transfer: %d/%d", len(got), len(data))
	}
	if f.mc.Ch.Retransmits == 0 {
		t.Fatal("loss rate had no effect (test not exercising retransmission)")
	}
	if f.mc.Repairs == 0 {
		t.Fatal("no repair recorded")
	}
	verify(t, f)
}

// TestAutoRepairViaProber: a silent switch failure (no port-status event)
// is detected by the liveness prober and healed through the same path.
func TestAutoRepairViaProber(t *testing.T) {
	f := newFixture(t, Config{MNs: 2, AutoRepair: true, ProbeInterval: 5 * time.Millisecond})
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
	var victim topo.NodeID = -1
	for _, node := range info.Flows[0].Path[2 : len(info.Flows[0].Path)-2] {
		if f.graph.Node(node).Kind == topo.KindSwitch {
			victim = node
			break
		}
	}
	if victim < 0 {
		t.Skip("path too short for a middle switch")
	}
	f.net.SetSwitchDownQuiet(victim, true)
	f.eng.RunUntil(sim.Time(30 * time.Second))
	if !bytes.Equal(got, data) {
		t.Fatalf("silent failure broke the transfer: %d/%d", len(got), len(data))
	}
	if f.mc.prober.Deaths == 0 {
		t.Fatal("prober never declared the victim dead")
	}
	f.mc.StopProber()
	verify(t, f)
}

// mflowRulesAt counts the entries on a switch that belong to m-flow epochs
// rather than to the proactive router.
func mflowRulesAt(f *fixture, node topo.NodeID) int {
	n := 0
	for _, e := range f.net.Switch(node).Table.Entries() {
		if e.Cookie > ctrlplane.CookieCommon {
			n++
		}
	}
	return n
}

// TestStaleRulesPurgedOnSwitchRestore: rules that could not be deleted from
// a dead switch are removed by the pass its reconnect runs, after which every
// table holds exactly what the live channels intend.
func TestStaleRulesPurgedOnSwitchRestore(t *testing.T) {
	f := newFixture(t, Config{MNs: 2, AutoRepair: true})
	f.mc.Ch.MaxRetries = 2 // keep the give-up path short
	Listen(f.stacks[15], 80, false, func(s *Stream) { s.OnData(func([]byte) {}) })
	client := NewClient(f.stacks[0], f.mc)
	target := f.hostIP(15).String()
	client.Dial(target, 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Send(pattern(50_000))
	})
	f.eng.RunFor(6 * time.Millisecond)
	info, _ := client.Channel(target)
	var victim topo.NodeID = -1
	for _, node := range info.Flows[0].Path[2 : len(info.Flows[0].Path)-2] {
		if f.graph.Node(node).Kind == topo.KindSwitch {
			victim = node
			break
		}
	}
	if victim < 0 {
		t.Skip("path too short for a middle switch")
	}
	f.net.SetSwitchDown(victim, true)
	f.eng.RunFor(2 * time.Second)
	mflowRules := func() int { return mflowRulesAt(f, victim) }
	if mflowRules() == 0 {
		t.Fatal("dead switch lost its rules spontaneously (nothing to purge)")
	}
	f.net.SetSwitchDown(victim, false)
	f.eng.RunFor(2 * time.Second)
	if n := mflowRules(); n != 0 {
		t.Fatalf("restored switch still holds %d stale m-flow rules", n)
	}
	verify(t, f)
}

// TestCloseWhileSwitchDownLeavesNothing: a channel closed while one of its
// switches is silently dead cannot have its rules deleted there. The close
// must mark the switch like a repair's purge does, so that it is reconciled
// when it comes back instead of forwarding for m-addresses whose flow IDs
// have since been recycled into another channel — with or without the
// self-healing layer, which the reconnect does not depend on.
func TestCloseWhileSwitchDownLeavesNothing(t *testing.T) {
	for _, autoRepair := range []bool{true, false} {
		t.Run(fmt.Sprintf("AutoRepair=%v", autoRepair), func(t *testing.T) {
			closeWhileSwitchDown(t, Config{MNs: 2, AutoRepair: autoRepair})
		})
	}
}

// closeWhileSwitchDown is one arm of TestCloseWhileSwitchDownLeavesNothing.
func closeWhileSwitchDown(t *testing.T, cfg Config) {
	f := newFixture(t, cfg)
	var info *ChannelInfo
	f.mc.EstablishChannel(f.hostIP(0), f.hostIP(15).String(), ChannelOptions{}, func(ci *ChannelInfo, err error) {
		if err != nil {
			t.Fatalf("establish: %v", err)
		}
		info = ci
	})
	f.eng.RunFor(6 * time.Millisecond)
	path := info.Flows[0].Path
	victim := path[len(path)/2]
	if f.graph.Node(victim).Kind != topo.KindSwitch {
		t.Fatalf("mid-path node %d is not a switch", victim)
	}
	mflowRules := func() int { return mflowRulesAt(f, victim) }
	if mflowRules() == 0 {
		t.Fatal("mid-path switch holds no m-flow rules (nothing to leak)")
	}
	f.net.SetSwitchDownQuiet(victim, true)
	closed := false
	if err := f.mc.CloseChannel(info.ID, func() { closed = true }); err != nil {
		t.Fatal(err)
	}
	f.eng.RunFor(2 * time.Second)
	if !closed || f.mc.LiveChannels() != 0 {
		t.Fatalf("close did not finish: closed=%v live=%d", closed, f.mc.LiveChannels())
	}
	f.net.SetSwitchDown(victim, false)
	f.eng.RunFor(2 * time.Second)
	if n := mflowRules(); n != 0 {
		t.Fatalf("restored switch still holds %d rules of the closed channel", n)
	}
	verify(t, f)
}

// TestExhaustedDeleteOnLiveSwitchConverges: a close whose deletes run out of
// retries on live switches, with no prober to report a reconnect that never
// comes anyway, must not leave the rules there. Every unconfirmed delete to a
// switch that is up marks it for reconcile, which runs a pass at once and
// retries the pass until the control channel carries it.
func TestExhaustedDeleteOnLiveSwitchConverges(t *testing.T) {
	f := newFixture(t, Config{MNs: 2})
	var info *ChannelInfo
	f.mc.EstablishChannel(f.hostIP(0), f.hostIP(15).String(), ChannelOptions{}, func(ci *ChannelInfo, err error) {
		if err != nil {
			t.Fatalf("establish: %v", err)
		}
		info = ci
	})
	f.eng.RunFor(6 * time.Millisecond)
	f.mc.Ch.MaxRetries, f.mc.Ch.LossRate = 2, 1
	closed := false
	if err := f.mc.CloseChannel(info.ID, func() {
		closed = true
		f.mc.Ch.LossRate = 0
	}); err != nil {
		t.Fatal(err)
	}
	f.eng.RunFor(2 * time.Second)
	if !closed {
		t.Fatal("close did not finish")
	}
	for _, sw := range f.net.Switches() {
		if n := mflowRulesAt(f, sw.ID); n != 0 {
			t.Fatalf("%s still holds %d rules of the closed channel", sw.Name, n)
		}
	}
	verify(t, f)
}

// TestCloseDuringInstallLeavesNothing: a close issued while an install of the
// channel's rules is still out — here a repair's, retransmitting over a lossy
// control channel — must not send its deletes until the install resolves, or
// a retransmitted FlowMod landing after the delete puts the rule back on a
// live switch for good. Without the wait the m-flow rules survived at 176 of
// these 300 loss seeds at 5 % loss, and at 296 at 30 %.
func TestCloseDuringInstallLeavesNothing(t *testing.T) {
	for _, loss := range []float64{0.05, 0.30} {
		for seed := uint64(1); seed <= 300; seed++ {
			closeDuringRepair(t, loss, seed)
		}
	}
}

// closeDuringRepair is one run of TestCloseDuringInstallLeavesNothing.
func closeDuringRepair(t *testing.T, loss float64, seed uint64) {
	t.Helper()
	f := buildFixture(t, 4, netsim.Config{Seed: seed}, Config{MNs: 2}, nil)
	var info *ChannelInfo
	f.mc.EstablishChannel(f.hostIP(0), f.hostIP(15).String(), ChannelOptions{}, func(ci *ChannelInfo, err error) {
		if err != nil {
			t.Fatalf("establish: %v", err)
		}
		info = ci
	})
	f.eng.RunFor(6 * time.Millisecond)
	f.mc.Ch.LossRate = loss
	f.mc.RepairChannel(info.ID, func(error) {})
	f.eng.RunFor(150 * time.Microsecond)
	closed := false
	if err := f.mc.CloseChannel(info.ID, func() { closed = true }); err != nil {
		t.Fatal(err)
	}
	f.eng.RunFor(5 * time.Second)
	if !closed {
		t.Fatalf("loss %g seed %d: close did not finish", loss, seed)
	}
	for _, sw := range f.net.Switches() {
		if n := mflowRulesAt(f, sw.ID); n != 0 {
			t.Fatalf("loss %g seed %d: %s still holds %d rules of the closed channel (marked for reconcile: %v)", loss, seed, sw.Name, n, f.mc.recon[sw.ID].marked)
		}
	}
	verify(t, f)
}

// TestRepairDuringInstallKeepsNewEpoch: a link of a new channel's path is cut
// 700 µs into its dial, after its batch went out and before every switch
// acknowledged it, so the repair installs the next epoch while the batch may
// still be retransmitting over a lossy control channel. A retransmission
// landing after the repair put the epoch-0 entry back in place of the epoch-1
// one with the same match — an edge switch's untagged ingress rule — and the
// purge of epoch 0 then deleted it. Before one owner's southbound messages
// applied in send order, the repaired epoch lacked a rule at 30 of these 300
// seeds at 5 % loss and 97 at 30 %. Each seed also runs with a switch of the
// dial's path crashing under the repair and restarting (repairDuringDial).
func TestRepairDuringInstallKeepsNewEpoch(t *testing.T) {
	for _, loss := range []float64{0, 0.05, 0.30} {
		for seed := uint64(1); seed <= 300; seed++ {
			repairDuringDial(t, Config{MNs: 2, AutoRepair: true}, loss, seed, false)
			repairDuringDial(t, Config{MNs: 2, AutoRepair: true}, loss, seed, true)
		}
	}
}

// TestRepairDuringInstallLeavesNoGroup is the sweep above under partial
// multicast. The repair took the superseded epoch's groups off the switches at
// once, while the dial's batch carrying them could still be retransmitting:
// a switch ended holding a group no live epoch owns at 36 of 300 seeds at 5 %
// loss and 157 at 30 %. A switch's groups of an epoch now go when it answers
// the epoch's delete.
func TestRepairDuringInstallLeavesNoGroup(t *testing.T) {
	for _, loss := range []float64{0, 0.05, 0.30} {
		for seed := uint64(1); seed <= 300; seed++ {
			repairDuringDial(t, Config{MNs: 2, AutoRepair: true, MulticastFanout: 2}, loss, seed, false)
			repairDuringDial(t, Config{MNs: 2, AutoRepair: true, MulticastFanout: 2}, loss, seed, true)
		}
	}
}

// repairDuringDial is one run of the two sweeps above: a dial from host 0 to
// host 15, the first switch-to-switch link of its planned path cut 700 µs in,
// five seconds to settle; then the channel must be repaired and the tables
// hold its new epoch, all of it, and nothing else. With crash, the switch in
// the middle of the planned path also dies 1 ms after the cut and restarts 2
// ms later, so its reconnect pass runs while the dial's superseded batch may
// still be retransmitting to it.
func repairDuringDial(t *testing.T, cfg Config, loss float64, seed uint64, crash bool) {
	t.Helper()
	f := buildFixture(t, 4, netsim.Config{Seed: seed}, cfg, nil)
	f.mc.Ch.LossRate = loss
	f.mc.EstablishChannel(f.hostIP(0), f.hostIP(15).String(), ChannelOptions{}, func(*ChannelInfo, error) {})
	f.eng.RunFor(700 * time.Microsecond)
	st := f.mc.channels[sortedChanIDs(f.mc.channels)[0]]
	path := st.info.Flows[0].Path
	cutFirstInterSwitchLink(t, f, path)
	if victim := path[len(path)/2]; crash {
		f.eng.After(time.Millisecond, func() { f.net.SetSwitchDown(victim, true) })
		f.eng.After(3*time.Millisecond, func() { f.net.SetSwitchDown(victim, false) })
	}
	f.eng.RunFor(5 * time.Second)
	if f.mc.channels[st.id] != st || st.epoch == 0 {
		t.Fatalf("loss %g seed %d crash %v: the channel was not repaired (epoch %d, %d repairs, %d given up)", loss, seed, crash, st.epoch, f.mc.Repairs, f.mc.RepairFailures)
	}
	if err := verifyError(f); err != nil {
		t.Fatalf("loss %g seed %d crash %v: %v", loss, seed, crash, err)
	}
}

// TestRepairWhileDialQueuedBehindPlanner: a dial storm keeps the planning
// core busy for 3 ms, so a new channel's batch waits for it while the planned
// path is cut and the channel repaired. The batch must carry the epoch the
// channel has when the core gets to it: the one planned at the dial put two
// of the channel's nine rules back at their epoch-0 entries after the
// repair, and the purge of epoch 0 had already passed. A channel closed before
// the core gets to it sends nothing and its dial is refused.
func TestRepairWhileDialQueuedBehindPlanner(t *testing.T) {
	dial := func(t *testing.T) (*fixture, *channelState, *error) {
		f := newFixture(t, Config{MNs: 2, AutoRepair: true})
		f.mc.cpuFree[0] = sim.Time(3 * time.Millisecond)
		answer := new(error)
		*answer = errors.New("dial not answered")
		f.mc.EstablishChannel(f.hostIP(0), f.hostIP(15).String(), ChannelOptions{}, func(_ *ChannelInfo, err error) { *answer = err })
		f.eng.RunFor(700 * time.Microsecond)
		return f, f.mc.channels[sortedChanIDs(f.mc.channels)[0]], answer
	}
	t.Run("repaired", func(t *testing.T) {
		f, st, answer := dial(t)
		cutFirstInterSwitchLink(t, f, st.info.Flows[0].Path)
		f.eng.Run()
		if *answer != nil || st.epoch != 1 {
			t.Fatalf("dial answered %v, channel at epoch %d; want a repaired channel", *answer, st.epoch)
		}
		verify(t, f)
	})
	t.Run("closed", func(t *testing.T) {
		f, st, answer := dial(t)
		if err := f.mc.CloseChannel(st.id, nil); err != nil {
			t.Fatal(err)
		}
		f.eng.Run()
		if *answer == nil {
			t.Fatal("the dial of a channel closed before it was installed was answered with the channel")
		}
		for _, sw := range f.net.Switches() {
			if n := mflowRulesAt(f, sw.ID); n != 0 {
				t.Fatalf("%s holds %d rules of a channel closed before it was installed", sw.Name, n)
			}
		}
		verify(t, f)
	})
}

// TestIDRecyclingAcrossRepairEpochs: repairs must not leak or churn flow
// IDs — the same IDs survive every epoch, and close/re-establish cycles
// recycle them instead of growing the allocator.
func TestIDRecyclingAcrossRepairEpochs(t *testing.T) {
	f := newFixture(t, Config{MNs: 2, AutoRepair: true})
	Listen(f.stacks[15], 80, false, func(s *Stream) { s.OnData(func([]byte) {}) })
	client := NewClient(f.stacks[0], f.mc)
	target := f.hostIP(15).String()

	for cycle := 0; cycle < 5; cycle++ {
		client.Dial(target, 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("cycle %d dial: %v", cycle, err)
			}
		})
		f.eng.RunFor(6 * time.Millisecond)
		info, _ := client.Channel(target)
		resBefore := slices.Clone(f.mc.channels[info.ID].res)
		// Two repair epochs per cycle, via real failure events.
		for rep := 0; rep < 2; rep++ {
			node, port := cutFirstInterSwitchLink(t, f, info.Flows[0].Path)
			f.eng.RunFor(50 * time.Millisecond)
			f.net.SetLinkDown(node, port, false) // restore for the next cycle
			f.eng.RunFor(10 * time.Millisecond)
		}
		st := f.mc.channels[info.ID]
		if st.epoch < 2 {
			t.Fatalf("cycle %d: only %d repair epochs happened", cycle, st.epoch)
		}
		if !slices.Equal(st.res, resBefore) {
			t.Fatalf("cycle %d: flow IDs or fake addresses churned across epochs: %v -> %v", cycle, resBefore, st.res)
		}
		if err := client.CloseChannel(target, nil); err != nil {
			t.Fatalf("cycle %d close: %v", cycle, err)
		}
		f.eng.RunFor(10 * time.Millisecond)
		if got := f.mc.flowIDs.inUse(); got != 0 {
			t.Fatalf("cycle %d: %d flow IDs leaked", cycle, got)
		}
	}
	// Recycling: 5 cycles x 1 flow x 2 IDs never allocate more than the
	// high-water mark of one cycle.
	if grown := f.mc.flowIDs.next - f.mc.flowIDs.lo; grown > 2 {
		t.Fatalf("allocator grew to %d fresh IDs; recycling broken", grown)
	}
	verify(t, f)
}

// TestFailedRepairKeepsBooks: a repair attempt that finds no path changes
// nothing. Every uplink of the initiator's edge switch is cut, so the first
// attempt fails; until the retry the channel's old rules are still installed
// and still its intent, so the books must read exactly as before the attempt
// — its old paths in the link-load table and in both failure indexes (where
// reinstall-on-miss and the next failure event look the channel up), nothing
// of the epoch that never came to exist. Then one uplink heals and the retry
// re-routes onto it.
func TestFailedRepairKeepsBooks(t *testing.T) {
	f := newFixture(t, Config{MNs: 3, MFlows: 2, AutoRepair: true, RepairBackoff: 10 * time.Millisecond})
	Listen(f.stacks[15], 80, false, func(s *Stream) { s.OnData(func([]byte) {}) })
	client := NewClient(f.stacks[0], f.mc)
	target := f.hostIP(15).String()
	client.Dial(target, 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
	})
	f.eng.RunFor(6 * time.Millisecond)
	info, ok := client.Channel(target)
	if !ok {
		t.Fatal("no channel after dial")
	}
	verify(t, f)

	edge, agg := info.Flows[0].Path[1], info.Flows[0].Path[2]
	spare := -1 // an uplink flow 0 does not use: the one that heals
	for port, p := range f.graph.Node(edge).Ports {
		if f.graph.Node(p.Peer).Kind != topo.KindSwitch {
			continue
		}
		f.net.SetLinkDown(edge, port, true)
		if p.Peer != agg {
			spare = port
		}
	}
	f.eng.RunFor(2 * time.Millisecond)
	st := f.mc.channels[info.ID]
	if job := f.mc.repairJobs[info.ID]; job == nil || job.attempts != 1 || st.epoch != 0 {
		t.Fatalf("want one failed attempt and the old epoch standing; job %+v, epoch %d", job, st.epoch)
	}
	verify(t, f)

	f.net.SetLinkDown(edge, spare, false)
	f.eng.RunFor(20 * time.Millisecond)
	if f.mc.Repairs != 1 || st.epoch != 1 || len(f.mc.repairJobs) != 0 {
		t.Fatalf("retry did not repair: Repairs=%d epoch=%d jobs=%d", f.mc.Repairs, st.epoch, len(f.mc.repairJobs))
	}
	for _, fl := range info.Flows {
		if got := f.graph.PortTo(edge, fl.Path[2]); got != spare {
			t.Fatalf("a repaired flow leaves the edge switch by port %d, only %d is up", got, spare)
		}
	}
	verify(t, f)
}
