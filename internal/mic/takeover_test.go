package mic

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mic/internal/flowtable"
	"mic/internal/sim"
	"mic/internal/topo"
)

// fencedAt fails the test unless every switch's fencing mark equals the
// cluster's current epoch: each promotion's Hello fan-out must have reached
// the whole fabric.
func fencedAt(t *testing.T, f *clusterFixture) {
	t.Helper()
	for _, sw := range f.net.Switches() {
		if sw.FenceEpoch != f.cl.Fence() {
			t.Errorf("%s fencing mark = %d, cluster epoch %d", sw.Name, sw.FenceEpoch, f.cl.Fence())
		}
	}
}

// TestClusterFailoverTakeover runs the cluster takeover under live
// transfers: the active journals a channel per transfer, then its controller
// host dies. The standby's watchdog detects the silence; the takeover
// replays the journal, reconciles the switches against the rebuilt intent,
// and must pass a clean audit and serve new dials.
func TestClusterFailoverTakeover(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3, MFlows: 2, AutoRepair: true}, ClusterConfig{Standbys: 1})
	var stats []TakeoverStats
	f.cl.OnTakeover = func(ts TakeoverStats) { stats = append(stats, ts) }

	const pairs = 3
	data := pattern(64 << 10)
	got := make([][]byte, pairs)
	for i := 0; i < pairs; i++ {
		i := i
		resp := f.stacks[i*4+3]
		Listen(resp, 80, false, func(s *Stream) {
			s.OnData(func(b []byte) { got[i] = append(got[i], b...) })
		})
		client := NewClient(f.stacks[i*4], f.cl)
		client.Dial(resp.Host.IP.String(), 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("dial %d: %v", i, err)
			}
			s.Send(data)
		})
	}
	// Let the dials establish and the transfers start, then kill the host.
	f.eng.RunUntil(sim.Time(20 * time.Millisecond))
	opens := 0
	for _, r := range f.cl.Journal.Records() {
		if r.Kind == RecOpen {
			opens++
		}
	}
	if opens != pairs {
		t.Fatalf("journal holds %d open channels before the kill, want %d for a meaningful replay", opens, pairs)
	}
	f.net.SetCtrlHostDown(0, true)

	// The transfers must complete through the takeover: installed rules keep
	// forwarding while the control plane is being rebuilt.
	f.eng.RunUntil(sim.Time(3 * time.Second))
	for i := 0; i < pairs; i++ {
		if !bytes.Equal(got[i], data) {
			t.Fatalf("transfer %d through the takeover broken: %d/%d bytes", i, len(got[i]), len(data))
		}
	}
	if len(stats) != 1 || f.cl.ActiveIndex() != 1 {
		t.Fatalf("takeovers = %d, active = %d; want the standby promoted once", len(stats), f.cl.ActiveIndex())
	}
	if stats[0].StaleDeleted != 0 {
		t.Fatalf("reconciliation deleted %d rules as stale; the rebuilt intent should cover every live rule", stats[0].StaleDeleted)
	}
	if st, miss := f.cl.Audit(); st != 0 || miss != 0 {
		t.Fatalf("post-takeover audit: stale=%d missing=%d, want 0/0", st, miss)
	}
	if got, want := f.cl.members[1].mc.LiveChannels(), pairs; got != want || stats[0].Channels != want {
		t.Fatalf("promoted controller live channels = %d (takeover rebuilt %d), want %d", got, stats[0].Channels, want)
	}

	// The promoted controller must serve fresh dials.
	resp := f.stacks[10]
	Listen(resp, 81, false, func(s *Stream) {
		s.OnData(func(b []byte) { s.Send(b) })
	})
	var reply []byte
	client := NewClient(f.stacks[5], f.cl)
	client.Dial(resp.Host.IP.String(), 81, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("post-takeover dial: %v", err)
		}
		s.OnData(func(b []byte) { reply = append(reply, b...) })
		s.Send([]byte("after takeover"))
	})
	f.settle(4 * time.Second)
	if string(reply) != "after takeover" {
		t.Fatalf("post-takeover reply = %q", reply)
	}
}

// stormRun drives one takeover-under-storm scenario and
// returns a deterministic summary of everything observable: transfer
// outcomes, takeover stats, audit, journal accounting, and switch fencing
// marks. The byte-identity test compares two of these.
func stormRun(t *testing.T, seed uint64) string {
	t.Helper()
	f := newClusterFixture(t, Config{MNs: 3, MFlows: 2, AutoRepair: true, Seed: seed}, ClusterConfig{Standbys: 1})
	var stats []TakeoverStats
	f.cl.OnTakeover = func(ts TakeoverStats) { stats = append(stats, ts) }

	// A storm of staggered dials across many edge pairs: some establish and
	// start sending before the crash, some are in flight at it or land in the
	// blackout and are sent to the promoted controller, some arrive only
	// after promotion.
	const pairs = 8
	data := pattern(128 << 10)
	got := make([][]byte, pairs)
	dialErrs := make([]error, pairs)
	clients := make([]*Client, pairs)
	for i := 0; i < pairs; i++ {
		i := i
		resp := f.stacks[(i*3+5)%16]
		port := uint16(2000 + i)
		Listen(resp, port, false, func(s *Stream) {
			s.OnData(func(b []byte) { got[i] = append(got[i], b...) })
		})
		f.eng.After(time.Duration(i)*4*time.Millisecond, func() {
			client := NewClient(f.stacks[i%4], f.cl)
			clients[i] = client
			client.Dial(resp.Host.IP.String(), port, func(s *Stream, err error) {
				if err != nil {
					dialErrs[i] = err
					return
				}
				s.Send(data)
			})
		})
	}

	// Kill the active's host mid-storm; the standby's watchdog detects the
	// silence and promotes it.
	f.eng.After(14*time.Millisecond, func() { f.net.SetCtrlHostDown(0, true) })

	f.eng.RunUntil(sim.Time(3 * time.Second))
	var sb strings.Builder
	for i := 0; i < pairs; i++ {
		if dialErrs[i] != nil {
			t.Errorf("storm dial %d: %v", i, dialErrs[i])
		}
		if !bytes.Equal(got[i], data) {
			t.Errorf("storm transfer %d broken through the takeover: %d/%d bytes", i, len(got[i]), len(data))
		}
		fmt.Fprintf(&sb, "transfer %d: %d bytes\n", i, len(got[i]))
	}
	if len(stats) != 1 {
		t.Fatalf("takeovers = %d, want 1", len(stats))
	}
	auditStale, auditMissing := f.cl.Audit()
	if auditStale != 0 || auditMissing != 0 {
		t.Errorf("post-takeover audit: stale=%d missing=%d", auditStale, auditMissing)
	}
	checkClusterReplay(t, f.cl)
	j := f.cl.Journal
	if j.Divergent != 0 {
		t.Errorf("journal divergence = %d across a clean failover, want 0", j.Divergent)
	}
	// The successor holds exactly the channels the storm's dials were
	// answered with, none of them closed: a dial the dead life journaled
	// without answering is answered with its journaled channel, not another.
	var held []uint64
	for i, client := range clients {
		if info, ok := client.Channel(f.stacks[(i*3+5)%16].Host.IP.String()); ok {
			held = append(held, info.ID)
		}
	}
	slices.Sort(held)
	live := f.cl.members[1].mc.LiveChannels()
	if ids := sortedChanIDs(f.cl.members[1].mc.channels); !slices.Equal(ids, held) {
		t.Errorf("live channels after the storm %v, answered %v", ids, held)
	}
	fencedAt(t, f)
	fmt.Fprintf(&sb, "takeover at %v: channels=%d reinstalled=%d stale=%d\n",
		time.Duration(stats[0].At), stats[0].Channels, stats[0].Reinstalled, stats[0].StaleDeleted)
	fmt.Fprintf(&sb, "audit: stale=%d missing=%d\n", auditStale, auditMissing)
	fmt.Fprintf(&sb, "live=%d divergent=%d appends=%d records=%d\n", live, j.Divergent, j.Appends, j.Len())
	for _, sw := range f.net.Switches() {
		fmt.Fprintf(&sb, "%s: fence=%d rejects=%d rules=%d\n", sw.Name, sw.FenceEpoch, sw.StaleRejected, sw.Table.Len())
	}
	sb.WriteString(f.cl.Telemetry().String())
	f.settle(3 * time.Second)
	return sb.String()
}

// TestClusterTakeoverMidDialStorm: a cluster must absorb a takeover while a
// dial storm is in flight — pre-crash channels keep forwarding,
// blackout-window dials retry onto the promoted controller, and the
// reconciliation still audits clean.
func TestClusterTakeoverMidDialStorm(t *testing.T) {
	stormRun(t, 7)
}

// TestClusterStormByteIdentity: the storm-takeover scenario is part of the
// determinism contract — same seed, same crash schedule, byte-identical
// observables (including journal accounting and per-switch fencing state).
func TestClusterStormByteIdentity(t *testing.T) {
	a := stormRun(t, 11)
	b := stormRun(t, 11)
	if a != b {
		t.Fatalf("storm takeover diverged across identical runs:\n--- run1\n%s--- run2\n%s", a, b)
	}
}

// TestClusterDoubleFailover: the active dies, standby 1 promotes (epoch 1)
// and serves; standby 1 dies too, and standby 2 — whose state is the same
// journal, now containing records from two lives — promotes at epoch 2.
// Channels from both lives must survive, the audit must come back clean,
// and every switch's fencing mark must have followed the epochs up.
func TestClusterDoubleFailover(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3, MFlows: 2, AutoRepair: true}, ClusterConfig{Standbys: 2})

	data := pattern(64 << 10)
	var gotA, gotB []byte
	respA := f.stacks[7]
	Listen(respA, 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { gotA = append(gotA, b...) })
	})
	clientA := NewClient(f.stacks[0], f.cl)
	clientA.Dial(respA.Host.IP.String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Errorf("dial A: %v", err)
			return
		}
		s.Send(data)
	})

	// First failover at 15ms.
	f.eng.After(15*time.Millisecond, func() { f.net.SetCtrlHostDown(0, true) })

	// A second-life channel, journaled by the first successor.
	respB := f.stacks[10]
	Listen(respB, 81, false, func(s *Stream) {
		s.OnData(func(b []byte) { gotB = append(gotB, b...) })
	})
	f.eng.After(40*time.Millisecond, func() {
		clientB := NewClient(f.stacks[2], f.cl)
		clientB.Dial(respB.Host.IP.String(), 81, func(s *Stream, err error) {
			if err != nil {
				t.Errorf("dial B: %v", err)
				return
			}
			s.Send(data)
		})
	})

	// Second failover at 70ms: whoever is acting dies; the survivor
	// rebuilds from records of both lives.
	var first int
	f.eng.After(70*time.Millisecond, func() {
		first = f.cl.ActiveIndex()
		f.net.SetCtrlHostDown(first, true)
	})

	f.eng.RunUntil(sim.Time(3 * time.Second))
	if !bytes.Equal(gotA, data) {
		t.Fatalf("first-life transfer broken: %d/%d bytes", len(gotA), len(data))
	}
	if !bytes.Equal(gotB, data) {
		t.Fatalf("second-life transfer broken: %d/%d bytes", len(gotB), len(data))
	}
	second := f.cl.ActiveIndex()
	if f.cl.Takeovers() != 2 || first < 1 || second < 1 || second == first {
		t.Fatalf("takeovers = %d, successors = %d then %d; want both standbys promoted in turn", f.cl.Takeovers(), first, second)
	}
	if st, miss := f.cl.Audit(); st != 0 || miss != 0 {
		t.Fatalf("audit after double failover: stale=%d missing=%d", st, miss)
	}
	checkClusterReplay(t, f.cl)
	if n := f.cl.members[second].mc.LiveChannels(); n != 2 {
		t.Fatalf("live channels after double failover = %d, want 2", n)
	}
	if d := f.cl.Journal.Divergent; d != 0 {
		t.Fatalf("journal divergence = %d across two clean failovers, want 0", d)
	}
	if f.cl.Fence() != 2 {
		t.Fatalf("cluster epoch = %d after two promotions, want 2", f.cl.Fence())
	}
	fencedAt(t, f)

	// The epoch-2 controller serves fresh dials.
	respC := f.stacks[13]
	Listen(respC, 82, false, func(s *Stream) {
		s.OnData(func(b []byte) { s.Send(b) })
	})
	var reply []byte
	clientC := NewClient(f.stacks[4], f.cl)
	clientC.Dial(respC.Host.IP.String(), 82, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("post-double-failover dial: %v", err)
		}
		s.OnData(func(b []byte) { reply = append(reply, b...) })
		s.Send([]byte("third life"))
	})
	f.settle(4 * time.Second)
	if string(reply) != "third life" {
		t.Fatalf("post-double-failover reply = %q", reply)
	}
}

// TestTakeoverSweepAndLateReconcile pins the two halves of a takeover that
// outlive its passes:
//
// sweep — a channel whose path dies during the blackout has nobody to repair
// it (the failure event fired at a dead controller); the post-takeover
// liveness sweep must find it and queue it through the normal self-healing
// path.
//
// late reconcile — a switch that is down when the standby takes over cannot
// be dumped; the successor leaves it marked, and its reconnect trigger
// (SwitchUp) runs the pass, so the dead life's rules on it are purged and the
// audit ends at (0, 0).
func TestTakeoverSweepAndLateReconcile(t *testing.T) {
	t.Run("sweep", func(t *testing.T) {
		f := newClusterFixture(t, Config{MNs: 3, AutoRepair: true}, ClusterConfig{})
		var repairs []RepairEvent
		f.cl.SubscribeRepair(func(ev RepairEvent) { repairs = append(repairs, ev) })
		stream, info, echoed := clusterEcho(t, f, 2, 15)
		f.net.SetCtrlHostDown(0, true)
		f.eng.RunFor(time.Millisecond)
		cutFirstInterSwitchLink(t, &fixture{eng: f.eng, net: f.net, graph: f.graph}, info.Flows[0].Path)
		f.eng.RunFor(50 * time.Millisecond)
		if f.cl.Takeovers() != 1 {
			t.Fatalf("takeovers = %d, want 1", f.cl.Takeovers())
		}
		if len(repairs) != 1 || repairs[0].Channel != info.ID || repairs[0].Err != nil {
			t.Fatalf("post-takeover sweep repairs = %+v, want one clean repair of channel %d", repairs, info.ID)
		}
		stream.Send([]byte("two."))
		f.settle(2 * time.Second)
		if string(*echoed) != "one.two." {
			t.Fatalf("echo across the blackout cut = %q, want \"one.two.\"", *echoed)
		}
		if st, miss := f.cl.Audit(); st != 0 || miss != 0 {
			t.Fatalf("audit: stale=%d missing=%d", st, miss)
		}
		checkClusterReplay(t, f.cl)
	})
	t.Run("late-reconcile", func(t *testing.T) {
		f := newClusterFixture(t, Config{MNs: 3, AutoRepair: true}, ClusterConfig{})
		stream, info, echoed := clusterEcho(t, f, 2, 15)
		var victim topo.NodeID = -1
		for _, node := range info.Flows[0].Path[2 : len(info.Flows[0].Path)-2] {
			if f.graph.Node(node).Kind == topo.KindSwitch {
				victim = node
			}
		}
		if victim < 0 {
			t.Fatal("path too short for a middle switch")
		}
		// The switch dies; the active reroutes the channel but cannot purge
		// the old epoch from the corpse — and then dies itself, taking the
		// memory of those stale cookies with it.
		f.net.SetSwitchDown(victim, true)
		f.eng.RunFor(20 * time.Millisecond)
		f.net.SetCtrlHostDown(0, true)
		f.eng.RunFor(50 * time.Millisecond)
		if f.cl.Takeovers() != 1 {
			t.Fatalf("takeovers = %d, want 1", f.cl.Takeovers())
		}
		if st, _ := f.cl.Audit(); st == 0 {
			t.Fatal("the dead switch holds no stale rules; nothing for the late reconcile to do")
		}
		f.net.SetSwitchDown(victim, false)
		f.eng.RunFor(50 * time.Millisecond)
		if st, miss := f.cl.Audit(); st != 0 || miss != 0 {
			t.Fatalf("audit after the switch returned: stale=%d missing=%d, want 0/0", st, miss)
		}
		checkClusterReplay(t, f.cl)
		stream.Send([]byte("two."))
		f.settle(2 * time.Second)
		if string(*echoed) != "one.two." {
			t.Fatalf("echo = %q, want \"one.two.\"", *echoed)
		}
	})
}

// TestClusterTakeoverMidRepairMakesBeforeBreaking sweeps a takeover under
// southbound loss: a channel's dial has a link of its path cut under it, and
// the active dies while the repair's install is out and before its purge, so
// the successor finds old-epoch entries where the new epoch is intended and
// puts the new ones back over loss. After every event from the kill until
// the takeover completes, every match of a channel the successor intends
// that a switch has held stays held, by the channel's current entry or an
// older epoch's: each stale delete goes out after the reinstall of the same
// match. Every run reaches that state: the takeover reinstalls a rule and
// deletes a stale one.
func TestClusterTakeoverMidRepairMakesBeforeBreaking(t *testing.T) {
	for _, loss := range []float64{0.05, 0.30} {
		for seed := uint64(1); seed <= 100; seed++ {
			takeoverMidRepair(t, loss, seed)
		}
	}
}

// takeoverMidRepair is one run of the sweep above.
func takeoverMidRepair(t *testing.T, loss float64, seed uint64) {
	t.Helper()
	f := newClusterFixture(t, Config{MNs: 3, AutoRepair: true}, ClusterConfig{})
	successor := f.cl.members[1].mc
	successor.Ch.LossRate, successor.Ch.LossSeed = loss, seed
	var stats []TakeoverStats
	f.cl.OnTakeover = func(ts TakeoverStats) { stats = append(stats, ts) }
	// The takeover sends the dial again, and the successor answers it with
	// the channel the dead life journaled.
	active := f.cl.members[0].mc
	var answers []*ChannelInfo
	f.cl.EstablishChannel(f.stacks[2].Host.IP, f.stacks[15].Host.IP.String(), ChannelOptions{}, func(info *ChannelInfo, err error) {
		if err != nil {
			t.Errorf("loss %g seed %d: dial: %v", loss, seed, err)
		}
		answers = append(answers, info)
	})
	f.eng.RunFor(700 * time.Microsecond)
	if len(active.channels) != 1 {
		t.Fatalf("loss %g seed %d: the active holds %d channels, want the dial's", loss, seed, len(active.channels))
	}
	path := active.channels[sortedChanIDs(active.channels)[0]].info.Flows[0].Path
	cutFirstInterSwitchLink(t, &fixture{eng: f.eng, net: f.net, graph: f.graph}, path)
	f.eng.RunFor(600 * time.Microsecond) // the repair's install is out, held behind the dial's batch
	f.net.SetCtrlHostDown(0, true)

	// Until member 1 is promoted it holds no channels; what it will intend is
	// the journal replayed into a twin. The cluster is headless, so the
	// journal cannot change before the promotion.
	twin := replayed(t, successor, f.cl.Journal)

	// held records every (switch, match) of a successor channel some table
	// has held; each must stay covered by an entry of that channel.
	type key struct {
		node  topo.NodeID
		match flowtable.Match
		prio  int
		ch    uint64
	}
	held := map[key]bool{}
	for len(stats) == 0 && f.eng.Step() {
		intent := twin
		if successor.active {
			intent = successor
		}
		for _, id := range sortedChanIDs(intent.channels) {
			for _, rr := range intent.channels[id].rules {
				if rr.entry == nil {
					continue
				}
				k := key{rr.node, rr.entry.Match, rr.entry.Priority, id}
				covered := false
				for _, e := range f.net.Switch(rr.node).Table.Conflicts(k.match, k.prio) {
					covered = covered || cookieChannel(e.Cookie) == id
				}
				if held[k] && !covered {
					t.Fatalf("loss %g seed %d: at %v %s lost channel %d's match %v", loss, seed, f.eng.Now(), f.net.Switch(rr.node).Name, id, k.match)
				}
				held[k] = held[k] || covered
			}
		}
	}
	if len(stats) == 0 {
		t.Fatalf("loss %g seed %d: no takeover", loss, seed)
	}
	if stats[0].Reinstalled == 0 || stats[0].StaleDeleted == 0 {
		t.Fatalf("loss %g seed %d: the takeover reinstalled %d rules and deleted %d stale ones; the sweep needs both",
			loss, seed, stats[0].Reinstalled, stats[0].StaleDeleted)
	}
	f.settle(time.Second)
	if len(answers) != 1 || successor.LiveChannels() != 1 || successor.channels[answers[0].ID] == nil {
		t.Fatalf("loss %g seed %d: %d answers, successor channels %v; want one answer naming the one channel",
			loss, seed, len(answers), sortedChanIDs(successor.channels))
	}
	if st, miss := f.cl.Audit(); st != 0 || miss != 0 {
		t.Fatalf("loss %g seed %d: audit stale=%d missing=%d", loss, seed, st, miss)
	}
	checkClusterReplay(t, f.cl)
}

// clusterEcho opens an echo channel from -> to over the cluster, sends
// "one." and runs 10ms so it is established and journaled. It returns the
// stream, the channel info and the echoed bytes.
func clusterEcho(t *testing.T, f *clusterFixture, from, to int) (*Stream, *ChannelInfo, *[]byte) {
	t.Helper()
	echoed := new([]byte)
	Listen(f.stacks[to], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { s.Send(b) })
	})
	client := NewClient(f.stacks[from], f.cl)
	target := f.stacks[to].Host.IP.String()
	var stream *Stream
	client.Dial(target, 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		stream = s
		s.OnData(func(b []byte) { *echoed = append(*echoed, b...) })
		s.Send([]byte("one."))
	})
	f.eng.RunFor(10 * time.Millisecond)
	info, ok := client.Channel(target)
	if !ok || stream == nil {
		t.Fatal("no channel after dial")
	}
	return stream, info, echoed
}

// TestClusterHiddenServiceSurvivesTakeover: a name registered with the
// cluster resolves on the acting controller and, through the journal, on the
// successor — a dial by nickname works before and after the active dies.
func TestClusterHiddenServiceSurvivesTakeover(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3}, ClusterConfig{})
	if err := f.cl.RegisterHiddenService("vault", f.stacks[15].Host.IP); err != nil {
		t.Fatal(err)
	}
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { s.Send(b) })
	})
	var echoed []byte
	dial := func(from int, msg string) {
		NewClient(f.stacks[from], f.cl).Dial("vault", 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("dial vault from host %d: %v", from, err)
			}
			s.OnData(func(b []byte) { echoed = append(echoed, b...) })
			s.Send([]byte(msg))
		})
	}
	dial(2, "one.")
	f.eng.RunFor(10 * time.Millisecond)
	f.net.SetCtrlHostDown(0, true)
	f.eng.RunFor(50 * time.Millisecond)
	dial(6, "two.") // served by the promoted controller
	f.settle(2 * time.Second)
	if f.cl.Takeovers() != 1 || string(echoed) != "one.two." {
		t.Fatalf("takeovers = %d, echo = %q; want 1 and \"one.two.\"", f.cl.Takeovers(), echoed)
	}
}
