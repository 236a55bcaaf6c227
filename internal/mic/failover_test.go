package mic

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// clusterFixture is the failover-test testbed: a fat-tree fabric run by a
// mic.Cluster (active + standby) instead of a standalone MC.
type clusterFixture struct {
	eng    *sim.Engine
	net    *netsim.Network
	cl     *Cluster
	stacks []*transport.Stack
	graph  *topo.Graph
}

func newClusterFixture(t testing.TB, cfg Config, ccfg ClusterConfig) *clusterFixture {
	t.Helper()
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{PoolDebug: true})
	cl, err := NewCluster(net, cfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &clusterFixture{eng: eng, net: net, cl: cl, graph: g}
	for _, hid := range g.Hosts() {
		f.stacks = append(f.stacks, transport.NewStack(net.Host(hid)))
	}
	return f
}

// settle drives the engine to the deadline, cancels the cluster's perpetual
// tickers, and drains what remains.
func (f *clusterFixture) settle(deadline time.Duration) {
	f.eng.RunUntil(sim.Time(deadline))
	f.cl.Stop()
	f.eng.Run()
}

// clusterTransfer runs one from->to transfer of data over the cluster and
// returns the received bytes and the wall time from first to last byte.
// killAt > 0 crashes controller host 0 at that virtual time.
func clusterTransfer(t *testing.T, f *clusterFixture, data []byte, killAt, deadline time.Duration) ([]byte, time.Duration) {
	t.Helper()
	var got []byte
	var start, end sim.Time
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) {
			got = append(got, b...)
			if len(got) >= len(data) {
				end = f.eng.Now()
			}
		})
	})
	client := NewClient(f.stacks[0], f.cl)
	client.Dial(f.stacks[15].Host.IP.String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		start = f.eng.Now()
		s.Send(data)
	})
	if killAt > 0 {
		f.eng.After(killAt, func() { f.net.SetCtrlHostDown(0, true) })
	}
	f.settle(deadline)
	return got, time.Duration(end - start)
}

// TestFailoverTransfer64MB is the acceptance bar for the failover layer: a
// 64 MB transfer is mid-flight when the active controller is killed; the
// standby must detect the death, replay the journal, reconcile the switches
// and keep self-healing armed — while the transfer completes with correct
// bytes and a goodput dip bounded by the blackout window, because installed
// rules keep forwarding while the control plane is headless.
func TestFailoverTransfer64MB(t *testing.T) {
	if testing.Short() {
		t.Skip("64 MB transfer")
	}
	data := pattern(64 << 20)

	// Baseline: same cluster, no kill.
	base := newClusterFixture(t, Config{MNs: 3, MFlows: 2, AutoRepair: true}, ClusterConfig{})
	gotBase, wallBase := clusterTransfer(t, base, data, 0, 5*time.Second)
	if !bytes.Equal(gotBase, data) {
		t.Fatalf("baseline transfer broken: %d/%d bytes", len(gotBase), len(data))
	}

	// Kill the active 20ms in — well before the ~500ms the transfer needs.
	f := newClusterFixture(t, Config{MNs: 3, MFlows: 2, AutoRepair: true}, ClusterConfig{})
	got, wall := clusterTransfer(t, f, data, 20*time.Millisecond, 5*time.Second)
	if !bytes.Equal(got, data) {
		t.Fatalf("transfer through controller kill broken: %d/%d bytes", len(got), len(data))
	}
	if n := f.cl.Takeovers(); n != 1 {
		t.Fatalf("takeovers = %d, want 1", n)
	}
	if f.cl.ActiveIndex() != 1 {
		t.Fatalf("active member = %d, want 1 (the standby)", f.cl.ActiveIndex())
	}
	if stale, missing := f.cl.Audit(); stale != 0 || missing != 0 {
		t.Fatalf("post-takeover flow-table audit: stale=%d missing=%d, want 0/0", stale, missing)
	}
	checkClusterReplay(t, f.cl)
	// The dip bound: the blackout is ~HeartbeatMisses*HeartbeatInterval plus
	// reconciliation, single-digit milliseconds. Anything beyond 250ms of
	// extra wall time means forwarding actually stopped.
	if dip := wall - wallBase; dip > 250*time.Millisecond {
		t.Fatalf("goodput dip too large: wall %v vs baseline %v", wall, wallBase)
	}
}

// TestTakeoverReconciliationCleansStaleRules kills the active mid-repair:
// the new rule epoch is journaled (and partly installed) but the old
// epoch's purge dies with the controller. The promoted standby must find
// the dead life's leftovers by cookie and delete them, and the differential
// audit must come back clean.
func TestTakeoverReconciliationCleansStaleRules(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3, MFlows: 2, AutoRepair: true}, ClusterConfig{})
	data := pattern(2 << 20)
	var stats []TakeoverStats
	f.cl.OnTakeover = func(ts TakeoverStats) { stats = append(stats, ts) }

	var got []byte
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { got = append(got, b...) })
	})
	client := NewClient(f.stacks[0], f.cl)
	target := f.stacks[15].Host.IP.String()
	client.Dial(target, 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Send(data)
	})
	f.eng.RunFor(6 * time.Millisecond)
	info, ok := client.Channel(target)
	if !ok {
		t.Fatal("no channel after dial")
	}
	// Cut a link on the first m-flow's path; the active starts repairing.
	// One millisecond later — after the new epoch's installs are in flight
	// but before the old epoch's purge completes — the process dies.
	cutFirstInterSwitchLink(t, &fixture{eng: f.eng, net: f.net, graph: f.graph}, info.Flows[0].Path)
	f.eng.After(time.Millisecond, func() { f.net.SetCtrlHostDown(0, true) })
	f.settle(10 * time.Second)

	if !bytes.Equal(got, data) {
		t.Fatalf("transfer broken: %d/%d bytes", len(got), len(data))
	}
	if len(stats) != 1 {
		t.Fatalf("takeovers = %d, want 1", len(stats))
	}
	if stats[0].StaleDeleted == 0 {
		t.Fatal("reconciliation deleted no stale rules; the mid-repair kill left none behind and the test is vacuous")
	}
	if stats[0].Channels == 0 {
		t.Fatal("takeover rebuilt no channels from the journal")
	}
	if stale, missing := f.cl.Audit(); stale != 0 || missing != 0 {
		t.Fatalf("post-takeover audit: stale=%d missing=%d, want 0/0", stale, missing)
	}
	checkClusterReplay(t, f.cl)
}

// TestReconciliationOffLeavesStaleRules is the ablation arm:
// DisableReconcile skips the takeover dump-and-diff, so the same
// mid-repair kill leaves the dead life's rules on the switches — visible
// as a non-zero stale count in the audit. This is the experiment's control
// group and proves the audit can actually fail.
func TestReconciliationOffLeavesStaleRules(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3, MFlows: 2, AutoRepair: true},
		ClusterConfig{DisableReconcile: true})
	data := pattern(1 << 20)
	var got []byte
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { got = append(got, b...) })
	})
	client := NewClient(f.stacks[0], f.cl)
	target := f.stacks[15].Host.IP.String()
	client.Dial(target, 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Send(data)
	})
	f.eng.RunFor(6 * time.Millisecond)
	info, _ := client.Channel(target)
	cutFirstInterSwitchLink(t, &fixture{eng: f.eng, net: f.net, graph: f.graph}, info.Flows[0].Path)
	f.eng.After(time.Millisecond, func() { f.net.SetCtrlHostDown(0, true) })
	f.settle(10 * time.Second)

	if f.cl.Takeovers() != 1 {
		t.Fatalf("takeovers = %d, want 1", f.cl.Takeovers())
	}
	if stale, _ := f.cl.Audit(); stale == 0 {
		t.Fatal("reconciliation-off takeover left no stale rules; the ablation shows nothing")
	}
}

// TestRequestRetriesAcrossBlackout dials while the cluster is headless: the
// request waits for the standby's promotion, which sends it, then succeeds
// with zero manual intervention.
func TestRequestRetriesAcrossBlackout(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3}, ClusterConfig{})
	f.net.SetCtrlHostDown(0, true) // blackout before anyone dials
	var echoed []byte
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { s.Send(b) })
	})
	client := NewClient(f.stacks[0], f.cl)
	dialed := false
	client.Dial(f.stacks[15].Host.IP.String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial during blackout: %v", err)
		}
		dialed = true
		s.OnData(func(b []byte) { echoed = append(echoed, b...) })
		s.Send([]byte("survived the blackout"))
	})
	f.settle(5 * time.Second)
	if !dialed {
		t.Fatal("dial callback never fired")
	}
	if string(echoed) != "survived the blackout" {
		t.Fatalf("echo = %q", echoed)
	}
	if f.cl.Telemetry().Get("request_retries") == 0 {
		t.Fatal("request served with no retries; the blackout never exercised the retry path")
	}
	if f.cl.Takeovers() != 1 {
		t.Fatalf("takeovers = %d, want 1", f.cl.Takeovers())
	}
}

// TestIdleCloseRetriedAcrossBlackout: the idle notifier closes a channel
// while the cluster is headless. The close is refused with ErrNotActive and
// the client keeps the channel cached, so a tick after the takeover closes
// it at the successor, which then holds no channel.
func TestIdleCloseRetriedAcrossBlackout(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3}, ClusterConfig{})
	Listen(f.stacks[15], 80, false, func(*Stream) {})
	client := NewClient(f.stacks[2], f.cl)
	target := f.stacks[15].Host.IP.String()
	client.Dial(target, 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Close()
	})
	f.eng.RunFor(10 * time.Millisecond)
	info, ok := client.Channel(target)
	if !ok {
		t.Fatal("no channel after the dial")
	}
	f.net.SetCtrlHostDown(0, true)
	if err := f.cl.CloseChannel(info.ID, nil); !errors.Is(err, ErrNotActive) {
		t.Fatalf("close during the blackout: %v, want ErrNotActive", err)
	}
	var takeoverAt sim.Time
	f.cl.OnTakeover = func(ts TakeoverStats) { takeoverAt = ts.At }
	stop := client.StartIdleNotifier(time.Millisecond)
	f.eng.RunFor(time.Millisecond)
	if _, ok := client.Channel(target); !ok {
		t.Fatal("a close refused during the blackout dropped the channel from the client's cache")
	}
	f.eng.RunUntil(sim.Time(200 * time.Millisecond))
	stop()
	f.settle(300 * time.Millisecond)
	if takeoverAt == 0 {
		t.Fatal("no takeover")
	}
	if _, ok := client.Channel(target); ok {
		t.Fatal("the client still caches the channel after the takeover")
	}
	if n := f.cl.ActiveMC().LiveChannels(); n != 0 {
		t.Fatalf("the successor holds %d channels, want 0: the idle close was lost in the blackout", n)
	}
	checkClusterReplay(t, f.cl)
}

// TestRestartedControllerRejoinsAndTakesOverAgain runs two failovers: the
// primary dies and the standby takes over; the primary restarts, rebuilds
// by journal replay and rejoins as a standby; then the acting controller
// dies too and the rejoined ex-primary must win the second takeover — with
// the original channel still working end to end.
func TestRestartedControllerRejoinsAndTakesOverAgain(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3, AutoRepair: true}, ClusterConfig{})
	var echoed []byte
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { s.Send(b) })
	})
	client := NewClient(f.stacks[0], f.cl)
	var stream *Stream
	client.Dial(f.stacks[15].Host.IP.String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		stream = s
		s.OnData(func(b []byte) { echoed = append(echoed, b...) })
		s.Send([]byte("one."))
	})
	f.eng.RunFor(10 * time.Millisecond)

	f.net.SetCtrlHostDown(0, true) // first failover
	f.eng.RunFor(50 * time.Millisecond)
	if f.cl.ActiveIndex() != 1 {
		t.Fatalf("after first kill: active = %d, want 1", f.cl.ActiveIndex())
	}
	f.net.SetCtrlHostDown(0, false) // primary rejoins as standby
	f.eng.RunFor(50 * time.Millisecond)

	f.net.SetCtrlHostDown(1, true) // second failover
	f.eng.RunFor(50 * time.Millisecond)
	if f.cl.ActiveIndex() != 0 {
		t.Fatalf("after second kill: active = %d, want 0 (the rejoined ex-primary)", f.cl.ActiveIndex())
	}
	if f.cl.Takeovers() != 2 {
		t.Fatalf("takeovers = %d, want 2", f.cl.Takeovers())
	}
	stream.Send([]byte("two."))
	f.settle(2 * time.Second)
	if string(echoed) != "one.two." {
		t.Fatalf("echo across two failovers = %q, want \"one.two.\"", echoed)
	}
	if stale, missing := f.cl.Audit(); stale != 0 || missing != 0 {
		t.Fatalf("audit after two failovers: stale=%d missing=%d", stale, missing)
	}
	checkClusterReplay(t, f.cl)
	// The second active's channel bookkeeping came entirely from journal
	// replay on a process that had crashed and restarted — its rebuilt
	// channel count must match reality.
	if n := f.cl.ActiveMC().LiveChannels(); n != 1 {
		t.Fatalf("rebuilt live channels = %d, want 1", n)
	}
}

// TestClusterReportIsDeterministic replays the same controller-kill run
// twice at a fixed seed and asserts identical takeover statistics and
// counter state — the journal replay, heartbeat schedule and
// reconciliation must consume no nondeterminism.
func TestClusterReportIsDeterministic(t *testing.T) {
	run := func() (TakeoverStats, string) {
		f := newClusterFixture(t, Config{MNs: 3, MFlows: 2, AutoRepair: true, Seed: 11}, ClusterConfig{})
		var ts TakeoverStats
		f.cl.OnTakeover = func(s TakeoverStats) { ts = s }
		var got []byte
		data := pattern(1 << 20)
		Listen(f.stacks[12], 80, false, func(s *Stream) {
			s.OnData(func(b []byte) { got = append(got, b...) })
		})
		client := NewClient(f.stacks[3], f.cl)
		client.Dial(f.stacks[12].Host.IP.String(), 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			s.Send(data)
		})
		f.eng.After(2*time.Millisecond, func() { f.net.SetCtrlHostDown(0, true) })
		f.settle(5 * time.Second)
		if !bytes.Equal(got, data) {
			t.Fatalf("transfer broken: %d/%d", len(got), len(data))
		}
		return ts, f.cl.Telemetry().String()
	}
	ts1, rep1 := run()
	ts2, rep2 := run()
	if ts1 != ts2 {
		t.Fatalf("takeover stats differ across identical runs:\n  %+v\n  %+v", ts1, ts2)
	}
	if rep1 != rep2 {
		t.Fatalf("telemetry differs across identical runs:\n%s\nvs:\n%s", rep1, rep2)
	}
}
