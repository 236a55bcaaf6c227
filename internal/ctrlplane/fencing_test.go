package ctrlplane

import (
	"testing"

	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// TestHeartbeatRoundTrip: an unobstructed beat runs cb at the receiver after
// one latency and acks the sender after two.
func TestHeartbeatRoundTrip(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, net, ch := build(t, g)
	ch.CtrlHost = net.RegisterCtrlHost()
	peer := net.RegisterCtrlHost()

	heard, acked := false, false
	ch.Heartbeat(peer, func() { heard = true }, func(_ sim.Time, ok bool) { acked = ok })
	eng.Run()
	if !heard {
		t.Fatal("beat never reached the peer")
	}
	if !acked {
		t.Fatal("beat round trip never acked")
	}
}

// TestHeartbeatDirectionalCuts: a cut on the request leg silences the beat
// entirely (no cb, ack false); a cut on the ack leg only still delivers the
// beat but fails the renewal — the asymmetric-partition signature the lease
// protocol keys off.
func TestHeartbeatDirectionalCuts(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, net, ch := build(t, g)
	ch.CtrlHost = net.RegisterCtrlHost()
	peer := net.RegisterCtrlHost()
	me, them := netsim.MgmtCtrl(ch.CtrlHost), netsim.MgmtCtrl(peer)

	// Request leg cut: the peer hears nothing, the sender times out.
	net.SetMgmtCut(me, them, true)
	heard, acked, answered := false, false, false
	ch.Heartbeat(peer, func() { heard = true }, func(_ sim.Time, ok bool) { acked, answered = ok, true })
	eng.Run()
	if heard {
		t.Fatal("beat crossed a cut request leg")
	}
	if !answered || acked {
		t.Fatalf("answered=%v acked=%v, want a false ack from the timeout", answered, acked)
	}
	net.SetMgmtCut(me, them, false)

	// Ack leg cut: the peer hears the beat, the sender's renewal still fails.
	net.SetMgmtCut(them, me, true)
	heard, acked, answered = false, false, false
	ch.Heartbeat(peer, func() { heard = true }, func(_ sim.Time, ok bool) { acked, answered = ok, true })
	eng.Run()
	if !heard {
		t.Fatal("ack-leg cut swallowed the request leg too")
	}
	if !answered || acked {
		t.Fatalf("answered=%v acked=%v, want a false ack: the renewal must fail", answered, acked)
	}
}

// TestStaleEpochRejected: once a switch has seen a newer epoch (via Hello),
// mutations from a lower-epoch channel are refused as stale and counted on
// both sides; the switch table is untouched.
func TestStaleEpochRejected(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, net, old := build(t, g)
	sw := net.Switch(g.Switches()[0])
	old.Epoch = 1

	succ := NewChannel(net)
	succ.Epoch = 2
	okHello := false
	succ.Hello(sw, func(ok bool) { okHello = ok })
	eng.Run()
	if !okHello {
		t.Fatal("successor's Hello refused")
	}
	if sw.FenceEpoch != 2 {
		t.Fatalf("switch mark = %d, want 2", sw.FenceEpoch)
	}

	failed := -1
	installOne(old, sw, &flowtable.Entry{Priority: 1}, func(f int) { failed = f })
	eng.Run()
	if failed != 1 || old.GiveUps != 0 {
		t.Fatalf("stale install: %d mods failed, %d messages abandoned; want 1 refused, 0 abandoned", failed, old.GiveUps)
	}
	if sw.Table.Len() != 0 {
		t.Fatal("stale FlowMod mutated the table")
	}
	if old.StaleRejects != 1 {
		t.Fatalf("channel StaleRejects = %d, want 1", old.StaleRejects)
	}
	if sw.StaleRejected != 1 {
		t.Fatalf("switch StaleRejected = %d, want 1", sw.StaleRejected)
	}

	// The zombie's barrier must not pretend to prove write authority either.
	barrierOK := true
	old.Barrier(sw, func(ok bool) { barrierOK = ok })
	eng.Run()
	if barrierOK {
		t.Fatal("stale barrier reported success")
	}
	// And a current-epoch write still lands.
	failed = -1
	installOne(succ, sw, &flowtable.Entry{Priority: 1}, func(f int) { failed = f })
	eng.Run()
	if failed != 0 || sw.Table.Len() != 1 {
		t.Fatalf("successor write refused: %d mods failed, len=%d", failed, sw.Table.Len())
	}
}

// TestMgmtCutGatesSouthbound: a channel bound to a controller host loses its
// switches when the ctrl→switch direction is cut — installs go unacked, and
// heal restores them. An unbound channel (CtrlHost -1) ignores cuts.
func TestMgmtCutGatesSouthbound(t *testing.T) {
	g, _ := topo.Linear(1)
	eng, net, ch := build(t, g)
	ch.MaxRetries = 2
	ch.CtrlHost = net.RegisterCtrlHost()
	sw := net.Switch(g.Switches()[0])
	net.SetMgmtCut(netsim.MgmtCtrl(ch.CtrlHost), netsim.MgmtSwitch(sw.ID), true)

	failed := -1
	installOne(ch, sw, &flowtable.Entry{Priority: 1}, func(f int) { failed = f })
	eng.Run()
	if failed != 1 || ch.GiveUps != 1 || ch.StaleRejects != 0 {
		t.Fatalf("install across a cut: %d mods failed, %d messages abandoned, %d refused; want it abandoned unacknowledged",
			failed, ch.GiveUps, ch.StaleRejects)
	}
	if sw.Table.Len() != 0 {
		t.Fatal("install crossed a cut management path")
	}

	net.SetMgmtCut(netsim.MgmtCtrl(ch.CtrlHost), netsim.MgmtSwitch(sw.ID), false)
	failed = -1
	installOne(ch, sw, &flowtable.Entry{Priority: 1}, func(f int) { failed = f })
	eng.Run()
	if failed != 0 || sw.Table.Len() != 1 {
		t.Fatalf("install after heal: %d mods failed, len=%d", failed, sw.Table.Len())
	}
}
