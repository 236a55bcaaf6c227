package ctrlplane

import (
	"errors"
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
// mutations from a lower-epoch channel come back ErrStaleEpoch and are
// counted on both sides; the switch table is untouched.
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

	var modErr error
	old.FlowModErr(sw, &flowtable.Entry{Priority: 1}, func(err error) { modErr = err })
	eng.Run()
	if !errors.Is(modErr, ErrStaleEpoch) {
		t.Fatalf("stale FlowMod error = %v, want ErrStaleEpoch", modErr)
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
	var succErr error
	succ.FlowModErr(sw, &flowtable.Entry{Priority: 1}, func(err error) { succErr = err })
	eng.Run()
	if succErr != nil || sw.Table.Len() != 1 {
		t.Fatalf("successor write refused: err=%v len=%d", succErr, sw.Table.Len())
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

	var modErr error
	gotErr := false
	ch.FlowModErr(sw, &flowtable.Entry{Priority: 1}, func(err error) { modErr, gotErr = err, true })
	eng.Run()
	if !gotErr || !errors.Is(modErr, ErrUnacked) {
		t.Fatalf("install across a cut: gotErr=%v err=%v, want ErrUnacked", gotErr, modErr)
	}
	if sw.Table.Len() != 0 {
		t.Fatal("install crossed a cut management path")
	}

	net.SetMgmtCut(netsim.MgmtCtrl(ch.CtrlHost), netsim.MgmtSwitch(sw.ID), false)
	modErr = errors.New("unset")
	ch.FlowModErr(sw, &flowtable.Entry{Priority: 1}, func(err error) { modErr = err })
	eng.Run()
	if modErr != nil || sw.Table.Len() != 1 {
		t.Fatalf("install after heal: err=%v len=%d", modErr, sw.Table.Len())
	}
}
