package mic

import (
	"mic/internal/ctrlplane"
	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/packet"
	"mic/internal/topo"
)

// This file is the controller life: an MC is one process that crashes,
// restarts, steps down and is promoted as a whole. Deciding when — journal,
// heartbeats, leases, audit — is the Cluster's job (failover.go), which runs
// one MC per member; a standalone MC simply lives. Fabric-wide attachments
// that must exist once per controller are taken here too: the packet-in
// handler, the eviction hooks and the liveness prober.
//
// Every controller derives identical MAGA keying: keying streams hang off
// Config.Seed only, never InstanceID, so a rule computed by any controller
// is meaningful to every other controller on the fabric (and to a standby).

// own subscribes the MC to fabric events once: failures go to self-healing
// under AutoRepair, reconnects to reconcile. A dead MC hears nothing, and a
// standby acts on nothing.
func (mc *MC) own() {
	mc.Net.Notify(func(ev netsim.Event) {
		if mc.down || !mc.active {
			return
		}
		switch ev.Kind {
		case netsim.PortDown:
			if mc.Cfg.AutoRepair {
				mc.failLink(linkKey{ev.Node, ev.Port})
			}
		case netsim.SwitchDown:
			if mc.Cfg.AutoRepair {
				mc.failNode(ev.Node)
			}
		case netsim.SwitchUp:
			mc.reconnect(ev.Node)
		case netsim.Heal:
			for id := range mc.recon {
				mc.reconnect(topo.NodeID(id))
			}
		}
	})
}

// attach takes the fabric attachments that exist once per controller: the
// packet-in handler, the per-switch eviction hooks and the liveness prober.
func (mc *MC) attach() {
	mc.Net.SetController(mc)
	mc.armEviction()
	mc.startProber()
}

// startProber starts the control-plane liveness prober for silent failures
// under AutoRepair, when configured and none is running (a takeover after an
// earlier crash starts it again). A switch it declares dead fails like one
// that reported its death; one that answers again is reconnected.
func (mc *MC) startProber() {
	if mc.Cfg.AutoRepair && mc.Cfg.ProbeInterval > 0 && mc.stopProber == nil {
		mc.prober = ctrlplane.NewProber(mc.Ch, mc.Cfg.ProbeInterval)
		mc.prober.OnDown = mc.failNode
		mc.prober.OnUp = mc.reconnect
		mc.stopProber = mc.prober.Start()
	}
}

// StopProber halts the liveness prober, draining its pending engine events.
// Needed by harnesses that drive the engine with Run() to completion.
func (mc *MC) StopProber() {
	if mc.stopProber != nil {
		mc.stopProber()
		mc.stopProber = nil
	}
}

// PacketIn implements netsim.Controller: the fabric's table-miss handler. A
// dead MC hears nothing. Unmatched MF-labeled packets are partial-multicast
// decoys and die silently (the paper's "dropped at the next hop"); anything
// else is an unexpected miss.
func (mc *MC) PacketIn(sw *netsim.Switch, inPort int, p *packet.Packet) {
	if mc.down {
		return
	}
	if l, ok := p.TopMPLS(); ok && l != mc.CFLabel {
		// Under EvictIdle a miss may be an intended rule displaced by
		// capacity eviction; the MC reinstalls it (plus a packet-out),
		// turning the eviction into one controller round trip — while it is
		// active: a deposed MC stays the fabric's controller until a
		// successor attaches, and reinstalls nothing. Without EvictIdle the
		// seed semantics hold: every MF-labeled miss is a dying decoy.
		if mc.active && mc.Cfg.Admission.EvictIdle && mc.reinstallOnMiss(sw, inPort, p) {
			return
		}
		mc.DecoysDropped++
		return
	}
	mc.UnexpectedMisses++
}

// gate wraps fn so it runs only while the MC is alive in the same
// incarnation that scheduled it. Engine closures left behind by a crashed or
// deposed life (request handlers, repair retries, pass callbacks) must not
// act after a restart or step-down rebuilds the very state they captured.
func (mc *MC) gate(fn func()) func() {
	inc := mc.incarnation
	return func() {
		if !mc.down && inc == mc.incarnation {
			fn()
		}
	}
}

// gated is gate for a callback of one argument: an error, a count, a verdict.
func gated[T any](mc *MC, fn func(T)) func(T) {
	inc := mc.incarnation
	return func(v T) {
		if !mc.down && inc == mc.incarnation {
			fn(v)
		}
	}
}

// gate3 is gate for the switch-dump callback.
func (mc *MC) gate3(fn func([]*flowtable.Entry, []flowtable.GroupID, bool)) func([]*flowtable.Entry, []flowtable.GroupID, bool) {
	inc := mc.incarnation
	return func(entries []*flowtable.Entry, groups []flowtable.GroupID, ok bool) {
		if !mc.down && inc == mc.incarnation {
			fn(entries, groups, ok)
		}
	}
}

// crash kills the controller process: its southbound channel goes silent
// mid-transaction, the admission drain and the prober stop, and every
// scheduled closure from this life is disarmed. Switch state is untouched —
// installed rules keep forwarding, which is what makes failover survivable
// for in-flight flows.
func (mc *MC) crash() {
	if mc.down {
		return
	}
	mc.down, mc.active = true, false
	mc.incarnation++
	mc.drain.Stop()
	mc.Ch.Down = true
	mc.StopProber()
}

// stepDown demotes an active MC that failed to renew its mastership lease:
// planning stops (queued dials go unanswered, as a crashed life's do, and a
// Cluster sends them to the successor), journal writes stop, every closure
// the active life left on the engine is disarmed and the MC forgets what it
// planned; a later promotion rebuilds it from the journal. Unlike crash, the process stays up and the channel stays open —
// in-flight southbound messages may still land, which is exactly what the
// switch-side fencing epoch exists to reject once a successor announces
// itself.
func (mc *MC) stepDown() {
	if !mc.active {
		return
	}
	mc.active = false
	mc.incarnation++
	mc.journal = nil
	mc.drain.Stop()
	mc.resetState()
	mc.StopProber()
}

// restore rebuilds the MC from the journal, the one way a standby is filled:
// every record is applied in order, then the counters are normalized — the
// flow-ID allocator rebuilt from the journaled high-water mark minus the IDs
// live channels hold, and the channel and group counters moved past
// everything ever issued. The MC must be empty, as it is when built and
// after revive or stepDown.
func (mc *MC) restore(j *Journal) {
	for _, r := range j.Records() {
		mc.applyRecord(r)
	}
	held := make(map[uint32]bool)
	// lint:ignore detrange set-insertion only; result independent of order
	for _, st := range mc.channels {
		for _, r := range st.res {
			held[r.fwdID], held[r.revID] = true, true
		}
	}
	mc.flowIDs.restore(j.allocHigh, held)
	mc.nextChan = max(mc.nextChan, j.chanHigh, uint64(mc.Cfg.InstanceID)<<32)
	mc.nextGroup = max(mc.nextGroup, j.groupHigh)
}
