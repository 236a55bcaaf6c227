package mic

import (
	"fmt"
	"slices"

	"mic/internal/addr"
	"mic/internal/ctrlplane"
	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

// This file is the controller unit: a ShardedMC runs N >= 1 full MC
// processes over one fabric, partitioned by the initiator's access (edge)
// switch, behind a thin router that implements the same ControlPlane
// interface a single MC does. Each shard owns a disjoint slice of the
// flow-ID space, a distinct InstanceID (so channel IDs and group IDs are
// collision-free by construction — the paper's Sec VI-C "assign a unique ID
// space for each controller"), its own admission token bucket and its own
// virtual planning CPU (mc.cpuFree) — the serialized-planning bottleneck
// that sharding exists to split. Fabric-wide attachments that must exist
// exactly once — proactive common routing, the packet-in handler, the
// eviction hooks, the liveness prober — belong to the router, not the
// shards. So does the controller life: the unit is one process that
// crashes, restarts, steps down and is promoted as a whole, and every shard
// reads its liveness, mastership, generation, fence and journal here.
//
// Every shard derives identical MAGA keying: keying streams hang off
// Config.Seed only, never InstanceID, so a rule computed by any shard is
// meaningful to every other controller on the fabric (and to a standby).
//
// The unit also converges switches against what its shards intend (reconcile,
// below), and a standalone MC is the unit of one. Deciding when a unit dies,
// rejoins, steps down or is promoted — journal, heartbeats, leases, audit —
// is the Cluster's job (failover.go), which runs one unit per member; a unit
// of one shard is the degenerate case, not a separate path. Each shard
// stamps its journal records with its shard index, so the cluster's single
// log replays into N disjoint controllers.

// ShardedMC is a controller unit. It implements ControlPlane (client-facing)
// and netsim.Controller (fabric-facing).
type ShardedMC struct {
	Net *netsim.Network
	Cfg Config // base config with defaults applied (per-shard fields differ)

	shards []*MC
	// edgeShard maps an initiator's access switch to its owning shard, fixed
	// at construction in graph enumeration order.
	edgeShard map[topo.NodeID]int

	// recon is each switch's convergence state, by NodeID (reconcile).
	recon []switchRecon
	// reinstalled and staleDeleted count what the unit's passes did.
	reinstalled, staleDeleted uint64
	// Reconcile scratch, cleared on entry by unionIntent (intent,
	// groupIntent) and diff (have). What those return dies inside the call
	// or callback that reads it: a pass consumes have in its dump callback,
	// its barrier callback reads group intent at once, and the audit keeps
	// only counts.
	intent      map[reconKey]*flowtable.Entry
	groupIntent map[flowtable.GroupID]*flowtable.Group
	have        map[reconKey]bool

	// The controller life the shards serve in. down marks a crashed process:
	// requests, packet-ins and failure reactions all stop. active marks the
	// fabric's acting controller; a standby, or a revived or deposed
	// ex-active, holds no channel state and reacts to nothing until a
	// takeover rebuilds it from the journal (restore) and promotes it.
	// incarnation bumps on every crash, restart and step-down and disarms
	// the closures an earlier life left on the engine (gate).
	down, active bool
	incarnation  uint64
	// generation (the Cluster's takeover count at promotion) is folded into
	// every rule cookie, so reconciliation tells a dead life's rules from
	// this one's. fence (Cluster.fence at promotion, 0 standalone) is stamped
	// on journal records and, with fencing on, mirrored into each shard's
	// Ch.Epoch, so the store and the switches refuse a deposed master's
	// writes. journal, when non-nil, takes a record of every externally
	// visible mutation of any shard for a successor to replay (failover.go);
	// a standalone unit has none and pays nothing.
	generation uint32
	fence      uint64
	journal    *Journal

	// prober drives silent-failure detection when Cfg.ProbeInterval > 0.
	prober     *ctrlplane.Prober
	stopProber func()
}

// switchRecon is what a unit knows about converging one switch.
type switchRecon struct {
	marked bool // the switch may hold rules no shard wants
	busy   bool // a pass is out, or waits out its backoff
	tries  int  // passes failed in a row since the last trigger
}

// NewShardedMC builds n active controller shards over the fabric and
// installs the shared attachments once. n == 1 is a standalone MC (NewMC),
// the baseline arm of the s10 scale-out experiment.
func NewShardedMC(net *netsim.Network, cfg Config, n int) (*ShardedMC, error) {
	return newShardedMC(net, cfg, n, false)
}

// newShardedMC builds a unit of n shards: active ones with the router's
// fabric attachments installed, or the inert, empty passive twin a Cluster
// keeps as a standby until a takeover.
func newShardedMC(net *netsim.Network, cfg Config, n int, passive bool) (*ShardedMC, error) {
	if n < 1 {
		return nil, fmt.Errorf("mic: shard count %d must be at least 1", n)
	}
	base := cfg.withDefaults()
	lo, hi, err := base.idSpace()
	if err != nil {
		return nil, err
	}
	if (hi-lo)/uint32(n) < 2 {
		return nil, fmt.Errorf("mic: ID space [%d, %d) too small to split %d ways", lo, hi, n)
	}
	s := &ShardedMC{Net: net, Cfg: base, edgeShard: make(map[topo.NodeID]int), active: !passive}
	span := (hi - lo) / uint32(n)
	for i := 0; i < n; i++ {
		shardCfg := base
		shardCfg.InstanceID = base.InstanceID + uint32(i)
		shardCfg.IDSpace = IDRange{Lo: lo + uint32(i)*span, Hi: lo + uint32(i+1)*span}
		if i == n-1 {
			shardCfg.IDSpace.Hi = hi // the last shard absorbs the remainder
		}
		mc, err := newMC(net, shardCfg)
		if err != nil {
			return nil, err
		}
		mc.shardID = uint32(i)
		s.shards = append(s.shards, mc)
	}
	// Partition initiators by access switch: distinct edge switches in graph
	// enumeration order, round-robin over the shards — deterministic, and
	// hosts behind one edge always share a shard (plan-cache locality).
	nextShard := 0
	for _, hid := range net.Graph.Hosts() {
		sw := accessSwitch(net.Graph, hid)
		if sw < 0 {
			continue // multi-homed hosts fall to shard 0 via shardOf
		}
		if _, seen := s.edgeShard[sw]; !seen {
			s.edgeShard[sw] = nextShard
			nextShard = (nextShard + 1) % n
		}
	}
	s.own()
	if !passive {
		router := &ctrlplane.ProactiveRouter{CFLabel: s.shards[0].CFLabel}
		if _, err := router.Install(net); err != nil {
			return nil, err
		}
		s.attach()
	}
	return s, nil
}

// Shards reports the shard count.
func (s *ShardedMC) Shards() int { return len(s.shards) }

// Shard returns shard i's controller (tests and harnesses).
func (s *ShardedMC) Shard(i int) *MC { return s.shards[i] }

// shardOf maps an initiator to its owning shard: the shard of its access
// switch, or shard 0 when the host is unknown or multi-homed (the shard's
// own validation produces the proper refusal).
func (s *ShardedMC) shardOf(initiator addr.IP) int {
	h := s.Net.HostByIP(initiator)
	if h == nil {
		return 0
	}
	sw := accessSwitch(s.Net.Graph, h.ID)
	if sw < 0 {
		return 0
	}
	return s.edgeShard[sw]
}

// shardOfChannel recovers the owning shard from a channel ID: channel IDs
// carry their minting controller's InstanceID in the high 32 bits.
func (s *ShardedMC) shardOfChannel(id uint64) (int, error) {
	i := s.instanceShard(uint32(id >> 32))
	if i < 0 {
		return 0, fmt.Errorf("mic: channel %d belongs to no shard of this controller", id)
	}
	return i, nil
}

// instanceShard returns the index of the shard with the given InstanceID, or
// -1: the shards' InstanceIDs are base..base+n-1 in shard order. A channel ID
// carries its minting shard's InstanceID above bit 32, a group ID in its top
// byte.
func (s *ShardedMC) instanceShard(instance uint32) int {
	if i := instance - s.Cfg.InstanceID; i < uint32(len(s.shards)) {
		return int(i)
	}
	return -1
}

// Engine implements ControlPlane.
func (s *ShardedMC) Engine() *sim.Engine { return s.Net.Eng }

// ClientSeed implements ControlPlane.
func (s *ShardedMC) ClientSeed() uint64 { return s.Cfg.Seed }

// EstablishChannel implements ControlPlane: the dial is served entirely by
// the initiator's shard — its admission bucket, its planning CPU, its ID
// ranges.
func (s *ShardedMC) EstablishChannel(initiator addr.IP, target string, opts ChannelOptions, cb func(*ChannelInfo, error)) {
	s.shards[s.shardOf(initiator)].EstablishChannel(initiator, target, opts, cb)
}

// CloseChannel implements ControlPlane, routing by the channel ID's
// embedded InstanceID.
func (s *ShardedMC) CloseChannel(id uint64, cb func()) error {
	i, err := s.shardOfChannel(id)
	if err != nil {
		return err
	}
	return s.shards[i].CloseChannel(id, cb)
}

// SubscribeRepair implements ControlPlane: subscribers hear every shard.
func (s *ShardedMC) SubscribeRepair(fn func(RepairEvent)) {
	for _, mc := range s.shards {
		mc.SubscribeRepair(fn)
	}
}

// SubscribeChannelDown implements ControlPlane.
func (s *ShardedMC) SubscribeChannelDown(fn func(id uint64, err error)) {
	for _, mc := range s.shards {
		mc.SubscribeChannelDown(fn)
	}
}

// RegisterHiddenService registers the mapping on every shard: any shard may
// serve a dial to the name. Each shard journals its own copy, so a standby
// unit's per-shard replay rebuilds every resolver.
// lint:secret ip
func (s *ShardedMC) RegisterHiddenService(name string, ip addr.IP) error {
	for _, mc := range s.shards {
		if err := mc.RegisterHiddenService(name, ip); err != nil {
			return err
		}
	}
	return nil
}

// LiveChannels sums live channels across shards.
func (s *ShardedMC) LiveChannels() int {
	n := 0
	for _, mc := range s.shards {
		n += mc.LiveChannels()
	}
	return n
}

// attach takes the fabric attachments that exist once per unit: the
// packet-in handler, the per-switch eviction hooks, whose victims are
// attributed to shard 0's counter (the aggregate's home), and the liveness
// prober.
func (s *ShardedMC) attach() {
	s.Net.SetController(s)
	s.shards[0].armEviction()
	s.startProber()
}

// startProber starts the control-plane liveness prober for silent failures
// under AutoRepair, when configured and none is running (a takeover after an
// earlier crash starts it again). It probes over the lead shard's channel; a
// switch it declares dead fails on every shard, one that answers again is
// reconnected. Fabric failure events reach the shards through the unit's one
// subscription (own).
func (s *ShardedMC) startProber() {
	if s.Cfg.AutoRepair && s.Cfg.ProbeInterval > 0 && s.stopProber == nil {
		s.prober = ctrlplane.NewProber(s.shards[0].Ch, s.Cfg.ProbeInterval)
		s.prober.OnDown = func(id topo.NodeID) {
			for _, mc := range s.shards {
				mc.failNode(id)
			}
		}
		s.prober.OnUp = s.reconnect
		s.stopProber = s.prober.Start()
	}
}

// StopProber halts the liveness prober, draining its pending engine events.
// Needed by harnesses that drive the engine with Run() to completion.
func (s *ShardedMC) StopProber() {
	if s.stopProber != nil {
		s.stopProber()
		s.stopProber = nil
	}
}

// PacketIn implements netsim.Controller: the fabric's table-miss handler. A
// dead unit hears nothing. Unmatched MF-labeled packets are
// partial-multicast decoys and die silently (the paper's "dropped at the
// next hop"); anything else is an unexpected miss. Both are tallied on
// shard 0, the aggregate's one home.
func (s *ShardedMC) PacketIn(sw *netsim.Switch, inPort int, p *packet.Packet) {
	if s.down {
		return
	}
	home := s.shards[0]
	if l, ok := p.TopMPLS(); ok && l != home.CFLabel {
		// Under EvictIdle a miss may be an intended rule displaced by
		// capacity eviction; the shard holding the covering channel
		// reinstalls it (plus a packet-out), turning the eviction into one
		// controller round trip — while the unit is active: a deposed unit
		// stays the fabric's controller until a successor attaches, and
		// reinstalls nothing. Without EvictIdle the seed semantics hold:
		// every MF-labeled miss is a dying decoy.
		if s.active && s.Cfg.Admission.EvictIdle {
			for _, mc := range s.shards {
				if mc.reinstallOnMiss(sw, inPort, p) {
					return
				}
			}
		}
		home.DecoysDropped++
		return
	}
	home.UnexpectedMisses++
}

// gate wraps fn so it runs only while the unit is alive in the same
// incarnation that scheduled it. Engine closures left behind by a crashed or
// deposed life (request handlers, repair retries, pass callbacks) must not
// act after a restart or step-down rebuilds the very state they captured.
func (s *ShardedMC) gate(fn func()) func() {
	inc := s.incarnation
	return func() {
		if !s.down && inc == s.incarnation {
			fn()
		}
	}
}

// gated is gate for a callback of one argument: an error, a count, a verdict.
func gated[T any](s *ShardedMC, fn func(T)) func(T) {
	inc := s.incarnation
	return func(v T) {
		if !s.down && inc == s.incarnation {
			fn(v)
		}
	}
}

// gate3 is gate for the switch-dump callback.
func (s *ShardedMC) gate3(fn func([]*flowtable.Entry, []flowtable.GroupID, bool)) func([]*flowtable.Entry, []flowtable.GroupID, bool) {
	inc := s.incarnation
	return func(entries []*flowtable.Entry, groups []flowtable.GroupID, ok bool) {
		if !s.down && inc == s.incarnation {
			fn(entries, groups, ok)
		}
	}
}

// crash kills the controller process: every shard's southbound channel goes
// silent mid-transaction, the admission drains and the prober stop, and
// every scheduled closure from this life is disarmed. Switch state is
// untouched — installed rules keep forwarding, which is what makes failover
// survivable for in-flight flows.
func (s *ShardedMC) crash() {
	if s.down {
		return
	}
	s.down, s.active = true, false
	s.incarnation++
	for _, mc := range s.shards {
		mc.drain.Stop()
		mc.Ch.Down = true
	}
	s.StopProber()
}

// revive restarts a crashed controller process with empty state, every shard
// on a fresh southbound channel. The incarnation bump disarms any closure
// the previous life left on the engine. The revived unit stays passive — a
// restarted controller rejoins as a standby; only a takeover makes it
// active again.
func (s *ShardedMC) revive() {
	if !s.down {
		return
	}
	s.down = false
	s.incarnation++
	for _, mc := range s.shards {
		mc.revive(s.incarnation)
	}
}

// stepDown demotes an active unit that failed to renew its mastership lease:
// planning quiesces (queued dials are refused with ErrNotActive), journal
// writes stop, every closure the active life left on the engine is disarmed
// and the shards forget what they planned; a later promotion rebuilds them
// from the journal. Unlike crash, the process stays up and the channels stay
// open — in-flight southbound messages may still land, which is exactly what
// the switch-side fencing epoch exists to reject once a successor announces
// itself.
func (s *ShardedMC) stepDown() {
	if !s.active {
		return
	}
	s.active = false
	s.incarnation++
	s.journal = nil
	for _, mc := range s.shards {
		mc.quiesceAdmission()
		mc.drain.Stop()
		mc.resetState()
	}
	s.StopProber()
}

// restore rebuilds the unit from the journal, the one way a standby is
// filled: every record goes to the shard that minted it, then every shard
// normalizes its counters. The unit must be empty, as it is when built and
// after revive or stepDown. A record naming a shard the unit does not have
// (a differently sharded writer on the log) is refused, never folded into
// another shard's state; restore returns how many were.
func (s *ShardedMC) restore(j *Journal) (refused int) {
	for _, r := range j.Records() {
		if int(r.Shard) >= len(s.shards) {
			refused++
			continue
		}
		s.shards[r.Shard].applyRecord(r)
	}
	for _, mc := range s.shards {
		mc.finishRestore(j)
	}
	return refused
}

// unionIntent collects every shard's intended rules for one switch: the
// entries by reconciliation key and the groups by ID, what reconciliation and
// the audit diff a switch's table against. Both maps are the unit's scratch,
// valid until the next call.
func (s *ShardedMC) unionIntent(node topo.NodeID) (intent map[reconKey]*flowtable.Entry, groupIntent map[flowtable.GroupID]*flowtable.Group) {
	intent, groupIntent = clearedMap(&s.intent), clearedMap(&s.groupIntent)
	for _, mc := range s.shards {
		// lint:ignore detrange filling maps; the result is independent of order
		for _, st := range mc.channels {
			for _, rr := range st.rules {
				if rr.node != node {
					continue
				}
				if rr.entry != nil {
					intent[entryReconKey(rr.entry)] = rr.entry
				}
				if rr.group != nil {
					groupIntent[rr.group.ID] = rr.group
				}
			}
		}
	}
	return intent, groupIntent
}

// missingAt returns the mods that put back what of the shard's intent for sw
// a dump of it lacks (have, groups), channels in ID order, a group with its
// rule's entry, whose cookie orders it; n counts the rules and groups.
func (mc *MC) missingAt(sw *netsim.Switch, have map[reconKey]bool, groups []flowtable.GroupID) (mods []ctrlplane.Mod, n int) {
	for _, id := range sortedChanIDs(mc.channels) {
		for _, rr := range mc.channels[id].rules {
			if rr.node != sw.ID {
				continue
			}
			mod := ctrlplane.Mod{Switch: sw, Entry: rr.entry}
			if rr.group != nil && !slices.Contains(groups, rr.group.ID) {
				mod.Group = rr.group
				n++
			}
			if rr.entry != nil && !have[entryReconKey(rr.entry)] {
				n++
			} else if mod.Group == nil {
				continue
			}
			mods = append(mods, mod)
		}
	}
	return mods, n
}

// A switch may hold rules no shard wants — a dead controller life's, or an
// epoch's whose delete it never confirmed — and the unit's one way to
// converge it is a pass (below). Passes run on every switch at a takeover, on
// a marked switch that reconnects (SwitchUp, the prober's OnUp, a management
// heal), and on a live switch when one of the unit's deletes to it goes
// unconfirmed. A pass that fails while its switch is up is retried with the
// repair job's backoff; once the retries are spent, the mark waits for the
// next reconnect, heal or takeover.
//
// own makes s the unit of its shards and subscribes it to fabric events once:
// failures go to the shards' self-healing under AutoRepair, reconnects to
// reconcile. A dead unit hears nothing, and a standby acts on nothing.
func (s *ShardedMC) own() {
	s.recon = make([]switchRecon, len(s.Net.Graph.Nodes))
	for _, mc := range s.shards {
		mc.unit = s
	}
	s.Net.Notify(func(ev netsim.Event) {
		if s.down || !s.active {
			return
		}
		for _, mc := range s.shards {
			if ev.Kind == netsim.PortDown && s.Cfg.AutoRepair {
				mc.failLink(linkKey{ev.Node, ev.Port})
			} else if ev.Kind == netsim.SwitchDown && s.Cfg.AutoRepair {
				mc.failNode(ev.Node)
			}
		}
		switch ev.Kind {
		case netsim.SwitchUp:
			s.reconnect(ev.Node)
		case netsim.Heal:
			for id := range s.recon {
				s.reconnect(topo.NodeID(id))
			}
		}
	})
}

// reconnect converges a switch that is back in reach, if it is marked.
func (s *ShardedMC) reconnect(node topo.NodeID) {
	if s.recon[node].marked {
		s.reconcile(node)
	}
}

// reconcile marks node and converges it now, with a fresh retry budget, or
// after the pass that is out.
func (s *ShardedMC) reconcile(node topo.NodeID) {
	r := &s.recon[node]
	r.marked, r.tries = true, 0
	if !r.busy {
		s.converge(node, true, nil)
	}
}

// converge runs a pass on node if it is up and the unit active, or leaves it
// marked. With fence the pass waits until all the shards have in flight to
// the switch is resolved: a superseded batch may land after a dump, and must
// be read by it. A takeover's passes, whose channels carry only Hellos, need
// no fence and report to onDone (may be nil) once.
func (s *ShardedMC) converge(node topo.NodeID, fence bool, onDone func(reinstalled, stale int)) {
	r, sw := &s.recon[node], s.Net.Switch(node)
	if onDone == nil {
		onDone = func(int, int) {}
	}
	if sw.Down || s.down || !s.active {
		r.marked = true
		onDone(0, 0)
		return
	}
	r.busy, r.marked = true, false
	out := 1
	fenced := gated(s, func(bool) {
		if out--; out == 0 {
			s.pass(sw, func(reinstalled, stale int, ok bool) {
				onDone(reinstalled, stale)
				s.settle(node, ok)
			})
		}
	})
	for _, sh := range s.shards {
		if fence && sh.Ch.InFlight(node) > 0 {
			out++
			sh.Ch.Barrier(sw, fenced)
		}
	}
	fenced(true)
}

// settle follows a pass: a failed one leaves its switch marked and, while the
// switch is up, is retried after the repair job's backoff until its retries
// are spent; a switch marked again while the pass was out gets another now.
func (s *ShardedMC) settle(node topo.NodeID, ok bool) {
	r, lead := &s.recon[node], s.shards[0]
	r.busy, r.marked = false, r.marked || !ok
	switch {
	case !r.marked || s.Net.Switch(node).Down:
	case ok:
		s.converge(node, true, nil)
	case r.tries < lead.repairMaxRetries():
		r.tries++
		r.busy = true
		s.Net.Eng.After(lead.repairBackoff(r.tries), s.gate(func() {
			r.busy = false
			s.converge(node, true, nil)
		}))
	}
}

// pass dumps sw, diffs the dump against the union of the shards' intent and
// converges the switch. Each shard puts its channels' missing rules back and
// then deletes the stale cookies it minted, over its own southbound channel,
// so each delete applies after the reinstall of its match (one owner's
// messages apply in send order); a rule no shard minted is another
// controller's and stays. A barrier per shard closes the pass. Stale
// groups leave when the last barrier answers, re-checked against intent then:
// the barriers fenced every message that could put them back. done reports
// the counts and whether every message was confirmed.
func (s *ShardedMC) pass(sw *netsim.Switch, done func(reinstalled, stale int, ok bool)) {
	lead := s.shards[0]
	lead.Ch.DumpFlows(sw, s.gate3(func(entries []*flowtable.Entry, groups []flowtable.GroupID, ok bool) {
		if !ok {
			done(0, 0, false)
			return
		}
		have, stale, _, _ := s.diff(sw.ID, entries)
		reinstalled, staleDeleted, out := 0, 0, len(s.shards)
		inc := s.incarnation
		deleted := func(_ topo.NodeID, removed int) { // one for every stale cookie
			if !s.down && inc == s.incarnation {
				ok = ok && removed >= 0
				staleDeleted += max(removed, 0)
			}
		}
		for i, sh := range s.shards {
			mods, n := sh.missingAt(sw, have, groups)
			reinstalled += n
			sh.Ch.InstallAllResult(mods, gated(s, func(failed int) { ok = ok && failed == 0 }))
			for _, cookie := range stale {
				if s.instanceShard(uint32(cookieChannel(cookie)>>32)) == i {
					sh.Ch.DeleteByCookie(sw, cookie, deleted)
				}
			}
			sh.Ch.Barrier(sw, gated(s, func(acked bool) {
				ok = ok && acked
				if out--; out > 0 {
					return
				}
				if len(groups) > 0 {
					_, groupIntent := s.unionIntent(sw.ID)
					for _, gid := range groups {
						if groupIntent[gid] == nil && s.instanceShard(uint32(gid)>>24) >= 0 {
							sw.Table.DeleteGroup(gid)
						}
					}
				}
				s.reinstalled += uint64(reinstalled)
				s.staleDeleted += uint64(staleDeleted)
				done(reinstalled, staleDeleted, ok)
			}))
		}
	}))
}

// reconKey identifies one flow entry for reconciliation: the full match plus
// priority and cookie. Two controller lives computing the same channel from
// the same journal produce the same key; a dead life's stale epoch differs
// in the cookie and is caught.
type reconKey struct {
	match    flowtable.Match
	priority int
	cookie   uint64
}

func entryReconKey(e *flowtable.Entry) reconKey {
	return reconKey{match: e.Match, priority: e.Priority, cookie: e.Cookie}
}

// diff classifies the m-flow entries of node's table against the union of
// the shards' intent: have holds the intended ones installed, stale the
// cookies of the others in first-seen order, staleN counts those entries and
// missing the intended ones not installed. A pass and the audit read a table
// through it alike; have is the unit's scratch, valid until the next call.
func (s *ShardedMC) diff(node topo.NodeID, entries []*flowtable.Entry) (have map[reconKey]bool, stale []uint64, staleN, missing int) {
	intent, _ := s.unionIntent(node)
	have = clearedMap(&s.have)
	for _, e := range entries {
		if !mflowCookie(e.Cookie) {
			continue // common routing is generation-invariant
		}
		if k := entryReconKey(e); intent[k] != nil {
			have[k] = true
			continue
		}
		staleN++
		if !slices.Contains(stale, e.Cookie) {
			stale = append(stale, e.Cookie)
		}
	}
	return have, stale, staleN, len(intent) - len(have)
}

// clearedMap empties the scratch map *m, making it on first use, and
// returns it.
func clearedMap[K comparable, V any](m *map[K]V) map[K]V {
	if *m == nil {
		*m = make(map[K]V)
	}
	clear(*m)
	return *m
}
