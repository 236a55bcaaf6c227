// Package ctrlplane models the SDN southbound interface: rule installs (the
// FlowMods and GroupMods of one switch and cookie, in one message), deletes,
// PacketOut, Barrier and Echo messages carried over a latency-modeled secure
// channel between the controller and each switch. The paper assumes this
// channel is secure (Sec III-D); we model its delay, message count and —
// because a self-healing controller must survive a degraded management
// network — per-message loss with acknowledgement, timeout and retransmit.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package ctrlplane

import (
	"errors"
	"fmt"
	"time"

	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

// ErrUnacked names the failure of a message that exhausted its retry budget
// with no acknowledgement — the controller cannot know whether the rule
// landed. Distinct from a negative acknowledgement like
// flowtable.ErrTableFull, where the switch answered and refused. Nothing in
// this module returns it (an install reports a count of failed mods); the
// benchmark's dial classifier still names it.
var ErrUnacked = errors.New("ctrlplane: message unacknowledged after retries")

// A rule cookie is, low bits to high, its owner's ID (40 bits), repair epoch
// (16) and the generation of the controller life that built it (8). Its
// owner is the cookie with the epoch masked out (OpenFlow's cookie_mask).
const (
	cookieEpochShift        = 40
	cookieEpochMask  uint64 = 0xffff << cookieEpochShift
)

// RuleCookie returns the cookie of owner id's rules of one epoch, built by
// controller generation gen.
func RuleCookie(id uint64, epoch, gen uint32) uint64 {
	return id | uint64(epoch)<<cookieEpochShift&cookieEpochMask | uint64(gen&0xff)<<56
}

// cookieOwner returns the owner a cookie names; 0 names none.
func cookieOwner(cookie uint64) uint64 { return cookie &^ cookieEpochMask }

// Channel is the controller's handle to the fabric's switches.
//
// Reliability model: every state-changing message (install, delete,
// Barrier) is acknowledged by the switch. Either direction may lose a
// message with probability LossRate; an unacknowledged message is
// retransmitted after a capped exponential backoff, up to MaxRetries times,
// and then abandoned (counted in GiveUps and per-switch in Failed). All
// message applications are idempotent, so a retransmit after a lost
// acknowledgement is harmless — OpenFlow's own semantics for overlapping
// FlowMods.
//
// Ordering: on one switch, messages carrying rules of the same owner apply
// in send order. An install or DeleteByCookie is held back while an earlier
// message to its switch of its owner is unresolved, and sent when the last
// of those resolves, after which none of them lands again. Two deletes
// commute, and so do two installs of one cookie (one epoch's rules never
// share a match): those pairs are not ordered. Other owners' messages never
// wait. An install message carries one cookie's rules, so this holds for
// every rule it carries.
type Channel struct {
	Eng *sim.Engine
	Net *netsim.Network

	// LossRate drops each control message direction independently with this
	// probability (0 = perfectly reliable, the seed behaviour). The coin is
	// the channel's own stream of the network's seed.
	LossRate float64

	// MaxRetries bounds retransmissions per message (attempts = 1+MaxRetries).
	// Zero means DefaultMaxRetries; negative disables retries entirely.
	MaxRetries int

	// Down marks the channel's controller endpoint as crashed: nothing is
	// sent, pending retransmit loops stop, and no callbacks fire. A failover
	// layer sets it when the controller host dies; a restarted controller
	// opens a fresh Channel rather than reviving a dead one, because events
	// scheduled by the old incarnation still reference the old object.
	Down bool

	// CtrlHost binds the channel to a controller-host index on the
	// management network; messages then honor directional partition cuts
	// (netsim.SetMgmtCut) between that host and each switch. -1 (the
	// NewChannel default) leaves the channel unbound: standalone controllers
	// are never partitioned away.
	CtrlHost int

	// Epoch is stamped on every state-mutating southbound message (install,
	// delete, Barrier, PacketOut). Switches persist the highest epoch seen
	// and refuse lower ones (netsim.Switch.AcceptFenced), so a deposed
	// master's writes die at the switch even if it never noticed losing
	// mastership. 0 means unfenced (standalone controllers).
	Epoch uint64

	// Counters for control-plane overhead and reliability experiments.
	FlowMods     uint64 // entries sent, whatever message carried them
	GroupMods    uint64 // groups sent with them
	PacketOuts   uint64
	Deletes      uint64
	Barriers     uint64
	Echoes       uint64
	Heartbeats   uint64 // controller-to-controller liveness beats sent
	Dumps        uint64 // flow-table dump (stats request) messages
	Retransmits  uint64 // attempts beyond the first
	Timeouts     uint64 // ack timers that expired
	GiveUps      uint64 // messages abandoned after MaxRetries
	Acked        uint64 // messages positively acknowledged
	TableFulls   uint64 // entries the switch refused with a table-full reply
	StaleRejects uint64 // mutations the switch refused for a stale fencing epoch
	Hellos       uint64 // epoch-announcement handshakes sent
	Batches      uint64 // install messages sent, one per switch and cookie of an install
	BatchedMods  uint64 // entries and groups carried inside them

	lossRNG *sim.RNG  // named for the channel's number on Net
	sw      []swState // per-switch transaction state, indexed by NodeID

	// Free lists of the pooled delivery and install records (message.go)
	// and of the echo and heartbeat records.
	msgFree   []*msg
	instFree  []*install
	probeFree []*probe
}

// swState is the channel's transaction window toward one switch: an ordered
// one, so that a barrier can tell the messages issued before it from those
// issued after (Channel.Barrier).
type swState struct {
	seq      uint64     // sequence number of the last message issued
	inflight int        // messages issued and not yet acknowledged or abandoned
	failed   uint64     // abandoned messages
	owned    []ownedMsg // messages carrying rules, sent and unresolved, in no order
	waiters  []*msg     // barriers and held messages not yet sent, in issue order
}

// ownedMsg is what ordering reads of a sent message carrying rules, kept in
// the window itself so that a scan of it reads no message record.
type ownedMsg struct {
	seq    uint64
	cookie uint64
	del    bool
}

// The southbound channel's calibration (EXPERIMENTS.md "Calibration
// constants"). No experiment varies them.
const (
	// Latency is the one-way control-channel delay per message: one Ryu
	// (Python) FlowMod round over the management network.
	Latency = 500 * time.Microsecond
	// AckTimeout is how long an attempt waits for its acknowledgement before
	// retransmitting: two round trips, so a healthy channel never
	// spuriously retransmits.
	AckTimeout = 4 * Latency
	// MaxBackoff caps the exponential growth of the retransmit timer. Like
	// every wait it exceeds the round trip an acknowledgement needs — the
	// ordering (arrival, acknowledgement, then timer) message records rely
	// on.
	MaxBackoff = 16 * AckTimeout
	// DefaultMaxRetries is the retransmission budget per message.
	DefaultMaxRetries = 10
)

// NewChannel returns a channel bound to the network with a perfectly
// reliable transport (LossRate 0).
func NewChannel(net *netsim.Network) *Channel {
	return &Channel{
		Eng:      net.Eng,
		Net:      net,
		CtrlHost: -1,
		lossRNG:  net.Stream(fmt.Sprintf("southbound-loss/%d", net.RegisterChannel())),
		sw:       make([]swState, len(net.Graph.Nodes)),
	}
}

// home is this channel's controller host as a management endpoint.
func (c *Channel) home() netsim.MgmtEnd { return netsim.MgmtCtrl(c.CtrlHost) }

// reaches reports whether a message from one management endpoint currently
// gets through to another (partition cuts only; the liveness of either end
// is judged separately). An unbound channel is never cut off.
func (c *Channel) reaches(from, to netsim.MgmtEnd) bool {
	return c.CtrlHost < 0 || c.Net.MgmtReachable(from, to)
}

// attempts returns the total send attempts allowed per message.
func (c *Channel) attempts() int {
	switch {
	case c.MaxRetries < 0:
		return 1
	case c.MaxRetries == 0:
		return 1 + DefaultMaxRetries
	}
	return 1 + c.MaxRetries
}

// lost flips the loss coin for one message direction.
func (c *Channel) lost() bool { return c.LossRate > 0 && c.lossRNG.Float64() < c.LossRate }

// InFlight reports how many messages to switch id are issued but not yet
// acknowledged or abandoned — the controller's per-switch transaction
// window, held messages included and waiting barriers not.
func (c *Channel) InFlight(id topo.NodeID) int { return c.sw[id].inflight }

// Failed reports how many messages to switch id were abandoned after
// exhausting retransmissions — rules the controller must assume never
// landed.
// lint:ignore unused test oracle: the MC fuzz invariant excuses the switches a channel gave up on
func (c *Channel) Failed(id topo.NodeID) uint64 { return c.sw[id].failed }

// DeleteByCookie removes all entries with the cookie from sw; onDone (may
// be nil) receives sw's ID and the removal count after the acknowledgement
// returns, or -1 if the switch never acknowledged (the controller must assume
// the rules are still installed). Naming the switch lets one function serve
// a delete sent to many. It applies after every earlier install of the
// cookie's owner to sw, so none of them puts a rule back once it is answered.
func (c *Channel) DeleteByCookie(sw *netsim.Switch, cookie uint64, onDone func(node topo.NodeID, removed int)) {
	c.Deletes++
	m := c.newMsg(msgDelete, sw)
	m.cookie, m.n, m.onCount = cookie, -1, onDone
	c.issue(m)
}

// PacketOut injects p at sw with the given actions after control latency.
// Packet-outs are fire-and-forget (as in OpenFlow): they are subject to
// loss but never retransmitted.
func (c *Channel) PacketOut(sw *netsim.Switch, actions []flowtable.Action, p *packet.Packet) {
	if c.Down {
		return
	}
	c.PacketOuts++
	if c.lost() {
		return
	}
	c.Eng.After(Latency, func() {
		if sw.Down || !c.reaches(c.home(), netsim.MgmtSwitch(sw.ID)) {
			return
		}
		if !sw.AcceptFenced(c.Epoch) {
			c.StaleRejects++
			return
		}
		sw.Execute(actions, -1, p)
	})
}

// Barrier completes after every message issued to sw before the barrier has
// been acknowledged or abandoned, plus one reliable round trip of its own —
// the OFPT_BARRIER_REQUEST/REPLY semantics this package's doc promises. It
// orders against earlier messages only, earlier barriers on the wire and
// messages still held behind their owner's included: nothing issued to sw
// after the barrier can delay it, so a switch under steady traffic of other
// owners still answers a barrier two round trips after the call at the latest
// (lossless). A barrier that is itself still waiting has sent nothing and
// fences nothing; two barriers waiting on the same messages leave together.
// onDone reports whether the barrier itself was acknowledged and accepted;
// a stale-epoch refusal reads as failure, so a fenced-off master cannot
// mistake its barriers for proof of write authority.
func (c *Channel) Barrier(sw *netsim.Switch, onDone func(ok bool)) {
	m := c.newMsg(msgBarrier, sw)
	m.onOK = onDone
	c.barrier(m)
}

// Echo sends one liveness probe to sw: a single unretransmitted round trip
// on the pooled record Heartbeat uses. cb receives the probe's send time and
// true if the reply arrives within the ack timeout, false otherwise. A false
// reading can be loss, not death — callers (the Prober) must debounce.
func (c *Channel) Echo(sw *netsim.Switch, cb func(sent sim.Time, alive bool)) {
	if c.Down {
		return
	}
	c.Echoes++
	c.sendProbe(netsim.MgmtSwitch(sw.ID), nil, cb)
}

// Heartbeat sends one controller-to-controller liveness beat over the
// management network to the controller host at index `to`: a single
// unretransmitted round trip, subject to the channel's loss model and to
// directional partition cuts between the two hosts. cb runs at the receiver
// after one control latency if the beat survives; ack (may be nil) runs at
// the sender with the beat's send time and true when the receiver's
// acknowledgement returns, or false after the ack timeout — the
// lease-renewal signal. A crashed sender (Down) emits nothing and hears
// nothing — which is precisely the signal a standby watches for. A caller
// passing callbacks it bound once sends beats without allocating.
func (c *Channel) Heartbeat(to int, cb func(), ack func(sent sim.Time, ok bool)) {
	if c.Down {
		return
	}
	c.Heartbeats++
	c.sendProbe(netsim.MgmtCtrl(to), cb, ack)
}

// sendProbe sends one probe to far, a switch or a controller host, on a
// record from the free list.
func (c *Channel) sendProbe(far netsim.MgmtEnd, onHeard func(), onAck func(sent sim.Time, ok bool)) {
	var r *probe
	if last := len(c.probeFree) - 1; last >= 0 {
		r = c.probeFree[last]
		c.probeFree = c.probeFree[:last]
	} else {
		r = &probe{ch: c}
		r.arriveFn, r.ackFn = r.arrive, r.acked
		r.timer.Bind(c.Eng, r.timeout)
	}
	r.far, r.sent, r.onHeard, r.onAck = far, c.Eng.Now(), onHeard, onAck
	r.reqLost = c.lost()
	c.Eng.After(Latency, r.arriveFn)
	r.timer.Reset(AckTimeout)
}

// probe is one echo or heartbeat in flight, pooled like msg and released
// the same way: its arrival and acknowledgement fire within one round trip,
// before its ack timer, so it returns to the channel's free list as soon as
// it is answered (the timer stopped), or when the timer fires.
type probe struct {
	ch              *Channel
	arriveFn, ackFn func()
	timer           sim.Timer
	probeState
}

// probeState is what one use of a probe record carries; finish zeroes it.
type probeState struct {
	far              netsim.MgmtEnd // the switch echoed, or the controller host beaten to
	sent             sim.Time
	reqLost, ackLost bool
	onHeard          func() // at the receiver; heartbeats only
	onAck            func(sent sim.Time, ok bool)
}

// farDown reports whether the probed end is down: a dead switch or a
// crashed controller host neither hears nor answers.
func (r *probe) farDown() bool {
	if r.far.Ctrl >= 0 {
		return r.ch.Net.CtrlHostDown(r.far.Ctrl)
	}
	return r.ch.Net.Switch(r.far.Node).Down
}

func (r *probe) arrive() {
	c := r.ch
	if r.reqLost || r.farDown() || !c.reaches(c.home(), r.far) {
		return
	}
	if r.onHeard != nil {
		r.onHeard()
	}
	r.ackLost = c.lost()
	c.Eng.After(Latency, r.ackFn)
}

func (r *probe) acked() {
	c := r.ch
	if r.ackLost || c.Down || !c.reaches(r.far, c.home()) {
		return
	}
	r.timer.Stop()
	r.finish(true)
}

func (r *probe) timeout() { r.finish(false) }

// finish releases r and reports the outcome, unless the sender has died.
func (r *probe) finish(ok bool) {
	c, sent, onAck := r.ch, r.sent, r.onAck
	r.probeState = probeState{}
	c.probeFree = append(c.probeFree, r)
	if !c.Down && onAck != nil {
		onAck(sent, ok)
	}
}

// Hello announces the channel's fencing epoch to sw: the first message a
// newly promoted master sends, carried reliably, so the switch's epoch
// high-water mark rises before any reconciliation traffic arrives and every
// straggling write from the deposed master is rejected. onDone reports
// whether the switch acknowledged and accepted the epoch.
func (c *Channel) Hello(sw *netsim.Switch, onDone func(ok bool)) {
	c.Hellos++
	m := c.newMsg(msgHello, sw)
	m.onOK = onDone
	c.issue(m)
}

// DumpFlows requests sw's full flow-table state — the OFPMP_FLOW +
// OFPMP_GROUP stats multipart a controller issues when reconciling after
// failover. It is carried reliably like an install; onDone receives a
// snapshot of the installed entries (shared pointers, read-only by
// convention) and the installed group IDs in ascending order, or ok=false
// if the switch never answered within the retry budget.
func (c *Channel) DumpFlows(sw *netsim.Switch, onDone func(entries []*flowtable.Entry, groups []flowtable.GroupID, ok bool)) {
	c.Dumps++
	m := c.newMsg(msgDump, sw)
	m.onDump = onDone
	c.issue(m)
}

// Install writes mods to their switches, all at once: one message per switch
// and rule cookie, carrying that cookie's entries addressed to the switch and
// the groups sent with them, applied in order on a single delivery. onAll
// (may be nil) receives the number of modifications that failed once every
// message has resolved — one round trip for a whole m-flow path, keeping
// route setup time flat in route length (Fig 7). A table-full refusal counts
// per entry; a message refused for a stale epoch, or abandoned after
// retries, counts every modification it carried. Each message is ordered as
// a rule of its cookie, so a later delete of that cookie's owner applies
// after it. The messages read mods until they resolve: the caller must leave
// the slice untouched until onAll fires, and may reuse it then.
func (c *Channel) Install(mods []Mod, onAll func(failed int)) { c.install(mods, onAll, false) }

// InstallBatched is Install with each switch's messages closed by one
// Barrier, and onAll called when the last barrier completes: a dial's
// one-cookie install costs one message plus one barrier per switch touched,
// and one extra round trip (the barrier) on the setup's critical path.
func (c *Channel) InstallBatched(mods []Mod, onAll func(failed int)) { c.install(mods, onAll, true) }

// install sends mods switch by switch, in the order each switch and each of
// its cookies first appears, and with fence closes each switch with a
// barrier.
func (c *Channel) install(mods []Mod, onAll func(failed int), fence bool) {
	if len(mods) == 0 {
		if onAll != nil {
			c.Eng.After(0, func() { onAll(0) })
		}
		return
	}
	inst := c.newInstall(onAll, fence)
	for i := range mods {
		sw := mods[i].Switch
		if modsAddress(mods[:i], sw, 0, true) {
			continue // sent with its switch's first mod
		}
		for j := i; j < len(mods); j++ {
			if m := mods[j]; m.Switch == sw && !modsAddress(mods[i:j], sw, m.Entry.Cookie, false) {
				c.sendInstall(mods[j:], inst)
			}
		}
		if fence {
			// The barrier completes only after the switch's messages (and
			// anything else already in flight to it) resolve, so inst.failed
			// is final when the last barrier fires. An unacknowledged barrier
			// adds nothing: the messages' own resolution classified their mods.
			inst.remaining++
			bar := c.newMsg(msgBarrier, sw)
			bar.inst = inst
			c.barrier(bar)
		}
	}
}

// sendInstall sends one install message: mods[0] and every later mod
// addressed to its switch with its cookie.
func (c *Channel) sendInstall(mods []Mod, inst *install) {
	sw, cookie := mods[0].Switch, mods[0].Entry.Cookie
	nmods := 0
	for _, m := range mods {
		if m.Switch != sw || m.Entry.Cookie != cookie {
			continue
		}
		if m.Group != nil {
			c.GroupMods++
			nmods++
		}
		c.FlowMods++
		nmods++
	}
	c.Batches++
	c.BatchedMods += uint64(nmods)
	if !inst.fenced {
		inst.remaining++
	}
	m := c.newMsg(msgInstall, sw)
	m.mods, m.nmods, m.cookie, m.inst = mods, nmods, cookie, inst
	c.issue(m)
}

// modsAddress reports whether any of mods is addressed to sw, with a rule of
// cookie unless anyCookie.
func modsAddress(mods []Mod, sw *netsim.Switch, cookie uint64, anyCookie bool) bool {
	for i := range mods {
		if mods[i].Switch == sw && (anyCookie || mods[i].Entry.Cookie == cookie) {
			return true
		}
	}
	return false
}

// Mod is one pending table modification: an entry, and the group its
// actions select if that is sent with it. The group is a rule of the entry's
// cookie.
type Mod struct {
	Switch *netsim.Switch
	Entry  *flowtable.Entry
	Group  *flowtable.Group // may be nil
}
