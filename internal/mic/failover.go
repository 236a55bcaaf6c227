package mic

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"mic/internal/addr"
	"mic/internal/ctrlplane"
	"mic/internal/metrics"
	"mic/internal/netsim"
	"mic/internal/sim"
)

// This file makes the Mimic Controller survivable: a Cluster runs one active
// controller that journals every mutation plus standby controllers that hold
// no channel state, detect its death by missed heartbeats, and take over —
// rebuilding from the journal once, reconciling every switch's flow table
// against the rebuilt intent (delete the dead life's stale rules by cookie,
// reinstall what never landed), and re-arming self-healing. In-flight m-flows keep forwarding throughout: a
// controller crash leaves switch state untouched, and reconciliation is
// make-before-break. The paper assumes the MC simply exists (Sec III); this
// layer answers what a deployment actually needs when it stops existing.
//
// Each member is one MC on one controller host, and the MC owns its life
// (life.go): the Cluster decides when a member crashes, revives, steps down
// or is promoted, and the MC carries it out. Heartbeats, epoch Hellos and
// switch dumps ride the member's southbound channel.

// ClusterConfig tunes failover behaviour.
type ClusterConfig struct {
	// Standbys is how many standby controllers to run (default 1).
	Standbys int

	// DisableReconcile skips the takeover flow-table reconciliation — the
	// ablation arm that shows why dumping and diffing switch state matters.
	DisableReconcile bool

	// DisableFencing is the partition-tolerance ablation: no mastership
	// lease (an unreachable active never steps down), no fencing-epoch
	// announcement to switches (stale installs land), and no journal
	// fencing (zombie writes replay). Fence stamps are still written and
	// Journal.Divergent still counts, so the s11 experiment can measure the
	// damage fencing would have prevented.
	DisableFencing bool
}

// Failover defaults.
const (
	DefaultStandbys = 1

	// DefaultHeartbeatInterval is the active's beat period over the
	// management network; standbys also check for overdue beats at this
	// period.
	DefaultHeartbeatInterval = 2 * time.Millisecond

	// DefaultHeartbeatMisses is how many consecutive overdue checks a standby
	// tolerates before declaring the active dead and taking over. The
	// debounce absorbs individual beat losses on a lossy management network.
	DefaultHeartbeatMisses = 3
)

// requestDeadline bounds how long a dial waits for its answer, across every
// takeover it waits out, before it fails. No experiment varies it.
const requestDeadline = 500 * time.Millisecond

// leaseDuration is the mastership lease, DefaultHeartbeatInterval ×
// DefaultHeartbeatMisses (which keeps detection timing identical to the
// miss-count-only protocol). Each acknowledged heartbeat extends the active's
// lease to the beat's send time plus this duration; when the lease expires
// unrenewed (and a standby exists that could usurp), the active steps down.
// A standby conversely refuses to take over until at least this long has
// passed since it last heard the active — so a partitioned-away active has
// always stepped down before any successor's takeover window opens
// (DESIGN.md §4g).
const leaseDuration = DefaultHeartbeatMisses * DefaultHeartbeatInterval

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Standbys == 0 {
		c.Standbys = DefaultStandbys
	}
	return c
}

// member is one controller host in the cluster. Its role is its MC's life:
// dead while the MC is down, active while it is active, a standby otherwise.
type member struct {
	mc      *MC
	ctrlIdx int // netsim controller-host index (crash/restart handle)

	// The member's timers: the active's beat ticker and lease check, the
	// standby's watchdog ticker. A role change stops all three.
	beat, lease, watch sim.Timer

	// heard and acked are the member's ends of a heartbeat (Channel.Heartbeat),
	// bound once: heard runs when a beat reaches it, acked when a beat it sent
	// is answered or times out.
	heard func()
	acked func(sent sim.Time, ok bool)

	// lastBeat is when this standby last heard the active; missedRun counts
	// consecutive overdue checks.
	lastBeat  sim.Time
	missedRun int

	// leaseUntil is the active's mastership lease expiry: the latest
	// acknowledged beat's send time plus leaseDuration.
	leaseUntil sim.Time

	// demoted marks an ex-active that stepped down after losing its lease.
	// A demoted standby must hear the successor's heartbeat (or see the
	// active provably crash) before its own takeover window can open —
	// otherwise the deposed master of a symmetric partition would usurp the
	// very successor it just yielded to.
	demoted bool
}

// TakeoverStats summarizes one completed takeover for observers.
type TakeoverStats struct {
	At           sim.Time // when reconciliation finished and the new active took charge
	Member       int      // index of the promoted member
	Channels     int      // live channels rebuilt from the journal
	Reinstalled  int      // rules found missing from switches and reinstalled
	StaleDeleted int      // rules from dead controller lives deleted by cookie
}

// Cluster runs a failover group of Mimic Controllers over one fabric: an
// active that serves requests and journals every mutation, and standbys that
// race to take over when the active's heartbeats stop and rebuild from the
// journal when they win. It implements ControlPlane, so clients bind to the
// cluster and ride through a controller crash: a dial the dead life left
// unanswered is sent again once a successor has taken over.
type Cluster struct {
	Net  *netsim.Network
	Cfg  Config        // the MC config every member runs (defaults applied)
	CCfg ClusterConfig // failover tuning (defaults applied)

	// Journal is the active's mutation log, the only state a promotion
	// rebuilds from.
	Journal *Journal

	// Controller-liveness tallies, reported by Telemetry: beats sent and
	// overdue watchdog checks, lease-loss step-downs, and dials a takeover
	// sent (requests a dead life left unanswered or a blackout held back).
	heartbeatsSent, heartbeatsMissed, stepdowns, requestRetries uint64

	// nextReq numbers the dials; pending holds the unanswered, in issue order.
	nextReq uint64
	pending []*request

	// OnTakeover (may be nil) observes every completed takeover.
	OnTakeover func(TakeoverStats)

	// OnStepDown (may be nil) observes every lease-loss step-down.
	OnStepDown func(member int, at sim.Time)

	members []*member
	active  int // the member made active last; it acts while its MC is active

	// takeovers counts completed promotions; it is also the generation the
	// promoted MC's rules carry in their cookies.
	takeovers uint32

	// fence is the cluster's mastership fencing epoch: bumped on every
	// promotion, stamped on journal records, and (unless the fencing
	// ablation is on) announced to every switch so older epochs' mutations
	// are rejected fabric-side. The founding active runs epoch 0.
	fence uint64
}

// NewCluster builds the failover group: one active MC (which installs
// common routing and starts journaling) plus ccfg.Standbys empty passive
// ones. Every member registers as one controller host in the network, so
// chaos faults can kill and restart controllers like any other element.
func NewCluster(net *netsim.Network, cfg Config, ccfg ClusterConfig) (*Cluster, error) {
	c := &Cluster{
		Net:     net,
		Cfg:     cfg.withDefaults(),
		CCfg:    ccfg.withDefaults(),
		Journal: NewJournal(),
	}
	c.Journal.Fencing = !c.CCfg.DisableFencing

	primary, err := NewMC(net, c.Cfg)
	if err != nil {
		return nil, err
	}
	primary.journal = c.Journal
	c.addMember(primary)
	for i := 0; i < c.CCfg.Standbys; i++ {
		sb, err := newMC(net, c.Cfg, ctrlplane.NewChannel(net))
		if err != nil {
			return nil, err
		}
		sb.own()
		c.addMember(sb)
	}

	net.Notify(func(ev netsim.Event) {
		switch ev.Kind {
		case netsim.CtrlDown:
			if m := c.memberByCtrl(ev.Port); m != nil {
				c.memberCrashed(m)
			}
		case netsim.CtrlUp:
			if m := c.memberByCtrl(ev.Port); m != nil {
				c.memberRejoined(m)
			}
		}
	})

	c.startBeating(c.members[0])
	for _, m := range c.members[1:] {
		c.startWatchdog(m)
	}
	return c, nil
}

// addMember registers one controller with the cluster as a netsim
// controller host, the chaos layer's kill handle.
func (c *Cluster) addMember(mc *MC) {
	m := &member{mc: mc, ctrlIdx: c.Net.RegisterCtrlHost()}
	// Bind the southbound channel to the member's management-network
	// endpoint, so partitions between this controller host and switches (or
	// peer controllers) actually cut its traffic.
	mc.Ch.CtrlHost = m.ctrlIdx
	m.beat.Bind(c.eng(), func() { c.sendBeats(m) })
	m.lease.Bind(c.eng(), func() { c.leaseEdge(m) })
	m.watch.Bind(c.eng(), func() { c.checkBeats(m) })
	m.heard = func() {
		if m.standby() {
			m.lastBeat = c.eng().Now()
			// Hearing the successor releases a demoted ex-active back into
			// the standby pool.
			m.demoted = false
		}
	}
	m.acked = func(sent sim.Time, ok bool) {
		if ok {
			c.extendLease(m, sent)
		}
	}
	c.members = append(c.members, m)
}

// standby reports whether m's MC is alive but passive.
func (m *member) standby() bool { return !m.mc.down && !m.mc.active }

func (c *Cluster) eng() *sim.Engine { return c.Net.Eng }

// memberByCtrl maps a netsim controller-host index to its member.
func (c *Cluster) memberByCtrl(idx int) *member {
	for _, m := range c.members {
		if m.ctrlIdx == idx {
			return m
		}
	}
	return nil
}

// memberIndex returns m's position in the cluster.
func (c *Cluster) memberIndex(m *member) int {
	for i, x := range c.members {
		if x == m {
			return i
		}
	}
	return -1
}

// activeMember returns the acting member, or nil during a blackout.
func (c *Cluster) activeMember() *member {
	if m := c.members[c.active]; m.mc.active {
		return m
	}
	return nil
}

// ActiveMC returns the acting controller, or nil during a blackout — the
// window between the active's death and a standby's takeover.
// lint:ignore unused fault-injection seam: the acting controller, to kill or inspect
func (c *Cluster) ActiveMC() *MC {
	if m := c.activeMember(); m != nil {
		return m.mc
	}
	return nil
}

// MemberMC returns member i's controller (tests and harnesses).
func (c *Cluster) MemberMC(i int) *MC { return c.members[i].mc }

// ActiveIndex returns the acting member's index, or -1 during a blackout.
// lint:ignore unused fault-injection seam: the acting member, to kill or inspect
func (c *Cluster) ActiveIndex() int {
	if c.activeMember() == nil {
		return -1
	}
	return c.active
}

// Takeovers reports how many takeovers have completed.
func (c *Cluster) Takeovers() int { return int(c.takeovers) }

// Fence reports the cluster's current mastership fencing epoch.
func (c *Cluster) Fence() uint64 { return c.fence }

// startBeating runs the active's heartbeat ticker: every interval, one
// unreliable beat to every live peer over the management network. A crashed
// active's channel is Down, so beats stop exactly when the process dies — no
// cooperation from the corpse required.
//
// The beats double as lease renewals: each acknowledged beat extends the
// mastership lease to its send time plus leaseDuration, and leaseCheck fires
// at the exact lease edge so an unrenewed active steps down at send+D sharp —
// strictly before any standby's takeover window, which cannot open until
// leaseDuration after that standby's last *received* beat (one management
// latency later than its send). See DESIGN.md §4g for the full ordering
// argument.
func (c *Cluster) startBeating(m *member) {
	m.stopTimers()
	if !c.CCfg.DisableFencing {
		m.leaseUntil = c.eng().Now().Add(leaseDuration)
		m.lease.ResetAt(m.leaseUntil)
	}
	m.beat.Reset(DefaultHeartbeatInterval)
}

// sendBeats is one tick of the active's beat ticker.
func (c *Cluster) sendBeats(m *member) {
	for _, other := range c.members {
		if other == m || other.mc.down {
			continue
		}
		c.heartbeatsSent++
		m.mc.Ch.Heartbeat(other.ctrlIdx, other.heard, m.acked)
	}
	m.beat.Reset(DefaultHeartbeatInterval)
}

// stopTimers cancels m's tickers and lease check.
func (m *member) stopTimers() {
	m.beat.Stop()
	m.lease.Stop()
	m.watch.Stop()
}

// extendLease renews m's mastership lease off one acknowledged beat: the
// lease runs leaseDuration from the beat's *send* time (the conservative
// end — the ack only proves the peer heard it after that). Only a running
// lease is renewed: none runs with fencing off, and a step-down, crash or
// Stop stops it. A beat sent in an earlier active life renews nothing
// either: the life's first lease already runs from after it.
func (c *Cluster) extendLease(m *member, sendAt sim.Time) {
	until := sendAt.Add(leaseDuration)
	if !m.lease.Armed() || until <= m.leaseUntil {
		return
	}
	m.leaseUntil = until
	m.lease.ResetAt(until)
}

// leaseEdge runs at the lease's expiry: the lease timer's latest arming is
// always for m.leaseUntil, which only rises, so an extension supersedes it.
func (c *Cluster) leaseEdge(m *member) {
	if c.usurperExists(m) {
		c.stepDown(m)
		return
	}
	// No peer could take over (all dead, or demoted and waiting to hear
	// from us): mastership cannot be usurped, so the lease self-extends
	// rather than orphaning the fabric with no controller at all.
	m.leaseUntil = c.eng().Now().Add(leaseDuration)
	m.lease.ResetAt(m.leaseUntil)
}

// usurperExists reports whether any standby is in a state where its takeover
// window could open: alive and not demoted. Exactly those peers force an
// unrenewed active to step down.
func (c *Cluster) usurperExists(m *member) bool {
	for _, other := range c.members {
		if other != m && other.standby() && !other.demoted {
			return true
		}
	}
	return false
}

// stepDown demotes an active that failed to renew its mastership lease. The
// order matters: planning quiesces and journal writes stop *now*, at the
// lease edge, which is strictly before any successor's takeover window opens
// — so with fencing on, a partitioned-away master never writes concurrently
// with its successor. The deposed member rejoins as a demoted standby: its
// MC forgets its state — unjournaled in-flight plans are discarded, and
// their switch rules (if any landed) are the next takeover's reconciliation
// fodder, same as a crashed active's — and it watches for the successor's
// heartbeat, which is what clears the demotion.
func (c *Cluster) stepDown(m *member) {
	if !m.mc.active {
		return
	}
	c.stepdowns++
	m.demoted = true
	m.mc.stepDown()
	c.startWatchdog(m)
	if c.OnStepDown != nil {
		c.OnStepDown(c.memberIndex(m), c.eng().Now())
	}
}

// startWatchdog runs a standby's death detector: every interval it checks
// whether the last beat is overdue (1.5 intervals: one full period plus
// latency slack). DefaultHeartbeatMisses consecutive overdue checks — a
// debounce against individual beat losses — trigger the takeover.
func (c *Cluster) startWatchdog(m *member) {
	m.stopTimers()
	m.lastBeat = c.eng().Now()
	m.missedRun = 0
	m.watch.Reset(DefaultHeartbeatInterval)
}

// checkBeats is one tick of a standby's watchdog ticker.
func (c *Cluster) checkBeats(m *member) {
	if c.eng().Now().Sub(m.lastBeat) > DefaultHeartbeatInterval*3/2 {
		m.missedRun++
		c.heartbeatsMissed++
		if m.missedRun >= DefaultHeartbeatMisses && c.leaseExpiredFor(m) && c.takeover(m) {
			return
		}
	} else {
		m.missedRun = 0
	}
	m.watch.Reset(DefaultHeartbeatInterval)
}

// leaseExpiredFor reports whether standby m's side of the lease protocol
// permits a takeover: leaseDuration of silence since the last beat it
// received. Because that beat was *sent* at least one management latency
// earlier, any correct active has already hit its own (send-time-based)
// lease edge and stepped down — takeover strictly follows step-down. A
// demoted ex-active additionally waits to hear its successor (or see it
// provably crash) before re-entering the race. With the fencing ablation on
// there is no lease and miss-counting alone decides, zombies and all.
func (c *Cluster) leaseExpiredFor(m *member) bool {
	if c.CCfg.DisableFencing {
		return true
	}
	if m.demoted {
		return false
	}
	return c.eng().Now().Sub(m.lastBeat) > leaseDuration
}

// memberCrashed handles a controller-host death: the process stops cold
// (channel silent, closures disarmed), and if it was the active, the cluster
// enters a blackout that only a standby's watchdog can end.
func (c *Cluster) memberCrashed(m *member) {
	if m.mc.down {
		return
	}
	wasActive := m.mc.active
	m.stopTimers()
	m.mc.crash()
	if wasActive {
		// The master every demoted standby was waiting to hear from is
		// provably dead; release them into the takeover race.
		for _, other := range c.members {
			other.demoted = false
		}
	}
}

// memberRejoined restarts a dead controller as a fresh standby: empty state,
// new southbound channel, watchdog armed. It does not reclaim the active
// role — at most it becomes the next takeover's winner, and rebuilds then.
func (c *Cluster) memberRejoined(m *member) {
	if !m.mc.down {
		return
	}
	m.mc.revive()
	c.startWatchdog(m)
}

// takeover promotes standby m to active: rebuild its MC from the journal,
// bump the controller generation (the cookie field that marks the dead
// life's rules as stale) and the fencing epoch (announced to every switch so
// the deposed life's in-flight mutations are rejected), attach to the
// fabric, reconcile every switch, then sweep for channels the blackout left
// broken. Returns false when a live active exists that this standby can
// still hear — the watchdog backs off and keeps watching. An active it
// *cannot* hear does not stay its hand: after a management partition the
// standby has no evidence of that master, whose own lease has it stepping
// down on the other side (or, in the fencing ablation, blundering on as the
// zombie the epoch check exists to reject).
func (c *Cluster) takeover(m *member) bool {
	if a := c.activeMember(); a != nil &&
		c.Net.MgmtReachable(netsim.MgmtCtrl(a.ctrlIdx), netsim.MgmtCtrl(m.ctrlIdx)) {
		m.missedRun = 0
		return false
	}
	c.takeovers++
	mc := m.mc
	mc.restore(c.Journal)
	m.demoted = false
	c.active = c.memberIndex(m)
	c.fence++
	// The promoted life carries the takeover's generation in its rule cookies
	// and its fencing epoch on journal writes and (unless the fencing ablation
	// is on) its southbound messages, so a deposed life is told apart — and
	// rejected.
	mc.active, mc.generation, mc.fence, mc.journal = true, c.takeovers, c.fence, c.Journal
	if !c.CCfg.DisableFencing {
		mc.Ch.Epoch = c.fence
	}
	// The journal learns the new life's epoch before its first append, so a
	// deposed life's raced-in writes read as divergent however they interleave.
	c.Journal.RaiseFence(c.fence)
	mc.attach()
	if !c.CCfg.DisableFencing {
		// Announce the new epoch to every reachable switch before any
		// reconciliation traffic: same channel, same latency, so the Hello
		// lands first and every later message from a deposed life is stale.
		for _, sw := range c.Net.Switches() {
			mc.Ch.Hello(sw, nil)
		}
	}
	c.startBeating(m)
	// A dial issued during the blackout goes to the new life now, as any
	// dial issued from here on does.
	for _, r := range c.pending {
		if r.mc == nil {
			c.requestRetries++
			c.send(r, mc)
		}
	}

	stats := TakeoverStats{Member: c.active, Channels: mc.LiveChannels()}
	clear(mc.recon) // an earlier life's; every switch gets a pass now
	switches := c.Net.Switches()
	remaining := len(switches)
	if c.CCfg.DisableReconcile || remaining == 0 {
		c.finishTakeover(m, stats)
		return true
	}
	for _, sw := range switches {
		mc.converge(sw.ID, false, func(reinstalled, stale int) {
			stats.Reinstalled += reinstalled
			stats.StaleDeleted += stale
			if remaining--; remaining == 0 {
				c.finishTakeover(m, stats)
			}
		})
	}
	return true
}

// finishTakeover closes the loop on the blackout: any channel the dead
// active never got to repair (its failure events and repair callbacks died
// with it) is detected by a liveness sweep and queued through the normal
// self-healing path. Then every dial a dead life left unanswered goes to the
// new life, its journaled channel reconciled and the repairs' paths drawn,
// and the takeover becomes observable.
func (c *Cluster) finishTakeover(m *member, stats TakeoverStats) {
	if mc := m.mc; mc.Cfg.AutoRepair {
		for _, id := range sortedChanIDs(mc.channels) {
			if !mc.channelAlive(mc.channels[id]) {
				mc.scheduleRepair(id)
			}
		}
	}
	for _, r := range c.pending {
		if r.mc.incarnation != r.inc {
			c.requestRetries++
			c.send(r, m.mc)
		}
	}
	stats.At = c.eng().Now()
	if c.OnTakeover != nil {
		c.OnTakeover(stats)
	}
}

// Audit omnisciently diffs every switch's installed flow table against the
// acting controller's intent, as a pass does, and returns the counts:
// stale m-flow entries no live channel wants, and intended entries not
// installed. The failover acceptance bar is (0, 0) after reconciliation
// settles.
func (c *Cluster) Audit() (stale, missing int) {
	m := c.activeMember()
	if m == nil {
		return 0, 0
	}
	for _, sw := range c.Net.Switches() {
		_, _, staleN, missingN := m.mc.diff(sw.ID, sw.Table.Entries())
		stale, missing = stale+staleN, missing+missingN
	}
	return stale, missing
}

// memberCounters lists the per-controller tallies the cluster reports, summed
// over every member: each accumulates its own while active, and sums
// (unlike gauges) survive takeovers.
var memberCounters = []string{
	"dials_admitted", "dials_shed", "channels_degraded",
	"channels_refused", "flows_restored", "mflow_rules_evicted",
}

// Telemetry reports the cluster's liveness tallies, the journal statistics,
// the members' reconciliation work and admission counters, in a fixed order
// for stable reports.
func (c *Cluster) Telemetry() *metrics.Counters {
	var mcs []*MC
	var rejects, reinstalled, staleDeleted uint64
	for _, m := range c.members {
		mcs = append(mcs, m.mc)
		rejects += m.mc.Ch.StaleRejects
		reinstalled += m.mc.reinstalled
		staleDeleted += m.mc.staleDeleted
	}
	t := metrics.NewCounters()
	t.Set("heartbeats_sent", c.heartbeatsSent)
	t.Set("heartbeats_missed", c.heartbeatsMissed)
	t.Set("takeovers", uint64(c.takeovers))
	t.Set("stepdowns", c.stepdowns)
	t.Set("rules_reinstalled", reinstalled)
	t.Set("rules_stale_deleted", staleDeleted)
	t.Set("request_retries", c.requestRetries)
	t.Set("journal_appends", c.Journal.Appends)
	t.Set("journal_snapshots", c.Journal.Snapshots)
	t.Set("journal_records", uint64(c.Journal.Len()))
	t.Set("journal_divergent", c.Journal.Divergent)
	t.Set("stale_rejects", rejects)
	sums := telemetry(mcs)
	for _, name := range memberCounters {
		t.Set(name, sums.Get(name))
	}
	return t
}

// Stop cancels every member's tickers and probers so a harness driving the
// engine with Run() can reach quiescence.
func (c *Cluster) Stop() {
	for _, m := range c.members {
		m.stopTimers()
		m.mc.StopProber()
	}
}

// Engine implements ControlPlane.
func (c *Cluster) Engine() *sim.Engine { return c.Net.Eng }

// ClientSeed implements ControlPlane.
func (c *Cluster) ClientSeed() uint64 { return c.Cfg.Seed }

// SubscribeRepair implements ControlPlane: fn registers on every member, so
// it hears repair events from whichever member is acting, across takeovers.
func (c *Cluster) SubscribeRepair(fn func(RepairEvent)) {
	for _, m := range c.members {
		m.mc.SubscribeRepair(fn)
	}
}

// request is a dial the Cluster has not had answered. Its ID names it to
// every controller life, through the journal; mc and inc are the life it was
// last sent to, mc nil until then.
type request struct {
	id        uint64
	initiator addr.IP
	target    string
	opts      ChannelOptions
	cb        func(*ChannelInfo, error)
	mc        *MC
	inc       uint64
}

// EstablishChannel implements ControlPlane. The dial takes the next request
// ID and goes to the acting controller, or during a blackout to the next
// promoted one (takeover). A dial its life left unanswered goes to the
// successor once that has reconciled the fabric (finishTakeover), and one
// unanswered after requestDeadline fails.
func (c *Cluster) EstablishChannel(initiator addr.IP, target string, opts ChannelOptions, cb func(*ChannelInfo, error)) {
	c.nextReq++
	r := &request{id: c.nextReq, initiator: initiator, target: target, opts: opts, cb: cb}
	c.pending = append(c.pending, r)
	c.eng().After(requestDeadline, func() {
		c.answer(r, nil, fmt.Errorf("mic: channel request unanswered after %v", requestDeadline))
	})
	if m := c.activeMember(); m != nil {
		c.send(r, m.mc)
	}
}

// send sends r to mc's current life, an active one, whose answer alone
// counts: if the life ends unanswering, the next takeover sends r again.
func (c *Cluster) send(r *request, mc *MC) {
	inc := mc.incarnation
	r.mc, r.inc = mc, inc
	mc.establish(r.id, r.initiator, r.target, r.opts, func(info *ChannelInfo, err error) {
		if r.mc == mc && r.inc == inc {
			c.answer(r, info, err)
		}
	})
}

// answer gives r's caller its one answer.
func (c *Cluster) answer(r *request, info *ChannelInfo, err error) {
	if i := slices.Index(c.pending, r); i >= 0 {
		c.pending = slices.Delete(c.pending, i, i+1)
		r.cb(info, err)
	}
}

// CloseChannel implements ControlPlane. A close during a blackout is refused
// with ErrNotActive, and the caller keeps the channel to close it again.
func (c *Cluster) CloseChannel(id uint64, cb func()) error {
	m := c.activeMember()
	if m == nil {
		return fmt.Errorf("mic: close of channel %d during a takeover blackout: %w", id, ErrNotActive)
	}
	return m.mc.CloseChannel(id, cb)
}

// RegisterHiddenService registers the mapping on the acting controller, which
// journals it for successors; like CloseChannel it is refused in a blackout.
// lint:secret ip
func (c *Cluster) RegisterHiddenService(name string, ip addr.IP) error { // lint:ignore unused paper mechanism (Sec IV-D) that the cluster tests exercise
	m := c.activeMember()
	if m == nil {
		return fmt.Errorf("mic: hidden service %q registered during a takeover blackout: %w", name, ErrNotActive)
	}
	return m.mc.RegisterHiddenService(name, ip)
}

// sortedChanIDs returns the channel IDs in ascending order, so every sweep
// over the channel map is deterministic.
func sortedChanIDs(chans map[uint64]*channelState) []uint64 {
	ids := make([]uint64, 0, len(chans))
	// lint:ignore detrange keys are collected then sorted immediately below
	for id := range chans {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
