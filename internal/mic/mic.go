// Package mic implements the paper's contribution: Mimic Channel, an
// in-network anonymity system for SDN data centers. The Mimic Controller
// (MC) computes per-m-flow routes, selects Mimic Nodes (MNs), mints
// m-addresses through the MAGA hash family, and installs header-rewrite
// rules so that no single link or switch ever observes both real endpoints
// of a flow. The client library provides a socket-like API (Dial / Listen)
// and implements the two traffic-analysis defenses: multiple m-flows
// (traffic slicing) and partial multicast (decoy replication at edge MNs).
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package mic

import (
	"errors"
	"fmt"
	"time"

	"mic/internal/addr"
	"mic/internal/ctrlplane"
	"mic/internal/flowtable"
	"mic/internal/maga"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// Config tunes a Mimic Controller.
type Config struct {
	Widths maga.Widths

	// MFlows is the default number of m-flows per channel (paper default 1;
	// the multiple-m-flows defense uses more).
	MFlows int

	// MNs is the number of Mimic Nodes per m-flow — the paper's "route
	// length" privacy knob.
	MNs int

	// MulticastFanout replicates packets at both edge MNs (the first and
	// last MN of each m-flow, in both directions of travel) into this many
	// copies (1 disables partial multicast). Edge MNs are where a single
	// tapped switch could otherwise pair an m-address with a real endpoint
	// address by ingress/egress payload matching — including on the reverse
	// path, which carries the data plane's acks and probe replies.
	MulticastFanout int

	// DisablePathCache turns off the path-plan cache (plancache.go), forcing
	// a full equal-cost graph search on every m-flow planning step — the
	// ablation knob for the s10 setup-throughput experiment.
	DisablePathCache bool

	// PlanCores is how many cores the controller's planning CPU has
	// (default 1). An admitted dial plans on the core that is free first,
	// the lowest on ties, so up to PlanCores dials plan at once while each
	// one's planning stays serialized — the s10 experiment sweeps it.
	PlanCores int

	// PathPolicy selects among equal-cost candidates: PathRandom (default,
	// best for anonymity — predictable placement helps an adversary) or
	// PathLeastLoaded, which exploits the MC's global channel map to avoid
	// stacking m-flows on the same links. Ablated by micbench -fig a4.
	PathPolicy PathPolicy

	// Seed drives all of the MC's randomized choices. In a distributed
	// deployment (Sec VI-C) every controller must share the same Seed so
	// they derive identical per-MN MAGA keying.
	Seed uint64

	// InstanceID and IDSpace support the paper's distributed-controller
	// deployment (Sec VI-C): "assign a unique ID space for each controller".
	// Controllers with the same Seed, distinct InstanceIDs and disjoint
	// IDSpaces can manage channels on the same fabric without collisions;
	// each initiator must be served by exactly one controller. A zero
	// IDSpace means the whole flow-ID space.
	InstanceID uint32
	IDSpace    IDRange

	// AutoRepair subscribes the MC to fabric failure events (port-status
	// and switch-liveness notifications) and repairs every affected channel
	// automatically, with bounded retries — no manual RepairChannel calls.
	AutoRepair bool

	// RepairMaxRetries bounds repair attempts per failure burst before the
	// channel is declared dead to its endpoints (SubscribeChannelDown). Zero means
	// DefaultRepairMaxRetries; negative allows a single attempt.
	RepairMaxRetries int

	// RepairBackoff is the delay before the second repair attempt; it
	// doubles per attempt, capped at 16x. Zero means DefaultRepairBackoff.
	RepairBackoff time.Duration

	// ProbeInterval, when positive, starts a control-plane liveness prober
	// that catches silent switch failures (no port-status event) and feeds
	// them into the same self-healing path. The prober reschedules itself
	// forever, so drive the engine with RunUntil/RunFor, not Run.
	ProbeInterval time.Duration

	// Admission tunes the overload-protection layer (admission.go): token
	// bucket, bounded request queue, per-switch rule budgets and the
	// degradation ladder. Zero value = off, the seed behaviour.
	Admission AdmissionConfig
}

// Self-healing defaults.
const (
	DefaultRepairMaxRetries = 6
	DefaultRepairBackoff    = time.Millisecond
)

// What the model charges for a channel request. No experiment varies them.
const (
	// requestLatency is the one-way client<->MC request delay.
	requestLatency = 500 * time.Microsecond
	// requestCryptoCost is the AES cost of sealing or opening one request,
	// paid on both the client and the MC (the paper encrypts requests with a
	// pre-exchanged key).
	requestCryptoCost = 20 * time.Microsecond
	// computeCost is the planning CPU of one graph search, planCacheHitCost
	// of one path lookup the plan cache serves instead.
	computeCost      = 50 * time.Microsecond
	planCacheHitCost = computeCost / 10
	// maxEqualCostPaths caps shortest-path enumeration.
	maxEqualCostPaths = 16
)

// IDRange is a half-open flow-ID interval [Lo, Hi).
type IDRange struct{ Lo, Hi uint32 }

// PathPolicy selects among equal-cost path candidates.
type PathPolicy int

const (
	// PathRandom picks uniformly, the paper's behaviour.
	PathRandom PathPolicy = iota
	// PathLeastLoaded picks the candidate whose most-loaded link carries
	// the fewest m-flows, then the one carrying the fewest over all its
	// links, using the MC's own bookkeeping; the host access links every
	// candidate shares do not count.
	PathLeastLoaded
)

// DefaultConfig mirrors the paper's defaults: one m-flow, three MNs.
func DefaultConfig() Config {
	return Config{
		Widths:          maga.DefaultWidths(),
		MFlows:          1,
		MNs:             3,
		MulticastFanout: 1,
		Seed:            1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Widths == (maga.Widths{}) {
		c.Widths = d.Widths
	}
	if c.MFlows == 0 {
		c.MFlows = d.MFlows
	}
	if c.MNs == 0 {
		c.MNs = d.MNs
	}
	if c.MulticastFanout == 0 {
		c.MulticastFanout = d.MulticastFanout
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.PlanCores == 0 {
		c.PlanCores = 1
	}
	c.Admission = c.Admission.withDefaults()
	return c
}

// idSpace validates the label widths and returns the flow-ID interval the
// configuration names: IDSpace, or the whole space when it is zero.
func (c Config) idSpace() (lo, hi uint32, err error) {
	if err := c.Widths.Validate(); err != nil {
		return 0, 0, err
	}
	lo, hi = c.IDSpace.Lo, c.IDSpace.Hi
	if lo == 0 && hi == 0 {
		hi = c.Widths.MaxFlowIDs()
	}
	if lo >= hi || hi > c.Widths.MaxFlowIDs() {
		return 0, 0, fmt.Errorf("mic: ID space [%d, %d) invalid for %d-bit flow IDs", lo, hi, c.Widths.FPart)
	}
	return lo, hi, nil
}

// FlowInfo describes one established m-flow from the initiator's view.
type FlowInfo struct {
	Entry addr.IP // the entry address the initiator sends to
	Path  topo.Path
	MNs   []topo.NodeID
}

// ChannelInfo is the MC's acknowledgement to a channel request. It is
// handed to the dialing client, so it carries only what the initiator may
// see: fake entry addresses, paths, MN sets. The responder's real address
// stays MC-side in channelState.
type ChannelInfo struct {
	ID    uint64
	Flows []FlowInfo
}

// channelState is all the MC keeps about one live channel: who, asked for
// what, which rule epoch, and three facts — res, info.Flows and rules — from
// which everything else is read where it is needed (flow IDs and fake
// addresses from res, links and switches crossed from each flow's Path,
// groups and the switches holding rules from rules). What the shared tables
// hold for the channel is put on and taken off by book and unbook, nowhere
// else. The real endpoint pair lives here — and only here — outside the
// journal.
type channelState struct {
	id  uint64
	req uint64 // the request that opened it (establish), 0 for none
	// lint:secret
	initiator addr.IP // real dialing endpoint
	// lint:secret
	responder addr.IP // real responder; clients get entry addresses instead
	opts      ChannelOptions
	epoch     uint32       // bumped per repair; part of the rule cookie
	gen       uint32       // controller generation that installed the current epoch
	info      *ChannelInfo // what the client holds: per flow, entry address, path and MNs
	res       []flowRes    // per flow, the durable resources (survive repairs)

	epochStore // the current epoch: its rules and what they are built in
}

// epochStore is one rule epoch of a channel: its intended rules and the
// storage they live in. A cleanly closed channel's store goes back to the MC
// for the next channel's epoch (MC.recycle).
type epochStore struct {
	rules []ruleRec // intended rules, in templating order
	// slabs holds, per m-flow, the slab its entries and action lists are
	// carved from: only ever slabs this controller life templated, so a
	// channel rebuilt from the journal has none. In a recycled store the old
	// slabs, emptied, sit past the list's length, each the spare of the
	// m-flow that will take its place (spareSlab).
	slabs []flowtable.Slab
	mods  []ctrlplane.Mod // what the epoch's install was sent from
}

// spareSlab returns the slab left where the next m-flow's slab will go, or
// none.
func (s *epochStore) spareSlab() flowtable.Slab {
	if n := len(s.slabs); n < cap(s.slabs) {
		return s.slabs[:n+1][n]
	}
	return flowtable.Slab{}
}

// flowRes are the parts of an m-flow that must survive a path repair so
// established transport connections keep working: the endpoint-visible
// fake addresses and the flow IDs.
type flowRes struct {
	entry    addr.IP
	finalSrc addr.IP
	fwdID    uint32
	revID    uint32
}

// ruleRec records one intended rule of a channel's current epoch: a flow
// entry on one switch, and the group its actions select if it has one. It
// is the unit of journaling, takeover reconciliation and the failover audit
// — the MC's "intent" for what the switch should hold.
type ruleRec struct {
	node  topo.NodeID
	entry *flowtable.Entry
	group *flowtable.Group // may be nil
}

// linkKey identifies a directed link for load accounting.
type linkKey struct {
	node topo.NodeID
	port int
}

// MC is the Mimic Controller. It owns the fabric's common routing (via the
// embedded proactive router), the per-MN MAGA keying, channel state and the
// hidden-service map.
type MC struct {
	Net *netsim.Network
	Ch  *ctrlplane.Channel
	Cfg Config

	rng     *sim.RNG
	pathRng *sim.RNG

	params map[topo.NodeID]maga.Params
	gens   map[topo.NodeID]*maga.Generator
	sids   map[topo.NodeID]uint32
	cid    uint32 // common-flow class
	// CFLabel is the label installed by the proactive router; its SPart
	// classifies as cid under every relevant check the MC performs.
	CFLabel addr.Label

	flowIDs *idAllocator
	// lint:secret
	hidden    map[string]addr.IP // hidden-service name -> real host address
	channels  map[uint64]*channelState
	nextChan  uint64
	nextGroup uint32

	// planCache memoizes equal-cost path enumeration per access-switch pair
	// as switch-only segments (plancache.go); its size is bounded by the
	// number of distinct edge pairs dialed.
	planCache map[planKey][][]topo.NodeID

	// scratch holds the buffers path selection and the pipeline stages reuse
	// from one m-flow to the next (plan.go).
	scratch planScratch

	// cpuFree holds, per planning core, the virtual time at which it is next
	// idle. A dial's planning runs on one core, so a storm of dials queues
	// behind Cfg.PlanCores of them, while the install round trips of one
	// request overlap the planning of the next.
	cpuFree []sim.Time
	// planCost accumulates the planning CPU of the request being computed:
	// computeCost per graph search, planCacheHitCost per cache hit.
	planCost time.Duration

	// PathCacheHits and PathCacheMisses count plan-cache outcomes; with the
	// cache disabled every lookup counts as a miss.
	PathCacheHits   uint64
	PathCacheMisses uint64

	// entryInUse reserves (endpoint, fake peer IP) pairs so two channels
	// never share an untagged endpoint tuple — the paper's "unique match
	// entry" requirement at the unlabeled first/last segments.
	entryInUse map[[2]addr.IP]bool

	// linkBase numbers the fabric's directed links densely: the link out of
	// port p of node n is linkBase[n]+p (linkIndex). The graph's ports are
	// fixed once the fabric is built, so the numbering is computed once.
	linkBase []int

	// linkLoad counts live m-flows per directed link (by dense link number),
	// feeding PathLeastLoaded.
	linkLoad []int

	// linkChannels and nodeChannels index live channels by the directed
	// links (dense link number) and switches (NodeID) their paths cross — the
	// self-healing layer's failure→victims lookup. Each is a small unordered
	// duplicate-free set of channel IDs.
	linkChannels [][]uint64
	nodeChannels [][]uint64

	// repairJobs serializes self-healing per channel: one job per channel
	// at a time; overlapping failures mark the job dirty for re-check.
	repairJobs map[uint64]*repairJob

	// The controller life (life.go). down marks a crashed process:
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
	// on journal records and, with fencing on, mirrored into Ch.Epoch, so the
	// store and the switches refuse a deposed master's writes. journal, when
	// non-nil, takes a record of every externally visible mutation for a
	// successor to replay (failover.go); a standalone MC has none and pays
	// nothing.
	generation uint32
	fence      uint64
	journal    *Journal

	// prober drives silent-failure detection when Cfg.ProbeInterval > 0.
	prober     *ctrlplane.Prober
	stopProber func()

	// recon is each switch's convergence state, by NodeID (reconcile.go);
	// reinstalled and staleDeleted count what the passes did. intent,
	// groupIntent and have are the passes' scratch, cleared on entry by
	// intentAt and diff. What those return dies inside the call or callback
	// that reads it: a pass consumes have in its dump callback, its barrier
	// callback reads group intent at once, and the audit keeps only counts.
	recon                     []switchRecon
	reinstalled, staleDeleted uint64
	intent                    map[reconKey]*flowtable.Entry
	groupIntent               map[flowtable.GroupID]*flowtable.Group
	have                      map[reconKey]bool

	// storeFree holds the stores of retired epochs — cleanly closed
	// channels' and confirmed repair purges' — most recent last; a new
	// channel or repair epoch takes the last (recycle).
	storeFree []epochStore
	// slabHigh is the largest m-flow this MC has templated, in entries and
	// in actions: the size of every new slab (templateFlow).
	slabHigh struct{ entries, actions int }

	// repairSubs hear every completed self-healing job, successful or
	// terminal; downSubs hear a channel abandoned because no live path exists
	// after all retries (the MC closes it, so endpoints see a terminal error
	// rather than a silent black hole). Every Client subscribes, so its
	// streams learn about repairs (re-probe, rebalance) and terminal losses
	// (clean error). A listener learns the channel ID and the error, never the
	// initiator: broadcasting each downed channel's real initiator to every
	// subscribed client would tell every tenant who else is dialing.
	repairSubs []func(RepairEvent)
	downSubs   []func(id uint64, err error)

	// Repairs and RepairFailures count completed self-healing jobs.
	Repairs        uint64
	RepairFailures uint64

	reach reachability

	// Requests counts channel-establishment requests served (ablation of
	// channel reuse, Sec IV-B1).
	Requests uint64

	// DecoysDropped counts partial-multicast decoys that died at their next
	// hop via table miss; UnexpectedMisses counts any other packet-in.
	DecoysDropped    uint64
	UnexpectedMisses uint64

	// Admission-control state (admission.go): the token bucket, the bounded
	// request queue, and the per-switch rule-intent accounting the budgets
	// check against. ruleCount is written by book and unbook only, live and
	// on journal replay alike, so failover preserves it; commonBase caches each
	// switch's common-routing rule count for derived budgets.
	admitTokens float64
	admitLast   sim.Time
	admitQueue  []*dial
	drain       sim.Timer // grants the queue's head its token; runs drainQueue
	ruleCount   map[topo.NodeID]int
	commonBase  map[topo.NodeID]int

	// Overload counters (fixed-order rendering via Telemetry()).
	RequestsAdmitted uint64 // dials granted a token
	RequestsQueued   uint64 // dials that had to queue
	RequestsShed     uint64 // dials refused at the queue (full or stale)
	QueuePeak        uint64 // high-water mark of the request queue
	ChannelsDegraded uint64 // dials admitted with fewer m-flows than asked
	ChannelsRefused  uint64 // dials refused for rule-budget exhaustion
	FlowsRestored    uint64 // degraded channels upgraded after pressure cleared
	RulesEvicted     uint64 // m-flow rules displaced by capacity eviction
	MissReinstalls   uint64 // evicted rules reinstalled on table miss
}

// NewMC builds an active controller for the network: assigns S_IDs and
// MAGA keys to every switch, picks the common-flow class and label, installs
// proactive common routing and attaches as the fabric's packet-in handler.
func NewMC(net *netsim.Network, cfg Config) (*MC, error) {
	mc, err := newMC(net, cfg)
	if err != nil {
		return nil, err
	}
	mc.own()
	mc.active = true
	router := &ctrlplane.ProactiveRouter{CFLabel: mc.CFLabel}
	if _, err := router.Install(net); err != nil {
		return nil, err
	}
	mc.attach()
	return mc, nil
}

// newMC builds an inert, empty, passive controller: it hears no fabric event
// until own subscribes it, the way a Cluster keeps a standby until a
// takeover. Every controller, a standby too, derives the full MAGA keying —
// Config.Seed guarantees it matches the active's.
func newMC(net *netsim.Network, cfg Config) (*MC, error) {
	cfg = cfg.withDefaults()
	idLo, idHi, err := cfg.idSpace()
	if err != nil {
		return nil, err
	}
	if cfg.PlanCores < 1 {
		return nil, fmt.Errorf("mic: PlanCores %d is negative", cfg.PlanCores)
	}
	switches := net.Graph.Switches()
	if uint32(len(switches))+1 > cfg.Widths.MaxSIDs() {
		return nil, fmt.Errorf("mic: %d switches exceed %d-bit S_ID space", len(switches), cfg.Widths.SID)
	}
	mc := &MC{
		Net:        net,
		Ch:         ctrlplane.NewChannel(net),
		Cfg:        cfg,
		rng:        sim.NewRNG(cfg.Seed),
		params:     make(map[topo.NodeID]maga.Params),
		gens:       make(map[topo.NodeID]*maga.Generator),
		sids:       make(map[topo.NodeID]uint32),
		flowIDs:    newIDAllocator(idLo, idHi),
		hidden:     make(map[string]addr.IP),
		channels:   make(map[uint64]*channelState),
		entryInUse: make(map[[2]addr.IP]bool),
		repairJobs: make(map[uint64]*repairJob),
		ruleCount:  make(map[topo.NodeID]int),
		commonBase: make(map[topo.NodeID]int),
		nextChan:   uint64(cfg.InstanceID) << 32,
		nextGroup:  cfg.InstanceID << 24,
		// The token bucket starts full: cold-start dials are admitted up to
		// Burst rather than queued behind the first refill.
		admitTokens: float64(cfg.Admission.Burst),
		cpuFree:     make([]sim.Time, cfg.PlanCores),
		recon:       make([]switchRecon, len(net.Graph.Nodes)),
	}
	mc.pathRng = mc.rng.Stream(fmt.Sprintf("paths-%d", cfg.InstanceID))
	mc.drain.Bind(net.Eng, mc.drainQueue)
	mc.linkBase = make([]int, len(net.Graph.Nodes)+1)
	for i, n := range net.Graph.Nodes {
		mc.linkBase[i+1] = mc.linkBase[i] + len(n.Ports)
	}
	mc.resetLoad()

	// S_ID 0 is the common-flow class C_ID; switches get 1..n.
	mc.cid = 0
	for i, sid := range switches {
		id := uint32(i + 1)
		mc.sids[sid] = id
		p := maga.NewParams(mc.rng.Stream(fmt.Sprintf("mn-%d", sid)), cfg.Widths)
		mc.params[sid] = p
		mc.gens[sid] = maga.NewGenerator(p, id, mc.rng.Stream(fmt.Sprintf("gen-%d", sid)))
	}
	// Any label whose class is cid under a reference param set marks common
	// flows. Mint one via a dedicated generator.
	cfParams := maga.NewParams(mc.rng.Stream("common"), cfg.Widths)
	cfGen := maga.NewGenerator(cfParams, mc.cid, mc.rng.Stream("common-gen"))
	mc.CFLabel = cfGen.Label(0, 0, 0)

	mc.reach = computeReachability(net.Graph)
	mc.planCache = make(map[planKey][][]topo.NodeID)
	return mc, nil
}

// Engine returns the discrete-event engine the MC runs on (ControlPlane).
func (mc *MC) Engine() *sim.Engine { return mc.Net.Eng }

// ClientSeed returns the seed clients mix into their own RNG streams
// (ControlPlane).
func (mc *MC) ClientSeed() uint64 { return mc.Cfg.Seed }

// revive restarts a crashed controller process with empty state on a fresh
// southbound channel: the old one died with the process, and closures
// scheduled by the previous life still reference it and must stay dead, as
// the incarnation bump makes them; the fresh one flips its own loss coins.
// The revived MC stays passive — a restarted controller rejoins as a
// standby; only a takeover makes it active again.
func (mc *MC) revive() {
	if !mc.down {
		return
	}
	mc.down = false
	mc.incarnation++
	old := mc.Ch
	mc.Ch = ctrlplane.NewChannel(mc.Net)
	mc.Ch.Latency = old.Latency
	mc.Ch.LossRate = old.LossRate
	mc.Ch.AckTimeout = old.AckTimeout
	mc.Ch.MaxRetries = old.MaxRetries
	mc.Ch.MaxBackoff = old.MaxBackoff
	// The management-network binding survives a process restart (same host,
	// same mgmt port); the fencing epoch does not — a restarted process
	// re-learns it at its next promotion, like any other volatile state.
	mc.Ch.CtrlHost = old.CtrlHost
	mc.resetState()
}

// ErrNotActive is returned to dials that reach a controller which is not the
// acting master — a standby, or an ex-active that stepped down after losing
// its mastership lease — and to the closes and registrations a Cluster
// refuses during a takeover blackout. It is transient: retry once the
// takeover completes, as a Client's idle closes do.
var ErrNotActive = errors.New("mic: controller is not the active master")

// resetState clears every piece of channel bookkeeping — a restarted process
// remembers nothing; the journal is the only source of truth it rebuilds
// from. MAGA keying, S_IDs and reachability are untouched: they are derived
// from Config.Seed and the topology, identical across lives by construction.
func (mc *MC) resetState() {
	mc.flowIDs = newIDAllocator(mc.flowIDs.lo, mc.flowIDs.hi)
	mc.hidden = make(map[string]addr.IP)
	mc.channels = make(map[uint64]*channelState)
	mc.entryInUse = make(map[[2]addr.IP]bool)
	mc.resetLoad()
	mc.repairJobs = make(map[uint64]*repairJob)
	mc.storeFree = nil
	mc.nextChan = uint64(mc.Cfg.InstanceID) << 32
	mc.nextGroup = mc.Cfg.InstanceID << 24
	mc.resetAdmission()
}

// SubscribeRepair adds a listener for completed self-healing jobs: every
// Client registers one so its streams re-probe and rebalance the moment a
// repair lands.
func (mc *MC) SubscribeRepair(fn func(RepairEvent)) {
	mc.repairSubs = append(mc.repairSubs, fn)
}

// SubscribeChannelDown adds a listener for terminal channel loss. The
// listener learns the channel ID and the terminal error only; the real
// initiator stays MC-side (clients correlate by ID, which they were
// handed at setup).
func (mc *MC) SubscribeChannelDown(fn func(id uint64, err error)) {
	mc.downSubs = append(mc.downSubs, fn)
}

// emitRepair fans a repair event out to the subscribers.
func (mc *MC) emitRepair(ev RepairEvent) {
	for _, fn := range mc.repairSubs {
		fn(ev)
	}
}

// emitChannelDown fans a terminal channel loss out to the subscribers.
func (mc *MC) emitChannelDown(id uint64, err error) {
	for _, fn := range mc.downSubs {
		fn(id, err)
	}
}

// RegisterHiddenService maps a service nickname to its real host, the
// paper's MC-resident substitute for rendezvous points (Sec IV-D). The
// registration error deliberately names only the nickname: the real host
// behind a hidden service is exactly what the mapping exists to conceal.
// lint:secret ip
func (mc *MC) RegisterHiddenService(name string, ip addr.IP) error {
	if _, dup := mc.hidden[name]; dup {
		return fmt.Errorf("mic: hidden service %q already registered", name)
	}
	if mc.Net.HostByIP(ip) == nil {
		return fmt.Errorf("mic: hidden service %q names a host this fabric does not contain", name)
	}
	mc.hidden[name] = ip
	mc.journalHidden(name, ip)
	return nil
}

// ResolveTarget maps a dial target (hidden-service name or dotted-quad IP)
// to a host address.
func (mc *MC) ResolveTarget(target string) (addr.IP, error) {
	if ip, ok := mc.hidden[target]; ok {
		return ip, nil
	}
	ip, err := addr.ParseIP(target)
	if err != nil {
		return 0, fmt.Errorf("mic: target %q is neither a hidden service nor an address", target)
	}
	if mc.Net.HostByIP(ip) == nil {
		return 0, fmt.Errorf("mic: no host with address %v", ip)
	}
	return ip, nil
}

// idAllocator hands out m-flow IDs from [lo, hi), recycling expired ones
// (Sec IV-B3: "monotonically increase the ID ... and recover the expired
// ID"). Distributed controllers each get a disjoint [lo, hi).
type idAllocator struct {
	next uint32
	lo   uint32
	hi   uint32
	free []uint32
	// held tracks the IDs currently allocated. It guards release against
	// double-free: an unconditional free-list append would hand the same
	// flow ID to two live channels on the next two allocs, silently
	// cross-wiring their MAGA address chains.
	held map[uint32]bool
}

func newIDAllocator(lo, hi uint32) *idAllocator {
	return &idAllocator{next: lo, lo: lo, hi: hi, held: make(map[uint32]bool)}
}

func (a *idAllocator) alloc() (uint32, error) {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		a.held[id] = true
		return id, nil
	}
	if a.next >= a.hi {
		return 0, fmt.Errorf("mic: m-flow ID space [%d, %d) exhausted", a.lo, a.hi)
	}
	id := a.next
	a.next++
	a.held[id] = true
	return id, nil
}

// release returns an ID to the free list. Releasing an ID that is not
// currently held — double release, out of range, never allocated — is a
// no-op rather than a corruption.
func (a *idAllocator) release(id uint32) {
	if !a.held[id] {
		return
	}
	delete(a.held, id)
	a.free = append(a.free, id)
}

// releaseFlow returns an m-flow's two IDs, forward then reverse. The order prices
// virtual time: the free list is LIFO, so the next flow allocated takes this
// one's reverse ID as its forward ID, and every MAGA address minted for it
// follows from that.
func (a *idAllocator) releaseFlow(r flowRes) {
	a.release(r.fwdID)
	a.release(r.revID)
}

// restore rebuilds allocator state after journal replay: next becomes the
// journaled high-water mark, held the IDs live channels hold and the free
// list every other ID below next, in ascending order. Replay cannot re-run
// the original alloc/release interleaving — failed setups allocated and
// released IDs without journaling, permuting the LIFO free list — so the
// free list is normalized instead. Deterministic, and collision-free by
// construction: every live ID is excluded from both the free list and the
// next counter.
func (a *idAllocator) restore(next uint32, inUse map[uint32]bool) {
	next = min(max(next, a.lo), a.hi)
	a.next = next
	a.free = a.free[:0]
	a.held = make(map[uint32]bool)
	for id := a.lo; id < next; id++ {
		if inUse[id] {
			a.held[id] = true
		} else {
			a.free = append(a.free, id)
		}
	}
}
