package mic

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"mic/internal/addr"
	"mic/internal/ctrlplane"
	"mic/internal/flowtable"
	"mic/internal/sim"
	"mic/internal/topo"
)

// ChannelOptions override the MC defaults per request, the paper's
// user-chosen privacy/performance trade (m-flow number F and MN number N
// travel in the encrypted request packet).
type ChannelOptions struct {
	MFlows          int
	MNs             int
	MulticastFanout int
}

func (o ChannelOptions) withDefaults(c Config) ChannelOptions {
	if o.MFlows == 0 {
		o.MFlows = c.MFlows
	}
	if o.MNs == 0 {
		o.MNs = c.MNs
	}
	if o.MulticastFanout == 0 {
		o.MulticastFanout = c.MulticastFanout
	}
	return o
}

// tuple is one hop's header state: the (m_src_ip, m_dst_ip, mpls)
// three-tuple the paper uses to identify an m-flow on a switch.
type tuple struct {
	src, dst addr.IP
	label    addr.Label
	tagged   bool
}

func (t tuple) match() flowtable.Match {
	m := flowtable.Match{
		Mask:  flowtable.MatchIPSrc | flowtable.MatchIPDst,
		IPSrc: t.src, IPDst: t.dst,
	}
	if t.tagged {
		m.Mask |= flowtable.MatchMPLS
		m.MPLS = t.label
	} else {
		m.Mask |= flowtable.MatchNoMPLS
	}
	return m
}

// EstablishChannel serves one channel request from initiator to target
// (hidden-service name or dotted-quad IP). The callback fires on the
// virtual timeline after the request round trip and rule installation
// complete — the interval a client measures as "MIC connect" time (Fig 7).
func (mc *MC) EstablishChannel(initiator addr.IP, target string, opts ChannelOptions, cb func(*ChannelInfo, error)) {
	mc.establish(0, initiator, target, opts, cb)
}

// establish is EstablishChannel for request req: a Cluster's request ID,
// which the channel keeps and the journal carries, or 0 for none. A request
// whose ID a live channel holds is answered with that channel.
func (mc *MC) establish(req uint64, initiator addr.IP, target string, opts ChannelOptions, cb func(*ChannelInfo, error)) {
	mc.Requests++
	d := &dial{mc: mc, req: req, initiator: initiator, target: target, opts: opts.withDefaults(mc.Cfg), cb: cb}
	d.step = d.run
	// A live controller that is not the acting master refuses new dials
	// outright. This is the step-down contract: a deposed active answers
	// ErrNotActive (after the request round trip) instead of planning
	// channels it has no authority to install (a Cluster sends requests to
	// the acting life only). A crashed MC stays silent — dead processes
	// don't answer — and the gate below drops the request as before.
	if !mc.down && !mc.active {
		d.reply(2*requestLatency, ErrNotActive)
		return
	}
	// Request packet: sealed by the client, opened by the MC. Both handling
	// steps are gated on controller liveness: a request in flight when the MC
	// dies simply vanishes, like any message to a dead process, and the
	// Cluster sends it to the successor once the takeover is done.
	mc.Net.CPU.Charge("crypto", 2*RequestCryptoCost)
	d.next(dialRequest, requestLatency)
}

// dial is one channel request's way through the MC, from the request packet
// to the answer, as one record whose one step runs every stage. The stages
// are linear — each schedules the next, or hands the record to admission or
// to the southbound channel, which call back once — so at most one engine
// event names the record, besides a queued request's admission deadline.
//
// A gated stage runs only while the MC lives in the incarnation stamped
// when the stage was scheduled: a request in flight when its controller died
// or stepped down must not act on the state a later life rebuilt. The answer
// is not gated: once sent it arrives, like any message already on the wire.
// Records are never reused, since an engine event cannot be taken back and
// one firing on a reused record would read the new request's incarnation.
type dial struct {
	mc        *MC
	req       uint64 // the request ID, 0 for none
	initiator addr.IP
	stage     dialStage // what the next step does
	dequeued  bool      // admission: the request left the queue, granted a token or shed
	target    string
	opts      ChannelOptions
	cb        func(*ChannelInfo, error)

	inc  uint64        // the incarnation a gated stage, or the queue deadline, runs in
	step func()        // run, bound once: every engine event of the chain
	st   *channelState // the channel planned for the request
	err  error         // the answer's refusal; nil answers with st.info
}

// dialStage is what a dial's next step does.
type dialStage uint8

const (
	dialRequest dialStage = iota // gated: the request reaches the MC and asks admission
	dialInstall                  // gated: the planner is done; install the channel's rules
	dialAnswer                   // the answer reaches the client
)

// next schedules stage after delay, gated on the incarnation of now.
func (d *dial) next(stage dialStage, delay time.Duration) {
	d.stage, d.inc = stage, d.mc.incarnation
	d.mc.Net.Eng.After(delay, d.step)
}

// reply sends the client its answer — err, or the channel if err is nil —
// which arrives after delay.
func (d *dial) reply(delay time.Duration, err error) {
	d.stage, d.err = dialAnswer, err
	d.mc.Net.Eng.After(delay, d.step)
}

// run is the dial's one step.
func (d *dial) run() {
	if d.stage == dialAnswer {
		if d.err != nil {
			d.cb(nil, d.err)
		} else {
			d.cb(d.st.info, nil)
		}
		return
	}
	if !d.live() {
		return
	}
	switch d.stage {
	case dialRequest:
		if d.st = d.mc.requested(d.req); d.st != nil {
			d.mc.Net.CPU.Charge("crypto", 2*RequestCryptoCost)
			d.reply(requestLatency, nil)
			return
		}
		// Admission control (admission.go): the request either gets a token
		// now, waits in the bounded queue, or is refused with a typed
		// ErrOverloaded — never silently dropped.
		d.mc.admit(d)
	case dialInstall:
		d.install()
	}
}

// live reports whether the MC still lives in the incarnation the dial's
// gated stage was scheduled in.
func (d *dial) live() bool {
	return !d.mc.down && d.inc == d.mc.incarnation
}

// serveChannel is the admitted half of EstablishChannel: planning, rule
// installation, acknowledgement. Planning itself runs synchronously (the
// plan must exist before anything can be installed), but its CPU cost is
// modeled by serializing requests through the controller's planning cores
// (mc.cpuFree): each admitted dial takes the core that is free first, the
// lowest on ties, and its installation is deferred until that core would
// actually have finished planning it, so a storm of dials queues behind the
// controller's plan throughput exactly as on real hardware.
func (mc *MC) serveChannel(d *dial) {
	mc.planCost = 0
	st, err := mc.computeChannel(d.req, d.initiator, d.target, d.opts)
	cost := mc.planCost
	mc.planCost = 0
	mc.Net.CPU.Charge("mc", cost)
	if err != nil {
		d.reply(requestLatency, err)
		return
	}
	core := 0
	for i, free := range mc.cpuFree {
		if free < mc.cpuFree[core] {
			core = i
		}
	}
	now := mc.Net.Eng.Now()
	mc.cpuFree[core] = max(mc.cpuFree[core], now).Add(cost)
	delay := mc.cpuFree[core].Sub(now)
	// Acknowledgement: sealed by the MC, opened by the client. The install
	// and its acknowledgement are gated on this incarnation.
	mc.Net.CPU.Charge("crypto", 2*RequestCryptoCost)
	d.st = st
	d.next(dialInstall, delay)
}

// requested returns the live channel opened for request req, if any; a
// standalone MC's dials carry none and look nothing up.
func (mc *MC) requested(req uint64) *channelState {
	if req == 0 {
		return nil
	}
	// lint:ignore detrange request IDs are unique, so at most one channel matches
	for _, st := range mc.channels {
		if st.req == req {
			return st
		}
	}
	return nil
}

// install sends the planned channel's rules, once the planner is done.
func (d *dial) install() {
	mc, st := d.mc, d.st
	// A repair or close may have come first: what goes out is the epoch the
	// channel has now (rules in place replace themselves), or nothing.
	if mc.channels[st.id] != st {
		d.reply(requestLatency, fmt.Errorf("mic: channel %d closed before its rules were installed", st.id))
		return
	}
	// One coalesced southbound message per switch, closed by a single
	// barrier — the installer stage of the pipeline.
	mc.Ch.InstallBatched(st.mods, d.installed)
}

// installed answers the client once the switches confirmed the install.
func (d *dial) installed(int) {
	if d.live() {
		d.reply(requestLatency, nil)
	}
}

// computeChannel performs the MC's routing calculation synchronously and
// returns the new channel, opened for request req; its mods are the table
// modifications to install.
func (mc *MC) computeChannel(req uint64, initiator addr.IP, target string, opts ChannelOptions) (*channelState, error) {
	respIP, err := mc.ResolveTarget(target)
	if err != nil {
		return nil, err
	}
	if mc.Net.Graph.HostByIP(initiator) == nil {
		// The refusal does not echo the address: the requester knows what it
		// sent, and the string also lands in shared failure paths.
		return nil, fmt.Errorf("mic: initiator is not a host on this fabric")
	}
	if respIP == initiator {
		return nil, fmt.Errorf("mic: initiator and responder are the same host")
	}
	if opts.MNs < 1 {
		return nil, fmt.Errorf("mic: need at least one Mimic Node, got %d", opts.MNs)
	}
	if opts.MFlows < 1 {
		return nil, fmt.Errorf("mic: need at least one m-flow, got %d", opts.MFlows)
	}
	if opts.MulticastFanout < 1 {
		return nil, fmt.Errorf("mic: multicast fanout must be at least 1, got %d", opts.MulticastFanout)
	}

	id := mc.nextChan
	mc.nextChan++
	st := &channelState{
		id:        id,
		req:       req,
		initiator: initiator,
		responder: respIP,
		opts:      opts,
		gen:       mc.generation,
		info:      &ChannelInfo{ID: id},
	}
	st.epochStore = mc.takeStore()
	mods := st.mods
	for len(st.res) < opts.MFlows {
		if mods, err = mc.computeFlow(st, nil, mods); err == nil {
			continue
		}
		// Degradation ladder: under table pressure, admit with fewer m-flows
		// (down to minFlows) before refusing outright. Only budget pressure
		// degrades — a routing failure still fails.
		if errors.Is(err, ErrOverloaded) && len(st.res) >= minFlows {
			mc.ChannelsDegraded++
			break
		}
		mc.unbook(st, st.res, st.info.Flows, st.rules)
		if errors.Is(err, ErrOverloaded) {
			mc.ChannelsRefused++
		}
		return nil, err
	}
	st.mods = mods
	mc.channels[id] = st
	// Journal the channel as intent before any rule lands: after a crash the
	// standby reconciles switches against intent, so a partially installed
	// channel is completed, never half-forgotten.
	mc.journalChannel(RecOpen, st)
	return st, nil
}

// computeFlow is the one transaction that adds an m-flow to a channel,
// composed of the pipeline stages (plan.go): planner (path + MN placement),
// allocator (flow IDs, entry/final addresses), templater (tuple chains +
// rules), the rule-budget check, and only then adoption — the flow's facts
// join st (res, info.Flows, rules, slabs), go on the books, and its rules
// are appended to mods as southbound modifications in the templater's
// emission order. Until adoption the flow holds nothing but its two IDs,
// which every error path hands back; on error st and mods are as they came.
//
// With fixed == nil the flow takes fresh endpoint resources and must fit the
// rule budget: a new dial's flow, or one restored to a degraded channel. A
// non-nil fixed re-routes a flow the channel was already admitted with — the
// repair path, which must not change what the endpoints see and is not
// subject to admission.
func (mc *MC) computeFlow(st *channelState, fixed *flowRes, mods []ctrlplane.Mod) ([]ctrlplane.Mod, error) {
	g := mc.Net.Graph
	plan, err := mc.planFlow(g.HostByIP(st.initiator).ID, g.HostByIP(st.responder).ID, st.opts)
	if err != nil {
		return mods, err
	}
	var res flowRes
	if fixed != nil {
		res = *fixed
	} else if res, err = mc.allocFlowRes(st, plan); err != nil {
		return mods, err
	}
	recs, slab, fi, groupsUsed := mc.templateFlow(plan, res, st.initiator, st.responder, st.opts, st.cookie(), mc.nextGroup, st.spareSlab())
	// Group numbering: the IDs a templated flow consumed stay consumed even
	// if it turns out not to fit, so later groups are numbered past them.
	mc.nextGroup += groupsUsed
	if fixed == nil {
		if node, over := mc.flowOverBudget(); over {
			mc.flowIDs.releaseFlow(res)
			return mods, fmt.Errorf("mic: rule budget exhausted on switch %s: %w", g.Node(node).Name, ErrOverloaded)
		}
	}
	// Adoption. A channel's m-flows are alike, so the first one sizes every
	// list for all of them.
	flows := max(st.opts.MFlows, 1)
	if len(st.rules) == 0 {
		st.res = slices.Grow(st.res, flows)
		st.info.Flows = slices.Grow(st.info.Flows, flows)
		st.rules = slices.Grow(st.rules, flows*len(recs))
		st.slabs = slices.Grow(st.slabs, flows)
	}
	if len(mods) == 0 {
		mods = slices.Grow(mods, flows*len(recs))
	}
	var fresh []flowRes
	if fixed == nil {
		st.res = append(st.res, res)
		fresh = st.res[len(st.res)-1:]
	}
	st.info.Flows = append(st.info.Flows, fi)
	st.rules = append(st.rules, recs...)
	st.slabs = append(st.slabs, slab)
	mc.book(st, fresh, st.info.Flows[len(st.info.Flows)-1:], recs)
	for _, rr := range recs {
		mods = append(mods, ctrlplane.Mod{Switch: mc.Net.Switch(rr.node), Entry: rr.entry, Group: rr.group})
	}
	return mods, nil
}

// rewriteActions adds to the slab's open action list the rewrite of `from`
// into `to` at a Mimic Node. Besides the IP pair, the MN also rewrites the MAC
// pair to the owners of the fake IPs, so layer-2 observation is equally misled
// (the paper's m-addresses cover "MAC, IP and port").
//
// This is THE sanctioned boundary where real endpoint addresses enter the
// data plane: the chain-end tuples T[0]/U[0] (initiator side of MN_1) and
// T[n]/U[n] (responder side of MN_n) carry the real pair by construction —
// the paper's positional exposure (Sec III/V). Everything between is
// MAGA-minted fakes.
func (mc *MC) rewriteActions(slab *flowtable.Slab, from, to tuple) {
	slab.Add(
		// lint:declassify addrleak mimic-rewrite install: chain-end tuples legitimately carry the real pair on the first/last segment (paper Sec III)
		flowtable.SetIPSrc(to.src),
		// lint:declassify addrleak mimic-rewrite install: same sanctioned boundary as the source rewrite above
		flowtable.SetIPDst(to.dst),
	)
	if h := mc.Net.Graph.HostByIP(to.src); h != nil {
		// lint:declassify addrleak MAC of the tuple owner; real only at chain ends, same boundary as the IP rewrite
		slab.Add(flowtable.SetEthSrc(h.MAC))
	}
	if h := mc.Net.Graph.HostByIP(to.dst); h != nil {
		// lint:declassify addrleak MAC of the tuple owner; real only at chain ends, same boundary as the IP rewrite
		slab.Add(flowtable.SetEthDst(h.MAC))
	}
	switch {
	case !from.tagged && to.tagged:
		slab.Add(flowtable.PushMPLS(to.label))
	case from.tagged && !to.tagged:
		slab.Add(flowtable.PopMPLS())
	case from.tagged && to.tagged:
		slab.Add(flowtable.SetMPLS(to.label))
	}
}

// maxMNActions bounds the action list of a Mimic Node's rule or of a decoy
// bucket: the four address rewrites, one label operation and the output.
const maxMNActions = 6

// decoyRule records a drop rule to install at a decoy's next hop.
type decoyRule struct {
	node topo.NodeID
	t    tuple
}

// buildMulticast assembles the partial-multicast ALL group at an edge MN
// (Sec IV-C, Fig 6): bucket 0 carries the real rewrite; each extra bucket
// rewrites a clone to a decoy m-address and sends it out a different
// switch-facing port, where a drop rule kills it one hop later. The group
// ID is supplied by the templater's local counter (mc.nextGroup advances
// only when a templated flow is adopted); the decoy buckets' action lists are
// carved from the m-flow's slab.
func (mc *MC) buildMulticast(slab *flowtable.Slab, node, prevNode, nextNode topo.NodeID, realActions []flowtable.Action, arriving tuple, flowID uint32, fanout int, gid flowtable.GroupID) (*flowtable.Group, []decoyRule) {
	g := mc.Net.Graph
	grp := &flowtable.Group{ID: gid}
	grp.Buckets = append(grp.Buckets, flowtable.Bucket{Actions: realActions})
	realOut := g.PortTo(node, nextNode)
	inPort := g.PortTo(node, prevNode)
	var decoys []decoyRule
	for port, p := range g.Node(node).Ports {
		if len(grp.Buckets) >= fanout {
			break
		}
		if port == realOut || port == inPort || g.Node(p.Peer).Kind != topo.KindSwitch {
			continue
		}
		dt := mc.mint(node, flowID, inPort, port, excludeNone)
		mark := slab.Mark()
		mc.rewriteActions(slab, arriving, dt)
		slab.Add(flowtable.Output(port))
		grp.Buckets = append(grp.Buckets, flowtable.Bucket{Actions: slab.Since(mark)})
		decoys = append(decoys, decoyRule{node: p.Peer, t: dt})
	}
	return grp, decoys
}

// selectPath picks a route: a random equal-cost shortest path when one has
// enough switches, otherwise a longer path per the paper's extension rule.
// Failed links and switches (the MC's global view includes liveness) are
// never routed through.
func (mc *MC) selectPath(src, dst topo.NodeID, minSwitches int) (topo.Path, error) {
	g := mc.Net.Graph
	cands := mc.aliveSegs(0, src, dst, mc.lookupPaths(src, dst, -1, func() []topo.Path {
		return g.EqualCostPaths(src, dst, maxEqualCostPaths)
	}))
	if len(cands) > 0 && mc.joinScratch(src, cands[0], dst).SwitchCount(g) >= minSwitches {
		return mc.pickPath(src, dst, cands), nil
	}
	longer := mc.aliveSegs(1, src, dst, mc.lookupPaths(src, dst, minSwitches, func() []topo.Path {
		return g.PathsWithMinSwitches(src, dst, minSwitches, minSwitches+6, 64)
	}))
	if len(longer) > 0 {
		return mc.pickPath(src, dst, longer), nil
	}
	if len(cands) > 0 {
		// Degrade: the caller clamps the MN count to the path's switches.
		return mc.pickPath(src, dst, cands), nil
	}
	// Routing refusals reach the dialing client; naming the endpoints here
	// would hand the initiator the responder's real host (and a hidden
	// service's real location).
	return nil, fmt.Errorf("mic: no live path between the endpoints")
}

// joinScratch assembles the path src, seg..., dst in the MC's scratch buffer:
// a candidate made concrete just long enough to be examined. The result is
// valid until the next call.
func (mc *MC) joinScratch(src topo.NodeID, seg []topo.NodeID, dst topo.NodeID) topo.Path {
	sc := &mc.scratch
	sc.path = append(append(append(sc.path[:0], src), seg...), dst)
	return sc.path
}

// aliveSegs filters out candidates crossing failed links or switches. The
// survivors go into the MC's candidate buffer number which — selectPath
// holds two sets at once — and are valid until the next call on that buffer.
func (mc *MC) aliveSegs(which int, src, dst topo.NodeID, segs [][]topo.NodeID) [][]topo.NodeID {
	out := mc.scratch.cands[which][:0]
	for _, seg := range segs {
		if mc.pathAlive(mc.joinScratch(src, seg, dst)) {
			out = append(out, seg)
		}
	}
	mc.scratch.cands[which] = out
	return out
}

// pickPath applies the configured path policy over equal candidates and
// returns the chosen one as a path of its own — the only candidate that is
// ever materialised. PathLeastLoaded weighs each candidate's links between its
// first and last switch: the two host access links are on every candidate, so
// once they carried the channel's earlier m-flows they would be every
// candidate's maximum and every pick a tie. Of the rest the most loaded
// decides, then the sum: on fat-tree(4) a second m-flow takes the other edge
// uplink, after which both uplinks carry one and only the core links still
// tell the candidates apart.
func (mc *MC) pickPath(src, dst topo.NodeID, cands [][]topo.NodeID) topo.Path {
	if mc.Cfg.PathPolicy != PathRandom && len(cands) > 1 {
		g := mc.Net.Graph
		best, bestSum := -1, 0
		winners := mc.scratch.cands[2][:0]
		for _, seg := range cands {
			p := mc.joinScratch(src, seg, dst)
			worst, sum := 0, 0
			for i := 1; i+2 < len(p); i++ {
				load := mc.linkLoad[mc.linkIndex(linkKey{p[i], g.PortTo(p[i], p[i+1])})]
				worst, sum = max(worst, load), sum+load
			}
			switch {
			case best < 0 || worst < best || worst == best && sum < bestSum:
				best, bestSum = worst, sum
				winners = append(winners[:0], seg)
			case worst == best && sum == bestSum:
				winners = append(winners, seg)
			}
		}
		mc.scratch.cands[2] = winners
		cands = winners
	}
	seg := sim.Pick(mc.pathRng, cands)
	path := make(topo.Path, 0, len(seg)+2)
	return append(append(append(path, src), seg...), dst)
}

// book puts facts of channel st on the MC's shared tables and unbook takes
// them off; no table is written anywhere else, by live serving or by journal
// replay, so what the tables hold is the sum over the live channels' facts by
// construction (checkBooks recomputes it). Each kind of fact feeds its own
// tables:
//
//	res    entryInUse, the (endpoint, fake peer) reservations, and the
//	       flow-ID allocator — which holds an ID from the moment alloc draws
//	       it, so book has nothing to add there and only unbook gives IDs
//	       back. While a standby replays, its allocator holds nothing and
//	       the give-back is a no-op; finishRestore rebuilds it whole from the
//	       replayed channels' res;
//	flows  per directed link of each Path, both ways: linkLoad (one per
//	       m-flow, what PathLeastLoaded minimises) and linkChannels; per
//	       switch of each Path: nodeChannels — the two indexes that map a
//	       failure event to its victim channels in one lookup;
//	rules  ruleCount, the per-switch count of intended m-flow entries the
//	       rule budgets are checked against (groups live in the unbounded
//	       group table and do not count).
//
// A caller names the facts a step adds or removes: a flow being adopted books
// its own res, path and rules; a close takes res and paths off at once and
// the rules when the switches have confirmed the deletes. Paths come off only
// a whole channel at a time — the indexes are sets, so dropping one flow's
// links would drop the channel from links its other flows still cross.
func (mc *MC) book(st *channelState, res []flowRes, flows []FlowInfo, rules []ruleRec) {
	for _, r := range res {
		mc.entryInUse[[2]addr.IP{st.initiator, r.entry}] = true
		mc.entryInUse[[2]addr.IP{st.responder, r.finalSrc}] = true
	}
	g := mc.Net.Graph
	for _, f := range flows {
		for i, node := range f.Path {
			if g.Node(node).Kind == topo.KindSwitch {
				mc.nodeChannels[node] = addID(mc.nodeChannels[node], st.id)
			}
			if i+1 < len(f.Path) {
				for _, l := range mc.linkPair(node, f.Path[i+1]) {
					mc.linkLoad[l]++
					mc.linkChannels[l] = addID(mc.linkChannels[l], st.id)
				}
			}
		}
	}
	for _, rr := range rules {
		mc.ruleCount[rr.node]++
	}
}

// unbook is book's inverse. Flow IDs go back forward then reverse per flow,
// in res order (idAllocator.releaseFlow). A link's or switch's set keeps its
// storage when it empties — the next channel routed there reuses it, and the
// fabric bounds how many there can be.
func (mc *MC) unbook(st *channelState, res []flowRes, flows []FlowInfo, rules []ruleRec) {
	for _, r := range res {
		mc.flowIDs.releaseFlow(r)
		delete(mc.entryInUse, [2]addr.IP{st.initiator, r.entry})
		delete(mc.entryInUse, [2]addr.IP{st.responder, r.finalSrc})
	}
	g := mc.Net.Graph
	for _, f := range flows {
		for i, node := range f.Path {
			if g.Node(node).Kind == topo.KindSwitch {
				mc.nodeChannels[node] = dropID(mc.nodeChannels[node], st.id)
			}
			if i+1 < len(f.Path) {
				for _, l := range mc.linkPair(node, f.Path[i+1]) {
					if mc.linkLoad[l] > 0 {
						mc.linkLoad[l]--
					}
					mc.linkChannels[l] = dropID(mc.linkChannels[l], st.id)
				}
			}
		}
	}
	for _, rr := range rules {
		if mc.ruleCount[rr.node] > 0 {
			mc.ruleCount[rr.node]--
		}
	}
}

// linkPair returns the dense numbers of the two directed links between
// adjacent nodes a and b.
func (mc *MC) linkPair(a, b topo.NodeID) [2]int {
	ap, bp := mc.Net.Graph.Cable(a, b)
	return [2]int{mc.linkIndex(linkKey{a, ap}), mc.linkIndex(linkKey{b, bp})}
}

// linkIndex returns a directed link's dense number.
func (mc *MC) linkIndex(lk linkKey) int { return mc.linkBase[lk.node] + lk.port }

// resetLoad empties the link-load table and both failure indexes.
func (mc *MC) resetLoad() {
	links := mc.linkBase[len(mc.linkBase)-1]
	mc.linkLoad = make([]int, links)
	mc.linkChannels = make([][]uint64, links)
	mc.nodeChannels = make([][]uint64, len(mc.linkBase)-1)
}

// addID adds id to an unordered duplicate-free set. A channel's own charges
// arrive together, so the scan runs from the newest member back.
func addID(set []uint64, id uint64) []uint64 {
	for i := len(set) - 1; i >= 0; i-- {
		if set[i] == id {
			return set
		}
	}
	return append(set, id)
}

// dropID removes id from an unordered set, if present.
func dropID(set []uint64, id uint64) []uint64 {
	i := slices.Index(set, id)
	if i < 0 {
		return set
	}
	last := len(set) - 1
	set[i] = set[last]
	return set[:last]
}

// pathAlive reports whether no switch or link of p has failed.
func (mc *MC) pathAlive(p topo.Path) bool {
	if mc.Net.AllUp() {
		return true
	}
	g := mc.Net.Graph
	for i, node := range p {
		if g.Node(node).Kind == topo.KindSwitch && mc.Net.Switch(node).Down {
			return false
		}
		if i+1 < len(p) {
			if mc.Net.LinkDown(node, g.PortTo(node, p[i+1])) {
				return false
			}
		}
	}
	return true
}

// RepairChannel recomputes every m-flow of a live channel around failed
// links/switches and reinstalls its rules, preserving the endpoint-visible
// addresses and flow IDs so established connections keep working (their
// retransmissions simply take the new path). cb receives the outcome.
func (mc *MC) RepairChannel(id uint64, cb func(error)) {
	st, ok := mc.channels[id]
	if !ok {
		mc.Net.Eng.After(0, func() { cb(fmt.Errorf("mic: unknown channel %d", id)) })
		return
	}
	// The new epoch is built beside the old one — same channel, same res, the
	// next cookie — and takes its place only when every flow has a route, so
	// an unrepairable failure leaves the channel exactly as it was. While it
	// is planned the old epoch's paths and rules are off the books (a
	// least-loaded pick must not count the channel's own old routes against
	// its new ones) and each re-routed flow books itself; they go back on if
	// a flow finds no path.
	next := &channelState{
		id:        id,
		initiator: st.initiator,
		responder: st.responder,
		opts:      st.opts,
		epoch:     st.epoch + 1,
		gen:       mc.generation,
		info:      &ChannelInfo{ID: id},
		res:       st.res,
	}
	next.epochStore = mc.takeStore()
	mc.unbook(st, nil, st.info.Flows, st.rules)
	mods := next.mods
	for i := range next.res {
		var err error
		if mods, err = mc.computeFlow(next, &next.res[i], mods); err != nil {
			mc.unbook(next, nil, next.info.Flows, next.rules)
			mc.book(st, nil, st.info.Flows, st.rules)
			mc.Net.Eng.After(0, func() { cb(err) })
			return
		}
	}
	// Make-before-break: install the new epoch's rules first (identical
	// matches replace in place), then delete the old epoch everywhere. At no
	// instant is the m-flow without rules, so no packet can fall through to
	// common routing and leak toward an m-address's real owner. Both are
	// messages of the channel's owner, so each switch applies them in that
	// order, after any install of the old epoch still out.
	//
	// Update the existing ChannelInfo in place: clients hold a pointer to
	// it, so they observe the repaired paths without a new round trip.
	// The old epoch's store goes with its purge, which recycles it if this
	// life, which carved it, is still the MC's when the purge is answered.
	old := st.epochStore
	purge := &epochDelete{mc: mc, store: &old, inc: mc.incarnation}
	oldSwitches, oldCookie := st.switches(nil), st.cookie()
	next.mods = mods
	*st.info = *next.info
	st.epochStore, st.epoch, st.gen = next.epochStore, next.epoch, next.gen
	mc.journalChannel(RecUpdate, st)
	mc.Ch.Install(mods, func(failed int) {
		// The channel is repaired once the new epoch is installed; the old
		// epoch's deletion is housekeeping that proceeds in the background
		// (and may have to wait for dead switches to resurrect).
		if failed > 0 {
			cb(fmt.Errorf("mic: repair of channel %d incomplete: %d rule installs unacknowledged", id, failed))
		} else {
			cb(nil)
		}
		mc.deleteEpoch(purge, oldSwitches, oldCookie)
	})
}

// deleteEpoch deletes one rule epoch of a channel — a repair's superseded
// one or a closing channel's last — from every switch it was installed on,
// in the order given (channelState.switches: ascending), and finishes d once
// every switch has answered or been given up on, confirmed when every one
// answered. A switch's answer also takes the epoch's groups off it: the
// delete applied after every install of them sent there. A dead
// switch, or a live one that never acknowledges the delete, is handed to the
// MC to reconcile: at once if it is up, when it reconnects if not (a
// restarting switch comes back with whatever rules it had).
func (mc *MC) deleteEpoch(d *epochDelete, switches []topo.NodeID, cookie uint64) {
	d.remaining = len(switches)
	if len(switches) == 0 {
		if d.closed != nil {
			mc.Net.Eng.After(0, func() { d.finish(true) })
		}
		return
	}
	answered := d.answered // one function for every switch's answer
	for _, node := range switches {
		if sw := mc.Net.Switch(node); sw.Down {
			answered(node, -1)
		} else {
			mc.Ch.DeleteByCookie(sw, cookie, answered)
		}
	}
}

// epochDelete is one deleteEpoch: what its switches' answers share, and what
// follows the last of them — a close's finish, or the recycling of a
// repair's superseded store.
type epochDelete struct {
	mc        *MC
	store     *epochStore // the epoch's rules and their storage
	remaining int
	stale     bool // some switch did not confirm

	closed *channelState // a close: the channel closed
	cb     func()        // a close: the caller's callback, may be nil
	inc    uint64        // a repair's purge: the incarnation that carved the store
}

func (d *epochDelete) answered(node topo.NodeID, removed int) {
	// Group IDs are never reused, so no later epoch's group is among these.
	for _, rr := range d.store.rules {
		if rr.node == node && rr.group != nil {
			d.mc.Net.Switch(node).Table.DeleteGroup(rr.group.ID)
		}
	}
	if removed < 0 {
		d.mc.reconcile(node)
		d.stale = true
	}
	if d.remaining--; d.remaining == 0 {
		d.finish(!d.stale)
	}
}

// finish follows the epoch's last answer. A close releases the rule budget
// only now: until every switch has acknowledged its deletes the slots are
// still physically occupied, and releasing early would let a dial admitted
// during the delete window install into a still-full table — refused under
// the deny-new policy and silently blackholed. For the same reason the
// degraded-channel restore fires after the last ack, so its install lands on
// freed slots. That part is gated on the MC being alive when the answer
// arrives: a promoted life rebuilds its own accounting. A repair's purge
// recycles the superseded store, gated on the life that carved it.
func (d *epochDelete) finish(confirmed bool) {
	mc := d.mc
	if st := d.closed; st != nil {
		if !mc.down {
			mc.unbook(st, nil, nil, st.rules)
			if confirmed {
				mc.recycle(d.store)
			}
			mc.maybeRestoreDegraded()
		}
		if d.cb != nil {
			d.cb()
		}
		return
	}
	if confirmed && !mc.down && d.inc == mc.incarnation {
		mc.recycle(d.store)
	}
}

// mint draws Mimic Node mn's m-address for flowID on the link segment
// between its ports in and out: a fake source plausible arriving on in, a
// fake destination plausible leaving by out, neither an excluded host, and
// the label binding them to flowID.
func (mc *MC) mint(mn topo.NodeID, flowID uint32, in, out int, ex excluded) tuple {
	src, dst := mc.reach.via(mn, in, ex), mc.reach.via(mn, out, ex)
	gen := mc.gens[mn]
	i, j := gen.Draw(src.Len(), dst.Len())
	s, d := src.At(i), dst.At(j)
	return tuple{src: s, dst: d, label: gen.Label(flowID, s, d), tagged: true}
}

// poolAhead returns plausible entry addresses: hosts beyond firstSwitchPos
// along the path, from the first switch's forward egress.
func (mc *MC) poolAhead(path topo.Path, firstSwitchPos int, ex excluded) poolView {
	g := mc.Net.Graph
	sw := path[firstSwitchPos]
	return mc.reach.via(sw, g.PortTo(sw, path[firstSwitchPos+1]), ex)
}

// poolBehind returns plausible final sources: hosts behind lastSwitchPos
// (on the initiator side), from the last switch's reverse egress.
func (mc *MC) poolBehind(path topo.Path, lastSwitchPos int, ex excluded) poolView {
	g := mc.Net.Graph
	sw := path[lastSwitchPos]
	return mc.reach.via(sw, g.PortTo(sw, path[lastSwitchPos-1]), ex)
}

// pickFake picks an address from pool that is not reserved for endpoint: one
// pathRng draw for the starting point (none from an empty pool), then the
// first free address scanning on from there. The reservation itself is
// booked when the flow is adopted (book); a flow's two picks are for
// different endpoints, so they cannot collide with each other meanwhile.
func (mc *MC) pickFake(endpoint addr.IP, pool poolView) (addr.IP, error) {
	n := pool.Len()
	if n == 0 {
		return 0, fmt.Errorf("mic: no plausible fake addresses available")
	}
	start := mc.pathRng.Intn(n)
	for i := 0; i < n; i++ {
		if ip := pool.At((start + i) % n); !mc.entryInUse[[2]addr.IP{endpoint, ip}] {
			return ip, nil
		}
	}
	// Exhaustion is transient pressure, not a routing defect: reservations
	// free as channels close, so the refusal is typed retryable and feeds
	// the degradation ladder like any other budget miss. The endpoint the
	// pool is reserved against stays out of the string — for responder-side
	// pools it is the real address the refusal's recipient dialed blind.
	return 0, fmt.Errorf("mic: all %d plausible fake addresses are in use: %w", n, ErrOverloaded)
}

// cookie derives the flow-table cookie for a channel's current rule epoch
// (ctrlplane.RuleCookie; the channel's ID is offset past
// ctrlplane.CookieCommon). Repairs bump the epoch so new rules can be
// installed BEFORE the previous epoch's rules are deleted: overlapping
// entries (same match, same priority) are replaced in place and survive the
// old epoch's deletion, leaving no window in which m-flow traffic can leak
// into common routing. The controller generation makes rules installed by a
// life that has since been replaced identifiable by cookie alone, the handle
// takeover reconciliation and stale-rule purging key on.
func (st *channelState) cookie() uint64 {
	return ctrlplane.RuleCookie(st.id+2, st.epoch, st.gen)
}

// mflowCookie reports whether a cookie tags an m-flow rule. Proactive common
// routing uses CookieCommon and default entries use zero; every m-flow
// cookie is offset past both (see channelState.cookie).
func mflowCookie(cookie uint64) bool { return cookie > ctrlplane.CookieCommon }

// cookieChannel recovers the channel a rule cookie was built for: RuleCookie
// keeps the epoch and the generation in the bits a zero ID leaves clear.
func cookieChannel(cookie uint64) uint64 {
	return cookie&^ctrlplane.RuleCookie(0, ^uint32(0), ^uint32(0)) - 2
}

// CloseChannel tears down a channel: deletes its rules everywhere, frees
// its flow IDs and address reservations. cb (may be nil) fires after the
// deletions are acknowledged.
func (mc *MC) CloseChannel(id uint64, cb func()) error {
	st, ok := mc.channels[id]
	if !ok {
		return fmt.Errorf("mic: unknown channel %d", id)
	}
	delete(mc.channels, id)
	mc.journalClose(id)
	mc.unbook(st, st.res, st.info.Flows, nil)
	// Rule-budget intent is released only once every switch has
	// acknowledged its deletes (epochDelete.finish).
	mc.scratch.switches = st.switches(mc.scratch.switches)
	mc.deleteEpoch(&epochDelete{mc: mc, store: &st.epochStore, closed: st, cb: cb}, mc.scratch.switches, st.cookie())
	return nil
}

// recycle puts the store of an epoch whose rules are gone — a closed
// channel's, or a repair's superseded one — on the free list, where the next
// channel or repair epoch builds its rules in it: the rule and mod lists
// refilled, each slab carved again from the start. That overwrites every
// entry and action list the epoch had, so the store goes back only when
// nothing can reach them any more:
//
//   - every switch confirmed the epoch's delete (epochDelete.finish's
//     confirmed): no switch was left marked, so no table holds an entry, and
//     no southbound message that carried them is out — each delete applied
//     after every one sent to its switch, and none went to a switch the epoch
//     has no rule on. A frame that looked a rule up before its delete ran its
//     actions a switch latency later, inside the delete's acknowledgement
//     round trip;
//   - this controller life templated it (slabs is not empty): a channel
//     rebuilt from the journal carries another life's entries, which a
//     standby holds too.
//
// Anything else is left to the collector.
func (mc *MC) recycle(s *epochStore) {
	if len(s.slabs) == 0 {
		return
	}
	for i := range s.slabs {
		s.slabs[i].Reset()
	}
	clear(s.rules)
	clear(s.mods)
	mc.storeFree = append(mc.storeFree, epochStore{rules: s.rules[:0], slabs: s.slabs[:0], mods: s.mods[:0]})
}

// takeStore hands a new epoch the most recently recycled store, or an empty
// one.
func (mc *MC) takeStore() epochStore {
	last := len(mc.storeFree) - 1
	if last < 0 {
		return epochStore{}
	}
	s := mc.storeFree[last]
	mc.storeFree[last] = epochStore{}
	mc.storeFree = mc.storeFree[:last]
	return s
}

// switches appends to nodes[:0] where the channel has rules, ascending and
// duplicate-free — the order its deletes (and a superseded epoch's purge) go
// out in. A channel crosses a dozen switches at most.
func (st *channelState) switches(nodes []topo.NodeID) []topo.NodeID {
	nodes = slices.Grow(nodes[:0], len(st.rules))
	for _, rr := range st.rules {
		nodes = append(nodes, rr.node)
	}
	slices.Sort(nodes)
	return slices.Compact(nodes)
}

// LiveChannels reports how many channels are currently established.
func (mc *MC) LiveChannels() int { return len(mc.channels) }

// mnIndexAt returns which MN (0-based) sits at path position pi, or -1.
func mnIndexAt(mnPos []int, pi int) int {
	for i, p := range mnPos {
		if p == pi {
			return i
		}
	}
	return -1
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
