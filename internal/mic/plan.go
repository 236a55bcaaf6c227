package mic

import (
	"slices"

	"mic/internal/addr"
	"mic/internal/ctrlplane"
	"mic/internal/flowtable"
	"mic/internal/topo"
)

// This file holds the stages computeFlow (rules.go) composes into the one
// per-flow transaction:
//
//	planFlow      — planner: path selection (through the plan cache) and MN
//	                placement. Touches no channel bookkeeping; its only side
//	                effects are RNG stream advances and plan-cost accounting.
//	allocFlowRes  — allocator: two flow IDs and the entry/final addresses.
//	                The IDs are the only thing a flow holds before it is
//	                adopted; a failure here or later hands them back.
//	templateFlow  — templater: MAGA tuple chains and the rewrite/forward
//	                rule set, built as free-standing ruleRecs with no writes
//	                to MC or channel state.
//
// computeFlow then checks the rule budget and adopts the flow: its facts join
// the channel, go on the books and become southbound Mods. New dials, repairs
// and degraded-channel restores all go through it; serveChannel uses the
// stage costs to pipeline many requests through one controller's serialized
// planning CPU (mic.cpuFree).

// flowPlan is the planner's output for one m-flow: the chosen path and the
// Mimic Node placement on it. It references no allocated resources, so a
// plan can be dropped at zero cost. path and mnIDs are the plan's own (the
// client's FlowInfo keeps them); swPos and mnPos live in the MC's planScratch
// and are valid until the next planFlow.
type flowPlan struct {
	path  topo.Path
	swPos []int         // switch positions within path
	mnPos []int         // MN positions within path, ascending
	mnIDs []topo.NodeID // the MN switches, in path order
	n     int           // effective MN count after degrade clamping
}

// planScratch holds what the pipeline stages need only until the m-flow they
// are building is adopted, reused from one m-flow to the next: computeFlow is
// synchronous and never re-entered.
type planScratch struct {
	path  topo.Path          // selectPath: the candidate being examined
	cands [3][][]topo.NodeID // selectPath: alive, longer-alive and least-loaded candidates

	swPos, mnPos, perm []int
	fwd, rev           []tuple   // templateFlow's tuple chains
	recs               []ruleRec // templateFlow's output, consumed by computeFlow

	switches []topo.NodeID // CloseChannel: the switch list deleteEpoch walks at once
}

// planFlow selects a path and places opts.MNs Mimic Nodes on it, clamped to
// the path's switch count: when no path offers that many switches the MC
// degrades gracefully and uses as many MNs as the best path allows (same-ToR
// host pairs in a fat-tree admit only one switch on any simple path). It
// mutates no MC bookkeeping —
// path-load charging and resource allocation are later stages.
func (mc *MC) planFlow(initNode, respNode topo.NodeID, opts ChannelOptions) (flowPlan, error) {
	g := mc.Net.Graph
	path, err := mc.selectPath(initNode, respNode, opts.MNs)
	if err != nil {
		return flowPlan{}, err
	}
	// Switch positions within the path (hosts occupy the two ends; BCube
	// paths may also transit hosts, which cannot rewrite).
	sc := &mc.scratch
	swPos := sc.swPos[:0]
	for i, n := range path {
		if g.Node(n).Kind == topo.KindSwitch {
			swPos = append(swPos, i)
		}
	}
	sc.swPos = swPos
	k := len(swPos)
	n := min(opts.MNs, k)
	// Choose which switches act as MNs: a random subset, kept in path order.
	sc.perm = slices.Grow(sc.perm[:0], k)[:k]
	mnSel := mc.pathRng.PermInto(sc.perm)[:n]
	sortInts(mnSel)
	sc.mnPos = slices.Grow(sc.mnPos[:0], n)[:n]
	plan := flowPlan{path: path, swPos: swPos, n: n, mnPos: sc.mnPos, mnIDs: make([]topo.NodeID, n)}
	for i, s := range mnSel {
		plan.mnPos[i] = swPos[s]
		plan.mnIDs[i] = path[swPos[s]]
	}
	return plan, nil
}

// allocFlowRes is the allocator stage: fresh flow IDs and endpoint-visible
// fake addresses for one planned m-flow. The IDs are drawn forward then
// reverse and the addresses entry then final — the order of the allocator's
// LIFO pops and of pickFake's pathRng draws — and a failure part-way hands
// back the IDs already drawn. The addresses are only chosen here; they are
// reserved when the flow is adopted.
func (mc *MC) allocFlowRes(st *channelState, plan flowPlan) (flowRes, error) {
	initIP, respIP := st.initiator, st.responder
	fwdID, err := mc.flowIDs.alloc()
	if err != nil {
		return flowRes{}, err
	}
	revID, err := mc.flowIDs.alloc()
	if err != nil {
		mc.flowIDs.release(fwdID)
		return flowRes{}, err
	}
	res := flowRes{fwdID: fwdID, revID: revID}
	// Entry address: a real host, plausible beyond the initiator's first
	// switch, unique among the initiator's live channels. Final source: the
	// fake peer the responder sees; also serves as the reply's entry address,
	// so it gets the same uniqueness reservation.
	ex := mc.reach.excluding(initIP, respIP)
	if res.entry, err = mc.pickFake(initIP, mc.poolAhead(plan.path, plan.swPos[0], ex)); err == nil {
		res.finalSrc, err = mc.pickFake(respIP, mc.poolBehind(plan.path, plan.swPos[len(plan.swPos)-1], ex))
	}
	if err != nil {
		mc.flowIDs.releaseFlow(res)
		return flowRes{}, err
	}
	return res, nil
}

// templateFlow is the templater stage: the MAGA tuple chains in both
// directions and the complete rewrite/forward/multicast rule set for one
// planned m-flow, emitted as self-contained ruleRecs carved from the returned
// slab — spare, an emptied slab of a retired epoch, if it has room, else a
// new one. It writes nothing into MC or channel state beyond the scratch the
// chains and the returned recs live in (valid until the next templateFlow)
// and the slab high-water mark — groups are numbered from groupBase, and the
// caller advances mc.nextGroup by the returned groupsUsed.
func (mc *MC) templateFlow(plan flowPlan, res flowRes, initIP, respIP addr.IP, opts ChannelOptions, cookie uint64, groupBase uint32, spare flowtable.Slab) (recs []ruleRec, slab flowtable.Slab, fi FlowInfo, groupsUsed uint32) {
	g := mc.Net.Graph
	path, mnPos, n := plan.path, plan.mnPos, plan.n
	initNode := path[0]
	respNode := path[len(path)-1]
	initMAC := g.Node(initNode).MAC
	respMAC := g.Node(respNode).MAC
	entry, finalSrc := res.entry, res.finalSrc
	fwdID, revID := res.fwdID, res.revID

	sc := &mc.scratch
	recs = sc.recs[:0]

	// Forward tuple chain T[0..n]. No minted address is an endpoint's.
	ex := mc.reach.excluding(initIP, respIP)
	sc.fwd = slices.Grow(sc.fwd[:0], n+1)[:n+1]
	T := sc.fwd
	T[0] = tuple{src: initIP, dst: entry}
	for j := 1; j < n; j++ {
		mn := path[mnPos[j-1]]
		T[j] = mc.mint(mn, fwdID, g.PortTo(mn, path[mnPos[j-1]-1]), g.PortTo(mn, path[mnPos[j-1]+1]), ex)
	}
	T[n] = tuple{src: finalSrc, dst: respIP}

	// Reverse tuple chain U[0..n]: U[n] leaves the responder, U[0] reaches
	// the initiator. U[j] (1 <= j <= n-1) is minted by MN_{j+1}, the node
	// that rewrites onto that segment in the reverse direction.
	sc.rev = slices.Grow(sc.rev[:0], n+1)[:n+1]
	U := sc.rev
	U[n] = tuple{src: respIP, dst: finalSrc}
	for j := n - 1; j >= 1; j-- {
		mn := path[mnPos[j]] // MN_{j+1} in 1-based terms
		U[j] = mc.mint(mn, revID, g.PortTo(mn, path[mnPos[j]+1]), g.PortTo(mn, path[mnPos[j]-1]), ex)
	}
	U[0] = tuple{src: entry, dst: initIP}

	// The m-flow's rules are installed together and deleted together, by
	// cookie, so their entries and action lists are carved from one slab,
	// sized by counting: forward, a rule on every switch up to the last MN;
	// in reverse, on every switch from the first MN on; under partial
	// multicast, a group per edge MN and direction with its decoy drops. The
	// MN rules take maxMNActions each and the others one; the rule delivering
	// to the endpoint, one per direction, adds a MAC fix-up.
	rules := 0
	if n > 0 {
		for _, pos := range plan.swPos {
			if pos <= mnPos[n-1] {
				rules++
			}
			if pos >= mnPos[0] {
				rules++
			}
		}
	}
	groups, decoys := 0, 0
	if opts.MulticastFanout > 1 {
		groups = 4
		decoys = groups * (opts.MulticastFanout - 1)
	}
	entries, actions := rules+decoys, 2*(n*maxMNActions+1)+rules-2*n+groups+decoys*maxMNActions
	// A new slab is as large as the largest m-flow templated yet, so a
	// recycled one fits whatever m-flow comes next.
	hw := &mc.slabHigh
	hw.entries, hw.actions = max(hw.entries, entries), max(hw.actions, actions)
	if slab = spare; !slab.Fits(entries, actions) {
		slab = flowtable.NewSlab(hw.entries, hw.actions)
	}
	add := func(node topo.NodeID, m flowtable.Match, actions []flowtable.Action, grp *flowtable.Group) {
		recs = append(recs, ruleRec{node: node, group: grp, entry: slab.Entry(flowtable.Entry{
			Priority: ctrlplane.PriorityMFlow,
			Match:    m,
			Actions:  actions,
			Cookie:   cookie,
			// Under EvictIdle, m-flow rules may be displaced at capacity;
			// the MC's intent survives and reinstalls on miss.
			Evictable: mc.Cfg.Admission.EvictIdle,
		})})
	}
	nextGroupID := func() flowtable.GroupID {
		groupsUsed++
		return flowtable.GroupID(groupBase + groupsUsed)
	}

	// Forward rules.
	cur := 0 // index into T: tuple currently on the wire
	for pi := 1; pi < len(path)-1; pi++ {
		node := path[pi]
		if g.Node(node).Kind != topo.KindSwitch {
			continue // BCube relay hosts forward in their stack; out of scope here
		}
		out := g.PortTo(node, path[pi+1])
		j := mnIndexAt(mnPos, pi)
		if j < 0 {
			if cur == n {
				continue // past the last MN: common routing delivers T[n]
			}
			add(node, T[cur].match(), slab.List(flowtable.Output(out)), nil)
			continue
		}
		// This switch is MN_{j+1} (j is 0-based here).
		jj := j + 1
		mark := slab.Mark()
		mc.rewriteActions(&slab, T[cur], T[jj])
		if path[pi+1] == respNode {
			// lint:declassify addrleak last-segment L2 delivery: the responder's own MAC on its access link is the paper-sanctioned exposure
			slab.Add(flowtable.SetEthDst(respMAC))
		}
		slab.Add(flowtable.Output(out))
		actions := slab.Since(mark)
		if (jj == 1 || jj == n) && opts.MulticastFanout > 1 {
			grp, decoys := mc.buildMulticast(&slab, node, path[pi-1], path[pi+1], actions, T[cur], fwdID, opts.MulticastFanout, nextGroupID())
			add(node, T[cur].match(), slab.List(flowtable.OutputGroup(grp.ID)), grp)
			for _, d := range decoys {
				add(d.node, d.t.match(), nil, nil) // drop at next hop
			}
		} else {
			add(node, T[cur].match(), actions, nil)
		}
		cur = jj
	}

	// Reverse rules.
	cur = n
	for pi := len(path) - 2; pi >= 1; pi-- {
		node := path[pi]
		if g.Node(node).Kind != topo.KindSwitch {
			continue
		}
		out := g.PortTo(node, path[pi-1])
		j := mnIndexAt(mnPos, pi)
		if j < 0 {
			if cur == 0 {
				continue // past MN_1 on the reply path: common routing delivers U[0]
			}
			add(node, U[cur].match(), slab.List(flowtable.Output(out)), nil)
			continue
		}
		jj := j + 1 // this is MN_jj; it rewrites U[jj] -> U[jj-1]
		mark := slab.Mark()
		mc.rewriteActions(&slab, U[cur], U[jj-1])
		if path[pi-1] == initNode {
			// lint:declassify addrleak first-segment L2 delivery on the reply path: the initiator's own MAC on its access link
			slab.Add(flowtable.SetEthDst(initMAC))
		}
		slab.Add(flowtable.Output(out))
		actions := slab.Since(mark)
		if (jj == n || jj == 1) && opts.MulticastFanout > 1 {
			grp, decoys := mc.buildMulticast(&slab, node, path[pi+1], path[pi-1], actions, U[cur], revID, opts.MulticastFanout, nextGroupID())
			add(node, U[cur].match(), slab.List(flowtable.OutputGroup(grp.ID)), grp)
			for _, d := range decoys {
				add(d.node, d.t.match(), nil, nil)
			}
		} else {
			add(node, U[cur].match(), actions, nil)
		}
		cur = jj - 1
	}

	sc.recs = recs
	return recs, slab, FlowInfo{Entry: entry, Path: path, MNs: plan.mnIDs}, groupsUsed
}
