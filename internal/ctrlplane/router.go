package ctrlplane

import (
	"fmt"

	"mic/internal/addr"
	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/topo"
)

// Rule priorities used by the proactive router. The Mimic Controller
// installs its per-m-flow rules above these, so m-flows always take
// precedence over destination-based common routing.
const (
	PriorityCommonUntagged = 100
	PriorityCommonTagged   = 50
	// PriorityMFlow is exported for the MC.
	PriorityMFlow = 1000
)

// CookieCommon tags rules owned by the proactive router.
const CookieCommon = 1

// ProactiveRouter pre-installs destination-based shortest-path routing for
// all hosts, tagging inter-switch traffic with a common-flow (CF) MPLS
// label as the paper prescribes: "we divide the MPLS label into two
// disjoint categories, one used to mark the common flows (CF), and the
// other used to mark the m-flows (MF)."
//
// Rule scheme per switch s and host h:
//   - untagged packet to h arriving at s (only possible at h's or the
//     sender's edge switch): push CF label and forward — or, if h is
//     attached to s, forward directly without a label;
//   - CF-tagged packet to h: forward toward h, popping the label on the
//     final switch.
type ProactiveRouter struct {
	CFLabel addr.Label
}

// Install computes next hops by BFS per destination host and installs the
// rules synchronously (before the simulation starts, as a proactive
// controller would). It returns the number of entries installed.
//
// Each switch's rules are one deferred batch (flowtable.Table.
// InstallDeferred): counted, and checked against the table's capacity, now,
// but carved by commonRoutes.carve only when the table is first read, so a
// fabric that forwards nothing never builds them. Every next hop is computed
// here, so a missing one is still Install's error.
func (r *ProactiveRouter) Install(net *netsim.Network) (int, error) {
	g := net.Graph
	hops := topo.NewHops(g)
	switches := g.Switches()
	hosts := g.Hosts()
	next := make([]int, len(g.Nodes))
	// outs[i*len(hosts)+j] is switch i's egress port toward host j, -1 if
	// it has no route there.
	outs := make([]int32, len(switches)*len(hosts))
	for j, hid := range hosts {
		if err := nextHops(g, hops.From(hid), hid, next); err != nil {
			return 0, err
		}
		for i, sid := range switches {
			outs[i*len(hosts)+j] = int32(next[sid])
		}
	}
	shapes := []flowtable.FieldMask{commonUntagged, commonTagged}
	installed := 0
	for i, sid := range switches {
		c := &commonRoutes{label: r.CFLabel, g: g, node: g.Node(sid), hosts: hosts, outs: outs[i*len(hosts) : (i+1)*len(hosts)]}
		n := 0
		for _, out := range c.outs {
			if out >= 0 {
				n += 2
			}
		}
		// Common routing is the baseline the fabric cannot run without: a
		// capacity too small for it is a configuration error, surfaced here
		// rather than silently dropped rules.
		sw := net.Switch(sid)
		if err := sw.Table.InstallDeferred(n, CookieCommon, shapes, net.Eng.Now(), c.carve); err != nil {
			return installed, fmt.Errorf("ctrlplane: common routing overflows switch %s (capacity %d): %w",
				sw.Name, sw.Table.Capacity, err)
		}
		installed += n
	}
	return installed, nil
}

// The match shapes of common routing: an untagged packet to a host, and a
// CF-tagged one.
const (
	commonUntagged = flowtable.MatchNoMPLS | flowtable.MatchIPDst
	commonTagged   = flowtable.MatchMPLS | flowtable.MatchIPDst
)

// commonRoutes is one switch's common routing, as its next hops toward every
// host.
type commonRoutes struct {
	label addr.Label
	g     *topo.Graph
	node  *topo.Node
	hosts []topo.NodeID
	outs  []int32 // egress port toward hosts[j], -1 if none
}

// carve builds the switch's common routing: two rules per host it routes to,
// in host order. Toward a remote host both action lists depend on the egress
// port alone, so the switch carves one list per port it routes out of —
// PushMPLS(CF), Output(out), whose tail is the tagged rule's list — and every
// remote host's rules share it: no code writes into an installed list. An
// attached host's pair sets its MAC and is its own. A first walk counts what
// the switch carves, so its entries and its slab are sized exactly.
func (c *commonRoutes) carve() []flowtable.Entry {
	ports := c.node.Ports
	shared := make([][]flowtable.Action, len(ports))
	rules, attached, lists := 0, 0, 0
	for j, out := range c.outs {
		switch {
		case out < 0:
			continue
		case ports[out].Peer == c.hosts[j]:
			attached++
		case shared[out] == nil:
			shared[out] = []flowtable.Action{} // an empty list marks the port counted
			lists++
		}
		rules += 2
	}
	clear(shared)
	entries := make([]flowtable.Entry, 0, rules)
	slab := flowtable.NewSlab(0, 5*attached+2*lists)
	for j, out := range c.outs {
		if out < 0 {
			continue
		}
		h := c.g.Node(c.hosts[j])
		untagged := flowtable.Entry{
			Priority: PriorityCommonUntagged,
			Cookie:   CookieCommon,
			Match:    flowtable.Match{Mask: commonUntagged, IPDst: h.IP},
		}
		tagged := flowtable.Entry{
			Priority: PriorityCommonTagged,
			Cookie:   CookieCommon,
			Match:    flowtable.Match{Mask: commonTagged, MPLS: c.label, IPDst: h.IP},
		}
		if ports[out].Peer == h.ID { // h is attached to this switch
			untagged.Actions = slab.List(flowtable.SetEthDst(h.MAC), flowtable.Output(int(out)))
			tagged.Actions = slab.List(flowtable.PopMPLS(), flowtable.SetEthDst(h.MAC), flowtable.Output(int(out)))
		} else {
			list := &shared[out]
			if *list == nil {
				*list = slab.List(flowtable.PushMPLS(c.label), flowtable.Output(int(out)))
			}
			untagged.Actions, tagged.Actions = *list, (*list)[1:]
		}
		entries = append(entries, untagged, tagged)
	}
	return entries
}

// nextHops fills next with, for each switch that can reach dst, the egress
// port on the shortest path toward dst, and -1 elsewhere. dist is the hop
// distance of every node from dst over the switch fabric (hosts do not
// forward).
func nextHops(g *topo.Graph, dist []int, dst topo.NodeID, next []int) error {
	// toward reports whether the port leads one hop closer to dst.
	toward := func(d int, p topo.Port) bool {
		return dist[p.Peer] == d-1 && (g.Node(p.Peer).Kind != topo.KindHost || p.Peer == dst)
	}
	for _, sid := range g.Switches() {
		next[sid] = -1
		d := dist[sid]
		if d < 0 {
			continue
		}
		ports := g.Node(sid).Ports
		candidates := 0
		for _, p := range ports {
			if toward(d, p) {
				candidates++
			}
		}
		if candidates == 0 {
			if d > 0 {
				return fmt.Errorf("ctrlplane: no next hop from %s toward %s", g.Node(sid).Name, g.Node(dst).Name)
			}
			continue
		}
		// ECMP: spread destinations across equal-cost ports with a
		// deterministic hash, as production fabrics do. Without this, every
		// flow toward a pod would pile onto one core link and the TCP
		// baseline would bottleneck artificially.
		pick := int(ecmpHash(uint32(sid), uint32(dst)) % uint32(candidates))
		for port, p := range ports {
			if !toward(d, p) {
				continue
			}
			if pick == 0 {
				next[sid] = port
				break
			}
			pick--
		}
	}
	return nil
}

// ecmpHash mixes (switch, destination) into a port selector.
func ecmpHash(a, b uint32) uint32 {
	h := uint32(2166136261)
	for _, v := range [...]uint32{a, b} {
		h ^= v
		h *= 16777619
	}
	h ^= h >> 13
	h *= 0x5bd1e995
	h ^= h >> 15
	return h
}
