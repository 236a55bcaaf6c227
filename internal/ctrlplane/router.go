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
func (r *ProactiveRouter) Install(net *netsim.Network) (int, error) {
	g := net.Graph
	installed := 0
	// Common routing is the baseline the fabric cannot run without: a
	// capacity too small for it is a configuration error, surfaced here
	// rather than silently dropped rules.
	install := func(sw *netsim.Switch, e *flowtable.Entry) error {
		if err := sw.Table.TryInsert(e, net.Eng.Now()); err != nil {
			return fmt.Errorf("ctrlplane: common routing overflows switch %s (capacity %d): %w",
				sw.Name, sw.Table.Capacity, err)
		}
		installed++
		return nil
	}
	hops := topo.NewHops(g)
	switches := g.Switches()
	hosts := g.Hosts()
	next := make([]int, len(g.Nodes))
	// routes calls visit for every switch with a route toward every host,
	// hosts outer and switches in order, with the egress port toward it.
	routes := func(visit func(h *topo.Node, sid topo.NodeID, out int) error) error {
		for _, hid := range hosts {
			if err := nextHops(g, hops.From(hid), hid, next); err != nil {
				return err
			}
			for _, sid := range switches {
				if out := next[sid]; out >= 0 {
					if err := visit(g.Node(hid), sid, out); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	// A switch's common routing is one batch: two rules per host it routes
	// to. Toward a remote host both action lists depend on the egress port
	// alone, so the switch carves one list per port it routes out of —
	// PushMPLS(CF), Output(out), whose tail is the tagged rule's list — and
	// every remote host's rules share it: no code writes into an installed
	// list. An attached host's pair sets its MAC and is its own. The first
	// walk counts what each switch carves, so its slab is sized exactly.
	base := make([]int, len(g.Nodes)+1) // port p of node n is base[n]+p
	for id, n := range g.Nodes {
		base[id+1] = base[id] + len(n.Ports)
	}
	used := make([]bool, base[len(g.Nodes)])
	type batch struct{ rules, attached, ports int }
	batches := make([]batch, len(g.Nodes))
	if err := routes(func(h *topo.Node, sid topo.NodeID, out int) error {
		b := &batches[sid]
		b.rules += 2
		switch port := base[sid] + out; {
		case g.Node(sid).Ports[out].Peer == h.ID:
			b.attached++
		case !used[port]:
			used[port] = true
			b.ports++
		}
		return nil
	}); err != nil {
		return installed, err
	}
	slabs := make([]flowtable.Slab, len(g.Nodes))
	for _, sid := range switches {
		b := batches[sid]
		slabs[sid] = flowtable.NewSlab(b.rules, 5*b.attached+2*b.ports)
	}
	shared := make([][]flowtable.Action, len(used))
	err := routes(func(h *topo.Node, sid topo.NodeID, out int) error {
		sw := net.Switch(sid)
		slab := &slabs[sid]
		untagged := flowtable.Entry{
			Priority: PriorityCommonUntagged,
			Cookie:   CookieCommon,
			Match:    flowtable.Match{Mask: flowtable.MatchNoMPLS | flowtable.MatchIPDst, IPDst: h.IP},
		}
		tagged := flowtable.Entry{
			Priority: PriorityCommonTagged,
			Cookie:   CookieCommon,
			Match:    flowtable.Match{Mask: flowtable.MatchMPLS | flowtable.MatchIPDst, MPLS: r.CFLabel, IPDst: h.IP},
		}
		if g.Node(sid).Ports[out].Peer == h.ID { // h is attached to this switch
			untagged.Actions = slab.List(flowtable.SetEthDst(h.MAC), flowtable.Output(out))
			tagged.Actions = slab.List(flowtable.PopMPLS(), flowtable.SetEthDst(h.MAC), flowtable.Output(out))
		} else {
			list := &shared[base[sid]+out]
			if *list == nil {
				*list = slab.List(flowtable.PushMPLS(r.CFLabel), flowtable.Output(out))
			}
			untagged.Actions, tagged.Actions = *list, (*list)[1:]
		}
		if err := install(sw, slab.Entry(untagged)); err != nil {
			return err
		}
		return install(sw, slab.Entry(tagged))
	})
	return installed, err
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
