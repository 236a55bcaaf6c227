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
	// A switch's common routing is one batch: two rules per host, with three
	// actions between them toward a remote host, five for an attached one.
	slabs := make([]flowtable.Slab, len(g.Nodes))
	for _, sid := range switches {
		attached := 0
		for _, p := range g.Node(sid).Ports {
			if g.Node(p.Peer).Kind == topo.KindHost {
				attached++
			}
		}
		slabs[sid] = flowtable.NewSlab(2*len(hosts), 3*len(hosts)+2*attached)
	}
	next := make([]int, len(g.Nodes))
	for _, hid := range hosts {
		h := g.Node(hid)
		if err := nextHops(g, hops.From(hid), hid, next); err != nil {
			return installed, err
		}
		for _, sid := range switches {
			sw := net.Switch(sid)
			out := next[sid]
			if out < 0 {
				continue // unreachable from this switch
			}
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
			if g.Node(sid).Ports[out].Peer == hid { // h is attached to this switch
				untagged.Actions = slab.List(flowtable.SetEthDst(h.MAC), flowtable.Output(out))
				tagged.Actions = slab.List(flowtable.PopMPLS(), flowtable.SetEthDst(h.MAC), flowtable.Output(out))
			} else {
				untagged.Actions = slab.List(flowtable.PushMPLS(r.CFLabel), flowtable.Output(out))
				tagged.Actions = slab.List(flowtable.Output(out))
			}
			if err := install(sw, slab.Entry(untagged)); err != nil {
				return installed, err
			}
			if err := install(sw, slab.Entry(tagged)); err != nil {
				return installed, err
			}
		}
	}
	return installed, nil
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
