package mic

import (
	"mic/internal/topo"
)

// This file is the MC's path-plan cache: equal-cost path enumeration is by
// far the most expensive step of channel planning (a BFS plus a bounded DFS
// over the fabric per dial), yet its result depends only on the endpoints'
// access switches — every host pair behind the same (src-edge, dst-edge)
// pair sees structurally identical candidate paths, differing only in the
// two host endpoints. The cache therefore stores switch-only path segments
// keyed by access-switch pair; candidates are filtered and drawn as segments
// and only the chosen one is joined to the concrete hosts, so steady-state
// setup is O(F) rule instantiation instead of a graph search. Liveness is
// NOT cached: the enumerations (topo.Graph.EqualCostPaths,
// PathsWithMinSwitches) read the graph's structure only, never its
// liveness, so their candidates stay valid forever, and aliveSegs filters
// out the ones crossing a failed link or switch on every lookup. A fabric
// event therefore never invalidates an entry.

// planKey identifies one cached candidate set: the endpoints' access
// switches plus the minimum-switch requirement (minSw < 0 keys the plain
// equal-cost enumeration, which ignores it).
type planKey struct {
	a, b  topo.NodeID
	minSw int
}

// accessSwitch returns the unique switch a single-homed host hangs off, or
// -1 when the host is multi-homed, which the cache does not model.
func accessSwitch(g *topo.Graph, host topo.NodeID) topo.NodeID {
	n := g.Node(host)
	if n.Kind != topo.KindHost || len(n.Ports) != 1 {
		return -1
	}
	peer := n.Ports[0].Peer
	if g.Node(peer).Kind != topo.KindSwitch {
		return -1
	}
	return peer
}

// cacheUsable reports whether the plan cache can serve (src, dst): both
// endpoints must be single-homed hosts.
func (mc *MC) cacheUsable(src, dst topo.NodeID) bool {
	if mc.Cfg.DisablePathCache {
		return false
	}
	return accessSwitch(mc.Net.Graph, src) >= 0 && accessSwitch(mc.Net.Graph, dst) >= 0
}

// stripHosts views paths as switch-only segments (first and last element —
// the hosts — dropped). The segments alias the enumeration's own paths, which
// are fresh and which nothing downstream modifies: candidates are filtered
// into a separate list and only the chosen one is copied out (pickPath).
func stripHosts(paths []topo.Path) [][]topo.NodeID {
	segs := make([][]topo.NodeID, len(paths))
	for i, p := range paths {
		segs[i] = p[1 : len(p)-1]
	}
	return segs
}

// lookupPaths serves one path enumeration through the cache and returns the
// candidates as segments between src and dst, shared with the cache and
// read-only: a hit costs PlanCacheHitCost of planning CPU, a miss (or a
// bypass) runs compute and costs the full PlanSearchCost. Hit and miss return
// identically shaped candidates, so the downstream RNG draw sequence is
// independent of cache state.
func (mc *MC) lookupPaths(src, dst topo.NodeID, minSw int, compute func() []topo.Path) [][]topo.NodeID {
	if !mc.cacheUsable(src, dst) {
		mc.PathCacheMisses++
		mc.planCost += PlanSearchCost
		return stripHosts(compute())
	}
	key := planKey{a: accessSwitch(mc.Net.Graph, src), b: accessSwitch(mc.Net.Graph, dst), minSw: minSw}
	if segs, ok := mc.planCache[key]; ok {
		mc.PathCacheHits++
		mc.planCost += PlanCacheHitCost
		return segs
	}
	mc.PathCacheMisses++
	mc.planCost += PlanSearchCost
	segs := stripHosts(compute())
	mc.planCache[key] = segs
	return segs
}
