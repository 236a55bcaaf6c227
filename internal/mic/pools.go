package mic

import (
	"mic/internal/addr"
	"mic/internal/topo"
)

// reachability records, for every switch port, which real host addresses
// lie in that direction on shortest paths. The MC draws m-addresses from
// these pools so that a fake source/destination observed on a link is a
// host that could legitimately appear there — the paper's per-MN
// restriction on m_src_ip and m_dst_ip (Sec IV-B3, Fig 5 example).
type reachability struct {
	pools [][][]addr.IP // [switch NodeID][port]; nil rows for hosts
	all   []addr.IP     // every host address: the fallback pool

	// buf holds the two pools via last filled. A source and a destination
	// pool are live together while one m-address is minted; nothing keeps
	// either past that, so the next draw overwrites them.
	buf [2][]addr.IP
}

// The two pool buffers of reachability.via.
const (
	poolSrc = iota
	poolDst
)

// computeReachability runs one BFS per host: a host h belongs to the pool
// of (switch s, port p) iff some shortest path from s to h leaves via p.
func computeReachability(g *topo.Graph) reachability {
	r := reachability{pools: make([][][]addr.IP, len(g.Nodes))}
	switches := g.Switches()
	for _, sid := range switches {
		r.pools[sid] = make([][]addr.IP, len(g.Node(sid).Ports))
	}
	hops := topo.NewHops(g)
	for _, hid := range g.Hosts() {
		ip := g.Node(hid).IP
		r.all = append(r.all, ip)
		dist := hops.From(hid)
		for _, sid := range switches {
			ds := dist[sid]
			if ds < 0 {
				continue
			}
			for port, p := range g.Node(sid).Ports {
				if dist[p.Peer] == ds-1 {
					r.pools[sid][port] = append(r.pools[sid][port], ip)
				}
			}
		}
	}
	return r
}

// via fills buffer which (poolSrc or poolDst) with the plausible host
// addresses through (sw, port), excluding the listed addresses, and returns
// it; the result is valid until the next via on the same buffer. Falls back
// to all hosts (minus excluded) when the directional pool is empty or fully
// excluded, so address minting never fails on degenerate topologies.
func (r *reachability) via(which int, sw topo.NodeID, port int, exclude ...addr.IP) []addr.IP {
	pool := filterIPs(r.buf[which][:0], r.pools[sw][port], exclude)
	if len(pool) == 0 {
		pool = filterIPs(pool, r.all, exclude)
	}
	r.buf[which] = pool
	return pool
}

// filterIPs appends to out the addresses of pool not listed in exclude.
func filterIPs(out, pool, exclude []addr.IP) []addr.IP {
outer:
	for _, ip := range pool {
		for _, ex := range exclude {
			if ip == ex {
				continue outer
			}
		}
		out = append(out, ip)
	}
	return out
}
