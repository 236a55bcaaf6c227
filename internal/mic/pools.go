package mic

import (
	"slices"

	"mic/internal/addr"
	"mic/internal/topo"
)

// reachability records, for every switch port, which real host addresses
// lie in that direction on shortest paths. The MC draws m-addresses from
// these pools so that a fake source/destination observed on a link is a
// host that could legitimately appear there — the paper's per-MN
// restriction on m_src_ip and m_dst_ip (Sec IV-B3, Fig 5 example).
//
// A pool holds host ordinals, indexes into all in the graph's host order, so
// every pool is ascending by construction and a host's place in one is
// found by binary search.
type reachability struct {
	g     *topo.Graph
	pools [][][]int32 // [switch NodeID][port]; nil rows for hosts
	all   []addr.IP   // every host's address, by ordinal
	every []int32     // every ordinal: the fallback pool
	// twin chains the hosts sharing an address: the next higher ordinal with
	// ordinal o's address, or -1. Nil when every address is unique.
	twin []int32
}

// computeReachability runs one BFS per host: a host h belongs to the pool
// of (switch s, port p) iff some shortest path from s to h leaves via p.
// The BFSes run twice: the first walk counts every pool, so all of them are
// carved from one array instead of each growing by append.
func computeReachability(g *topo.Graph) reachability {
	r := reachability{g: g, pools: make([][][]int32, len(g.Nodes))}
	switches := g.Switches()
	hosts := g.Hosts()
	// Pool (s, p) is rows[base[s]+p]; r.pools[s] is switch s's run of rows.
	base := make([]int, len(g.Nodes))
	nrows := 0
	for _, sid := range switches {
		base[sid] = nrows
		nrows += len(g.Node(sid).Ports)
	}
	rows := make([][]int32, nrows)
	for _, sid := range switches {
		r.pools[sid] = rows[base[sid] : base[sid]+len(g.Node(sid).Ports)]
	}
	hops := topo.NewHops(g)
	// walk calls visit with every pool host o belongs to, hosts in ordinal
	// order, so each pool comes out ascending.
	walk := func(visit func(row int, o int32)) {
		for o, hid := range hosts {
			dist := hops.From(hid)
			for _, sid := range switches {
				ds := dist[sid]
				if ds < 0 {
					continue
				}
				for port, p := range g.Node(sid).Ports {
					if dist[p.Peer] == ds-1 {
						visit(base[sid]+port, int32(o))
					}
				}
			}
		}
	}
	sizes := make([]int, nrows)
	walk(func(row int, _ int32) { sizes[row]++ })
	total := 0
	for _, n := range sizes {
		total += n
	}
	ords := make([]int32, total)
	for row, n := range sizes {
		if n > 0 {
			rows[row], ords = ords[:0:n], ords[n:]
		}
	}
	walk(func(row int, o int32) { rows[row] = append(rows[row], o) })
	r.all = make([]addr.IP, len(hosts))
	r.every = make([]int32, len(hosts))
	for o, hid := range hosts {
		r.all[o] = g.Node(hid).IP
		r.every[o] = int32(o)
	}
	last := make(map[addr.IP]int32, len(r.all))
	for o, ip := range r.all {
		if prev, dup := last[ip]; dup {
			if r.twin == nil {
				r.twin = make([]int32, len(r.all))
				for i := range r.twin {
					r.twin[i] = -1
				}
			}
			r.twin[prev] = int32(o)
		}
		last[ip] = int32(o)
	}
	return r
}

// excluded names the hosts a pool view leaves out: every host holding one of
// up to two addresses, each given by the lowest ordinal holding it, or -1.
type excluded [2]int32

// excludeNone leaves every host in.
var excludeNone = excluded{-1, -1}

// excluding returns the exclusion of every host holding address a or b.
func (r *reachability) excluding(a, b addr.IP) excluded {
	return excluded{r.ordinal(a), r.ordinal(b)}
}

// ordinal returns the lowest ordinal of a host holding ip, or -1.
func (r *reachability) ordinal(ip addr.IP) int32 {
	h := r.g.HostByIP(ip)
	if h == nil {
		return -1
	}
	o, _ := slices.BinarySearch(r.g.Hosts(), h.ID)
	return int32(o)
}

// via returns the plausible host addresses through (sw, port), minus the
// excluded hosts, as a view of the pool read in place. Falls back to all
// hosts (minus excluded) when the directional pool is empty or fully
// excluded, so address minting never fails on degenerate topologies.
func (r *reachability) via(sw topo.NodeID, port int, ex excluded) poolView {
	v := r.view(r.pools[sw][port], ex)
	if v.Len() == 0 {
		v = r.view(r.every, ex)
	}
	return v
}

// view is pool minus the excluded hosts: one binary search per host.
func (r *reachability) view(pool []int32, ex excluded) poolView {
	v := poolView{all: r.all, pool: pool}
	for _, o := range ex {
		for ; o >= 0; o = r.nextTwin(o) {
			if p, ok := slices.BinarySearch(pool, o); ok {
				v.skip(int32(p))
			}
		}
	}
	return v
}

// nextTwin returns the next host sharing ordinal o's address, or -1.
func (r *reachability) nextTwin(o int32) int32 {
	if r.twin == nil {
		return -1
	}
	return r.twin[o]
}

// poolView is a pool of host ordinals minus some of its positions, read in
// place: At(k) is the address of the pool's k-th position that is not
// skipped. Skipped positions are the excluded endpoints': at most two, held
// inline, unless hosts share an address.
type poolView struct {
	all  []addr.IP
	pool []int32
	n    int      // positions skipped
	two  [2]int32 // the skipped positions, ascending, while n <= 2
	more []int32  // all skipped positions, ascending, once n > 2
}

// skip removes position p from the view; skipping it twice is a no-op.
func (v *poolView) skip(p int32) {
	if v.n < 2 {
		if v.n == 1 && v.two[0] >= p {
			if v.two[0] == p {
				return
			}
			v.two[0], p = p, v.two[0]
		}
		v.two[v.n] = p
		v.n++
		return
	}
	if v.more == nil {
		v.more = []int32{v.two[0], v.two[1]}
	}
	if i, found := slices.BinarySearch(v.more, p); !found {
		v.more = slices.Insert(v.more, i, p)
		v.n++
	}
}

// Len returns how many addresses the view holds.
func (v *poolView) Len() int { return len(v.pool) - v.n }

// At returns the view's k-th address, 0 <= k < Len().
func (v *poolView) At(k int) addr.IP {
	skipped := v.more
	if skipped == nil {
		skipped = v.two[:v.n]
	}
	for _, p := range skipped {
		if int(p) > k {
			break
		}
		k++
	}
	return v.all[v.pool[k]]
}
