package mic

import (
	"fmt"
	"reflect"
	"testing"

	"mic/internal/addr"
	"mic/internal/topo"
)

// filterIPs appends to out the addresses of pool not listed in exclude: the
// filtered copy the pool views replaced, kept as their oracle.
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

// checkView compares via(sw, port) excluding a and b with the filtered copy
// of the pool's addresses, falling back to every host when that is empty:
// the same length and the same address at every index, which is what makes
// every draw from a view pick what a draw from the copy picked.
func checkView(t testing.TB, r *reachability, sw topo.NodeID, port int, a, b addr.IP) {
	t.Helper()
	pool := make([]addr.IP, 0, len(r.pools[sw][port]))
	for _, o := range r.pools[sw][port] {
		pool = append(pool, r.all[o])
	}
	exclude := []addr.IP{a, b}
	want := filterIPs(nil, pool, exclude)
	if len(want) == 0 {
		want = filterIPs(nil, r.all, exclude)
	}
	v := r.via(sw, port, r.excluding(a, b))
	if v.Len() != len(want) {
		t.Fatalf("switch %d port %d excluding %v, %v: Len() = %d, want %d", sw, port, a, b, v.Len(), len(want))
	}
	for k, ip := range want {
		if got := v.At(k); got != ip {
			t.Fatalf("switch %d port %d excluding %v, %v: At(%d) = %v, want %v", sw, port, a, b, k, got, ip)
		}
	}
}

// appendedPools builds every (switch, port) pool by appending one host at a
// time, as computeReachability did before it counted first: kept as the
// oracle of the carved pools.
func appendedPools(g *topo.Graph) [][][]int32 {
	pools := make([][][]int32, len(g.Nodes))
	for _, sid := range g.Switches() {
		pools[sid] = make([][]int32, len(g.Node(sid).Ports))
	}
	hops := topo.NewHops(g)
	for o, hid := range g.Hosts() {
		dist := hops.From(hid)
		for _, sid := range g.Switches() {
			ds := dist[sid]
			if ds < 0 {
				continue
			}
			for port, p := range g.Node(sid).Ports {
				if dist[p.Peer] == ds-1 {
					pools[sid][port] = append(pools[sid][port], int32(o))
				}
			}
		}
	}
	return pools
}

// checkPoolsCarved compares the carved pools with the appended ones: the
// same hosts in the same order, and nil exactly where a pool is empty.
func checkPoolsCarved(t testing.TB, g *topo.Graph, r *reachability) {
	t.Helper()
	if want := appendedPools(g); !reflect.DeepEqual(r.pools, want) {
		t.Fatalf("carved pools differ from the appended ones:\n got %v\nwant %v", r.pools, want)
	}
}

// checkAllPools checks the carved pools against the appended ones, then
// runs checkView on every (switch, port) pool for each pair.
func checkAllPools(t testing.TB, g *topo.Graph, pairs [][2]addr.IP) {
	t.Helper()
	r := computeReachability(g)
	checkPoolsCarved(t, g, &r)
	for _, sw := range g.Switches() {
		for port := range g.Node(sw).Ports {
			for _, p := range pairs {
				checkView(t, &r, sw, port, p[0], p[1])
			}
		}
	}
}

// TestPoolViewMatchesFilter: on fat-tree(4) for every endpoint pair, on
// fat-tree(8) for every endpoint with four partners each, and on a graph
// whose hosts share addresses, the pools are the appended ones and every
// pool view reads as the filtered copy did. The pairs include one address twice and an address no host holds;
// excluding a host-facing port's only host exercises the fallback to every
// host.
func TestPoolViewMatchesFilter(t *testing.T) {
	outside := addr.V4(192, 0, 2, 1)
	for _, k := range []int{4, 8} {
		g, err := topo.FatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		hosts := g.Hosts()
		ip := func(i int) addr.IP { return g.Node(hosts[i%len(hosts)]).IP }
		pairs := [][2]addr.IP{{outside, outside}}
		for i := range hosts {
			if k == 4 {
				for j := range hosts {
					pairs = append(pairs, [2]addr.IP{ip(i), ip(j)})
				}
				continue
			}
			pairs = append(pairs, [2]addr.IP{ip(i), ip(i)}, [2]addr.IP{ip(i), ip(i + 1)},
				[2]addr.IP{ip(i + 37), ip(i)}, [2]addr.IP{ip(i), outside})
		}
		checkAllPools(t, g, pairs)
	}

	// Two switches; hosts 0, 2 and 5 share an address, as do 1 and 4.
	g := topo.New()
	s0, s1 := g.AddSwitch("s0"), g.AddSwitch("s1")
	g.Connect(s0, s1)
	shared := []byte{1, 2, 1, 3, 2, 1}
	for i, a := range shared {
		h := g.AddHost(fmt.Sprint("h", i), addr.V4(10, 0, 0, a), addr.MAC(0x020000000000+i))
		g.Connect(h, []topo.NodeID{s0, s1}[i%2])
	}
	var pairs [][2]addr.IP
	for _, a := range []byte{1, 2, 3, 9} {
		for _, b := range []byte{1, 2, 3, 9} {
			pairs = append(pairs, [2]addr.IP{addr.V4(10, 0, 0, a), addr.V4(10, 0, 0, b)})
		}
	}
	checkAllPools(t, g, pairs)
}

// FuzzPoolView builds a small fabric from the input — up to six switches,
// up to twelve hosts drawing from eight addresses (so hosts often share
// one), arbitrary cables — and checks its pools against the appended ones
// and every pool view against the filtered copy for the exclusion pairs the
// input lists.
func FuzzPoolView(f *testing.F) {
	f.Add([]byte{2, 4, 1, 0, 2, 1, 1, 0, 3, 1, 0, 1, 1, 2, 3, 4})
	f.Add([]byte{5, 11, 0, 0, 0, 1, 0, 2, 1, 3, 1, 4, 2, 5, 2, 0, 3, 1, 3, 2, 4, 3, 4, 4, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 5, 0, 0, 1, 1, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		g := topo.New()
		var sws []topo.NodeID
		for i := int(next()%6) + 1; i > 0; i-- {
			sws = append(sws, g.AddSwitch(fmt.Sprint("s", len(sws))))
		}
		for i := int(next()%12) + 1; i > 0; i-- {
			a, at := next(), next()
			h := g.AddHost(fmt.Sprint("h", i), addr.V4(10, 0, 0, a%8), addr.MAC(0x020000000000+i))
			g.Connect(h, sws[int(at)%len(sws)])
		}
		for i := int(next() % 10); i > 0; i-- {
			g.Connect(sws[int(next())%len(sws)], sws[int(next())%len(sws)])
		}
		var pairs [][2]addr.IP
		for len(in) >= 2 {
			pairs = append(pairs, [2]addr.IP{addr.V4(10, 0, 0, next()%10), addr.V4(10, 0, 0, next()%10)})
		}
		checkAllPools(t, g, pairs)
	})
}
