package topo

import (
	"fmt"

	"mic/internal/addr"
)

// hostAddrs assigns host i (1-based) its address in 10.0.0.0/16 and a
// sequential locally-administered MAC.
func hostAddrs(i int) (addr.IP, addr.MAC) {
	return addr.V4(10, 0, byte(i>>8), byte(i)), addr.MAC(0x0200aa000000) + addr.MAC(i)
}

// FatTree builds a k-ary fat-tree (Al-Fares et al.): (k/2)^2 core switches,
// k pods of k/2 aggregation and k/2 edge switches, and k/2 hosts per edge
// switch. FatTree(4) is the paper's testbed: 20 four-port switches and 16
// hosts (Fig 5). k must be even and >= 2.
func FatTree(k int) (*Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topo: fat-tree arity %d must be even and >= 2", k)
	}
	g := New()
	half := k / 2

	cores := make([]NodeID, half*half)
	for i := range cores {
		cores[i] = g.AddSwitch(fmt.Sprintf("core%d", i+1))
	}
	hostN := 0
	for pod := 0; pod < k; pod++ {
		aggs := make([]NodeID, half)
		edges := make([]NodeID, half)
		for i := 0; i < half; i++ {
			aggs[i] = g.AddSwitch(fmt.Sprintf("agg%d_%d", pod+1, i+1))
			edges[i] = g.AddSwitch(fmt.Sprintf("edge%d_%d", pod+1, i+1))
		}
		for i, aggID := range aggs {
			// agg i of each pod connects to core group i.
			for j := 0; j < half; j++ {
				g.Connect(aggID, cores[i*half+j])
			}
			for _, e := range edges {
				g.Connect(aggID, e)
			}
		}
		for _, e := range edges {
			for j := 0; j < half; j++ {
				hostN++
				ip, mac := hostAddrs(hostN)
				h := g.AddHost(fmt.Sprintf("h%d", hostN), ip, mac)
				g.Connect(e, h)
			}
		}
	}
	return g, g.Validate(false)
}

// LeafSpine builds a two-tier Clos: every leaf connects to every spine,
// hostsPerLeaf hosts hang off each leaf.
func LeafSpine(spines, leaves, hostsPerLeaf int) (*Graph, error) {
	if spines < 1 || leaves < 1 || hostsPerLeaf < 1 {
		return nil, fmt.Errorf("topo: leaf-spine dimensions must be positive")
	}
	g := New()
	sp := make([]NodeID, spines)
	for i := range sp {
		sp[i] = g.AddSwitch(fmt.Sprintf("spine%d", i+1))
	}
	hostN := 0
	for l := 0; l < leaves; l++ {
		leaf := g.AddSwitch(fmt.Sprintf("leaf%d", l+1))
		for _, s := range sp {
			g.Connect(leaf, s)
		}
		for h := 0; h < hostsPerLeaf; h++ {
			hostN++
			ip, mac := hostAddrs(hostN)
			g.Connect(leaf, g.AddHost(fmt.Sprintf("h%d", hostN), ip, mac))
		}
	}
	return g, g.Validate(false)
}

// Linear builds a chain of n switches with one host at each end — the
// paper's Figure 2 scenario (Alice - S1 - S2 - S3 - Bob for n=3), and the
// topology used to sweep path length in Figs 7 and 9(a).
func Linear(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: linear chain needs at least 1 switch")
	}
	g := New()
	prev := NodeID(-1)
	var first NodeID
	for i := 0; i < n; i++ {
		s := g.AddSwitch(fmt.Sprintf("s%d", i+1))
		if i == 0 {
			first = s
		} else {
			g.Connect(prev, s)
		}
		prev = s
	}
	ipA, macA := hostAddrs(1)
	ipB, macB := hostAddrs(2)
	g.Connect(g.AddHost("h1", ipA, macA), first)
	g.Connect(prev, g.AddHost("h2", ipB, macB))
	return g, g.Validate(false)
}

// BCube builds the server-centric BCube(n, levels) topology (Guo et al.,
// SIGCOMM'09), which the paper cites as a network where compromised servers
// forward traffic. n is the switch port count; levels is the highest level
// (BCube_0 has levels=0). Hosts are multi-homed: each connects to levels+1
// switches.
func BCube(n, levels int) (*Graph, error) {
	if n < 2 || levels < 0 {
		return nil, fmt.Errorf("topo: BCube needs n >= 2 and levels >= 0")
	}
	g := New()
	g.AllowHostTransit = true // BCube is server-centric: servers forward
	numHosts := 1
	for i := 0; i <= levels; i++ {
		numHosts *= n
	}
	hosts := make([]NodeID, numHosts)
	for i := range hosts {
		ip, mac := hostAddrs(i + 1)
		hosts[i] = g.AddHost(fmt.Sprintf("h%d", i+1), ip, mac)
	}
	// Level l has numHosts/n switches; switch j at level l connects hosts
	// whose index differs only in digit l (base n).
	for l := 0; l <= levels; l++ {
		numSw := numHosts / n
		for j := 0; j < numSw; j++ {
			sw := g.AddSwitch(fmt.Sprintf("b%d_%d", l, j+1))
			// Decompose j into the host index digits excluding digit l.
			for d := 0; d < n; d++ {
				lo := j % pow(n, l)
				hi := j / pow(n, l)
				hostIdx := hi*pow(n, l+1) + d*pow(n, l) + lo
				g.Connect(sw, hosts[hostIdx])
			}
		}
	}
	return g, g.Validate(true)
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// Ring builds n switches in a cycle, one host per switch. Useful for tests
// that need multiple disjoint paths of different lengths.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topo: ring needs at least 3 switches")
	}
	g := New()
	sw := make([]NodeID, n)
	for i := range sw {
		sw[i] = g.AddSwitch(fmt.Sprintf("s%d", i+1))
		ip, mac := hostAddrs(i + 1)
		g.Connect(sw[i], g.AddHost(fmt.Sprintf("h%d", i+1), ip, mac))
	}
	for i := range sw {
		g.Connect(sw[i], sw[(i+1)%n])
	}
	return g, g.Validate(false)
}

// Jellyfish builds the random-regular-graph topology (Singla et al.,
// NSDI'12): n switches, each using netDeg ports for random switch-to-switch
// links and hostsPer ports for hosts. Construction is the incremental
// Jellyfish procedure with link breaking, driven by a seeded RNG so a
// given (n, netDeg, hostsPer, seed) tuple is reproducible.
// lint:ignore unused shared test fixture: the irregular fabric router and MC tests in three packages run on
func Jellyfish(n, netDeg, hostsPer int, seed uint64) (*Graph, error) {
	if n < 3 || netDeg < 2 || hostsPer < 0 {
		return nil, fmt.Errorf("topo: jellyfish needs n >= 3, netDeg >= 2, hostsPer >= 0")
	}
	if netDeg >= n {
		return nil, fmt.Errorf("topo: jellyfish netDeg %d must be < n %d", netDeg, n)
	}
	g := New()
	rng := newSplitMix(seed)
	sw := make([]NodeID, n)
	free := make([]int, n) // free network ports per switch
	for i := range sw {
		sw[i] = g.AddSwitch(fmt.Sprintf("j%d", i+1))
		free[i] = netDeg
	}
	adjacent := make(map[[2]int]bool)
	linked := func(a, b int) bool {
		if a > b {
			a, b = b, a
		}
		return adjacent[[2]int{a, b}]
	}
	link := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		adjacent[[2]int{a, b}] = true
		g.Connect(sw[a], sw[b])
		free[a]--
		free[b]--
	}
	// Incremental construction: connect random pairs with free ports; when
	// no eligible pair remains but a switch still has >= 2 free ports,
	// break a random existing link and splice the stranded switch in.
	for attempts := 0; attempts < 100*n*netDeg; attempts++ {
		var cands []int
		for i, f := range free {
			if f > 0 {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			break
		}
		if len(cands) == 1 || (len(cands) == 2 && linked(cands[0], cands[1])) {
			// Stranded: splicing would need link surgery, which our static
			// Graph cannot undo. Leave the port(s) unused — Jellyfish
			// tolerates slight irregularity.
			break
		}
		a := cands[int(rng()%uint64(len(cands)))]
		b := cands[int(rng()%uint64(len(cands)))]
		if a == b || linked(a, b) {
			continue
		}
		link(a, b)
	}
	hostN := 0
	for i := range sw {
		for h := 0; h < hostsPer; h++ {
			hostN++
			ip, mac := hostAddrs(hostN)
			g.Connect(sw[i], g.AddHost(fmt.Sprintf("h%d", hostN), ip, mac))
		}
	}
	// Reject disconnected graphs (rare at sensible degrees): every switch
	// must reach switch 0.
	if len(g.EqualCostPaths(sw[0], sw[n-1], 1)) == 0 {
		return nil, fmt.Errorf("topo: jellyfish(%d,%d,seed=%d) came out disconnected; pick another seed", n, netDeg, seed)
	}
	return g, g.Validate(false)
}

// newSplitMix returns a tiny seeded generator for builders that must not
// depend on package sim.
func newSplitMix(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
