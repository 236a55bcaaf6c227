package topo

import (
	"fmt"
	"testing"

	"mic/internal/addr"
)

func TestFatTree4MatchesPaperTestbed(t *testing.T) {
	g, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.Switches()); n != 20 {
		t.Errorf("switches = %d, want 20 (paper Fig 5)", n)
	}
	if n := len(g.Hosts()); n != 16 {
		t.Errorf("hosts = %d, want 16 (paper Fig 5)", n)
	}
	for _, id := range g.Switches() {
		if p := len(g.Node(id).Ports); p != 4 {
			t.Errorf("switch %s has %d ports, want 4", g.Node(id).Name, p)
		}
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	for _, k := range []int{0, 1, 3, -2} {
		if _, err := FatTree(k); err == nil {
			t.Errorf("FatTree(%d) accepted", k)
		}
	}
}

func TestFatTreeHostAddressesUnique(t *testing.T) {
	g, _ := FatTree(8)
	ips := map[addr.IP]bool{}
	macs := map[addr.MAC]bool{}
	for _, h := range g.Hosts() {
		n := g.Node(h)
		if ips[n.IP] || macs[n.MAC] {
			t.Fatalf("duplicate address on %s", n.Name)
		}
		ips[n.IP] = true
		macs[n.MAC] = true
	}
}

func TestFatTreePathLengths(t *testing.T) {
	g, _ := FatTree(4)
	hosts := g.Hosts()
	// Same edge switch: host-edge-host = 1 switch.
	p := g.EqualCostPaths(hosts[0], hosts[1], 0)
	if len(p) == 0 || p[0].SwitchCount(g) != 1 {
		t.Fatalf("same-edge path = %v", renderAll(g, p))
	}
	// Different pods: host-edge-agg-core-agg-edge-host = 5 switches,
	// (k/2)^2 = 4 equal-cost paths.
	p = g.EqualCostPaths(hosts[0], hosts[15], 0)
	if len(p) != 4 {
		t.Fatalf("cross-pod equal-cost paths = %d, want 4: %v", len(p), renderAll(g, p))
	}
	for _, path := range p {
		if path.SwitchCount(g) != 5 {
			t.Errorf("cross-pod path %s has %d switches, want 5", path.Render(g), path.SwitchCount(g))
		}
	}
}

func renderAll(g *Graph, ps []Path) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.Render(g))
	}
	return out
}

func TestEqualCostPathsEndpointsAndAdjacency(t *testing.T) {
	g, _ := FatTree(4)
	hosts := g.Hosts()
	for _, p := range g.EqualCostPaths(hosts[2], hosts[9], 0) {
		if p[0] != hosts[2] || p[len(p)-1] != hosts[9] {
			t.Fatalf("path endpoints wrong: %s", p.Render(g))
		}
		for i := 0; i < len(p)-1; i++ {
			if g.PortTo(p[i], p[i+1]) < 0 {
				t.Fatalf("non-adjacent hop %v->%v in %s", p[i], p[i+1], p.Render(g))
			}
		}
		for i, id := range p {
			if i != 0 && i != len(p)-1 && g.Node(id).Kind == KindHost {
				t.Fatalf("path transits a host: %s", p.Render(g))
			}
		}
	}
}

func TestEqualCostPathsCap(t *testing.T) {
	g, _ := FatTree(8)
	hosts := g.Hosts()
	p := g.EqualCostPaths(hosts[0], hosts[len(hosts)-1], 3)
	if len(p) != 3 {
		t.Fatalf("cap ignored: %d paths", len(p))
	}
}

func TestLinearTopology(t *testing.T) {
	g, err := Linear(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Switches()) != 3 || len(g.Hosts()) != 2 {
		t.Fatalf("linear(3) = %d switches, %d hosts", len(g.Switches()), len(g.Hosts()))
	}
	hosts := g.Hosts()
	p := g.EqualCostPaths(hosts[0], hosts[1], 0)
	if len(p) != 1 {
		t.Fatalf("linear has %d paths, want 1", len(p))
	}
	if p[0].SwitchCount(g) != 3 {
		t.Fatalf("linear path switch count = %d", p[0].SwitchCount(g))
	}
}

func TestRingTwoPaths(t *testing.T) {
	g, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	// Opposite hosts: two equal-cost paths around the ring.
	p := g.EqualCostPaths(hosts[0], hosts[3], 0)
	if len(p) != 2 {
		t.Fatalf("ring equal-cost paths = %d, want 2: %v", len(p), renderAll(g, p))
	}
}

func TestPathsWithMinSwitches(t *testing.T) {
	g, _ := Ring(6)
	hosts := g.Hosts()
	// Adjacent hosts: shortest path has 2 switches; ask for >= 4.
	ps := g.PathsWithMinSwitches(hosts[0], hosts[1], 4, 12, 0)
	if len(ps) == 0 {
		t.Fatal("no extended path found")
	}
	for _, p := range ps {
		if p.SwitchCount(g) < 4 {
			t.Fatalf("path %s has %d switches, want >= 4", p.Render(g), p.SwitchCount(g))
		}
		seen := map[NodeID]bool{}
		for _, id := range p {
			if seen[id] {
				t.Fatalf("path %s revisits a node", p.Render(g))
			}
			seen[id] = true
		}
	}
}

func TestPathsWithMinSwitchesRespectsMaxLen(t *testing.T) {
	g, _ := Ring(8)
	hosts := g.Hosts()
	ps := g.PathsWithMinSwitches(hosts[0], hosts[1], 2, 4, 0)
	for _, p := range ps {
		if len(p) > 5 { // maxLen counts hops; nodes = hops+1
			t.Fatalf("path %s exceeds maxLen", p.Render(g))
		}
	}
}

func TestLeafSpine(t *testing.T) {
	g, err := LeafSpine(4, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Switches()) != 10 || len(g.Hosts()) != 48 {
		t.Fatalf("leafspine = %d switches, %d hosts", len(g.Switches()), len(g.Hosts()))
	}
	hosts := g.Hosts()
	// Hosts on different leaves: one path per spine.
	p := g.EqualCostPaths(hosts[0], hosts[47], 0)
	if len(p) != 4 {
		t.Fatalf("leafspine paths = %d, want 4", len(p))
	}
}

func TestBCube(t *testing.T) {
	g, err := BCube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Hosts()) != 16 {
		t.Fatalf("BCube(4,1) hosts = %d, want 16", len(g.Hosts()))
	}
	if len(g.Switches()) != 8 {
		t.Fatalf("BCube(4,1) switches = %d, want 8", len(g.Switches()))
	}
	for _, h := range g.Hosts() {
		if len(g.Node(h).Ports) != 2 {
			t.Fatalf("BCube host %s has %d ports, want 2", g.Node(h).Name, len(g.Node(h).Ports))
		}
	}
	// Any two hosts must be reachable.
	hosts := g.Hosts()
	if p := g.EqualCostPaths(hosts[0], hosts[15], 0); len(p) == 0 {
		t.Fatal("BCube hosts unreachable")
	}
}

func TestHostByIP(t *testing.T) {
	g, _ := FatTree(4)
	h := g.Node(g.Hosts()[3])
	if got := g.HostByIP(h.IP); got != h {
		t.Fatalf("HostByIP(%v) = %v", h.IP, got)
	}
	if g.HostByIP(addr.V4(1, 1, 1, 1)) != nil {
		t.Fatal("HostByIP found nonexistent address")
	}
}

func TestValidateDetectsAsymmetry(t *testing.T) {
	g := New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	g.Connect(a, b)
	// Corrupt the back-reference.
	g.Node(b).Ports[0].PeerPort = 7
	if err := g.Validate(false); err == nil {
		t.Fatal("Validate missed asymmetric cabling")
	}
}

func TestPortTo(t *testing.T) {
	g, _ := Linear(2)
	s1, s2 := g.Switches()[0], g.Switches()[1]
	p := g.PortTo(s1, s2)
	if p < 0 {
		t.Fatal("adjacent switches not found")
	}
	if g.Node(s1).Ports[p].Peer != s2 {
		t.Fatal("PortTo returned wrong port")
	}
	if g.PortTo(s1, g.Hosts()[1]) != -1 {
		t.Fatal("PortTo found non-adjacent pair")
	}
}

// TestCableEndsArePortTo: PortTo answers the first port of from cabled to
// `to`, and Cable answers PortTo both ways, for every ordered node pair of
// every builder's graph and of a multigraph with parallel cables, added
// interleaved with others, and a loop.
func TestCableEndsArePortTo(t *testing.T) {
	multi := New()
	for i := 0; i < 5; i++ {
		multi.AddSwitch(fmt.Sprint("s", i))
	}
	for _, c := range [][2]NodeID{{0, 1}, {1, 2}, {1, 0}, {2, 2}, {0, 1}, {3, 1}, {1, 3}, {0, 2}} {
		multi.Connect(c[0], c[1])
	}
	ft, _ := FatTree(8)
	bc, _ := BCube(3, 2)
	jf, _ := Jellyfish(20, 4, 2, 5)
	for _, g := range []*Graph{multi, ft, bc, jf} {
		for _, from := range g.Nodes {
			for to := range g.Nodes {
				want := -1
				for i, p := range from.Ports {
					if p.Peer == NodeID(to) {
						want = i
						break
					}
				}
				if got := g.PortTo(from.ID, NodeID(to)); got != want {
					t.Fatalf("%d nodes: PortTo(%d, %d) = %d, want %d", len(g.Nodes), from.ID, to, got, want)
				}
				if a, b := g.Cable(from.ID, NodeID(to)); a != want || b != g.PortTo(NodeID(to), from.ID) {
					t.Fatalf("%d nodes: Cable(%d, %d) = %d, %d; want %d, %d", len(g.Nodes), from.ID, to, a, b, want, g.PortTo(NodeID(to), from.ID))
				}
			}
		}
	}
}

// TestFatTree16Invariants pins the large-fabric arithmetic the scale-out
// benches depend on: a k-ary fat-tree has 5k^2/4 switches, k^3/4 hosts,
// k ports per switch, unique addresses, and (k/2)^2 equal-cost paths
// between hosts in different pods.
func TestFatTree16Invariants(t *testing.T) {
	g, err := FatTree(16)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.Switches()); n != 320 {
		t.Errorf("switches = %d, want 320 (5k^2/4)", n)
	}
	if n := len(g.Hosts()); n != 1024 {
		t.Errorf("hosts = %d, want 1024 (k^3/4)", n)
	}
	for _, id := range g.Switches() {
		if p := len(g.Node(id).Ports); p != 16 {
			t.Fatalf("switch %s has %d ports, want 16", g.Node(id).Name, p)
		}
	}
	ips := map[addr.IP]bool{}
	macs := map[addr.MAC]bool{}
	for _, h := range g.Hosts() {
		n := g.Node(h)
		if ips[n.IP] || macs[n.MAC] {
			t.Fatalf("duplicate address on %s", n.Name)
		}
		ips[n.IP] = true
		macs[n.MAC] = true
	}
	hosts := g.Hosts()
	p := g.EqualCostPaths(hosts[0], hosts[len(hosts)-1], 0)
	if len(p) != 64 {
		t.Fatalf("cross-pod equal-cost paths = %d, want 64 ((k/2)^2)", len(p))
	}
	for _, path := range p {
		if path.SwitchCount(g) != 5 {
			t.Fatalf("cross-pod path %s has %d switches, want 5", path.Render(g), path.SwitchCount(g))
		}
	}
}

func BenchmarkFatTreeBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := FatTree(8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEqualCostPathsFatTree8(b *testing.B) {
	g, _ := FatTree(8)
	hosts := g.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.EqualCostPaths(hosts[0], hosts[len(hosts)-1], 0)
	}
}

func TestJellyfish(t *testing.T) {
	g, err := Jellyfish(12, 4, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Switches()) != 12 || len(g.Hosts()) != 24 {
		t.Fatalf("jellyfish = %d switches, %d hosts", len(g.Switches()), len(g.Hosts()))
	}
	// Degree bound: at most netDeg switch links + hostsPer host links.
	for _, sid := range g.Switches() {
		if p := len(g.Node(sid).Ports); p > 6 {
			t.Fatalf("switch %s has %d ports, cap 6", g.Node(sid).Name, p)
		}
	}
	// All host pairs reachable.
	hosts := g.Hosts()
	for _, j := range []int{1, 7, 23} {
		if len(g.EqualCostPaths(hosts[0], hosts[j], 1)) == 0 {
			t.Fatalf("host pair (0,%d) unreachable", j)
		}
	}
}

func TestJellyfishDeterministic(t *testing.T) {
	a, _ := Jellyfish(10, 3, 1, 42)
	b, _ := Jellyfish(10, 3, 1, 42)
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatal("same seed, different node count")
	}
	for i := range a.Nodes {
		if len(a.Nodes[i].Ports) != len(b.Nodes[i].Ports) {
			t.Fatal("same seed, different wiring")
		}
		for p := range a.Nodes[i].Ports {
			if a.Nodes[i].Ports[p].Peer != b.Nodes[i].Ports[p].Peer {
				t.Fatal("same seed, different peers")
			}
		}
	}
}

func TestJellyfishRejectsBadParams(t *testing.T) {
	for _, c := range [][3]int{{2, 2, 1}, {5, 1, 1}, {4, 4, 1}} {
		if _, err := Jellyfish(c[0], c[1], c[2], 1); err == nil {
			t.Errorf("Jellyfish%v accepted", c)
		}
	}
}
