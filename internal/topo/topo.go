// Package topo models data center topologies as port-level graphs and
// provides the builders and path computations the Mimic Controller needs:
// all-pairs equal-cost shortest paths (Sec IV-B2 of the paper) and bounded
// longer-path search for when a shortest path has fewer switches than the
// requested number of Mimic Nodes.
package topo

import (
	"fmt"

	"mic/internal/addr"
)

// Kind distinguishes end hosts from switches.
type Kind int

// Node kinds.
const (
	KindHost Kind = iota
	KindSwitch
)

// String names the kind.
func (k Kind) String() string {
	if k == KindHost {
		return "host"
	}
	return "switch"
}

// NodeID indexes a node within its Graph.
type NodeID int

// Port is one attachment point of a node. Peer/PeerPort identify the other
// end of the cable.
type Port struct {
	Peer     NodeID
	PeerPort int
}

// Node is a host or switch.
type Node struct {
	ID    NodeID
	Kind  Kind
	Name  string
	Ports []Port

	// Host-only attributes, assigned by builders.
	IP  addr.IP
	MAC addr.MAC
}

// Graph is an undirected port-level multigraph.
type Graph struct {
	Nodes []*Node

	// Indexes maintained by add: node IDs by kind in creation order, and the
	// first host added under each address.
	hosts, switches []NodeID
	byIP            map[addr.IP]*Node
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddHost adds a host with the given name and addresses.
func (g *Graph) AddHost(name string, ip addr.IP, mac addr.MAC) NodeID {
	return g.add(&Node{Kind: KindHost, Name: name, IP: ip, MAC: mac})
}

// AddSwitch adds a switch with the given name.
func (g *Graph) AddSwitch(name string) NodeID {
	return g.add(&Node{Kind: KindSwitch, Name: name})
}

func (g *Graph) add(n *Node) NodeID {
	n.ID = NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, n)
	if n.Kind == KindSwitch {
		g.switches = append(g.switches, n.ID)
		return n.ID
	}
	g.hosts = append(g.hosts, n.ID)
	if g.byIP == nil {
		g.byIP = make(map[addr.IP]*Node)
	}
	if _, dup := g.byIP[n.IP]; !dup {
		g.byIP[n.IP] = n
	}
	return n.ID
}

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) *Node { return g.Nodes[id] }

// Connect cables a and b together, allocating one new port on each, and
// returns the new port numbers.
func (g *Graph) Connect(a, b NodeID) (aPort, bPort int) {
	na, nb := g.Nodes[a], g.Nodes[b]
	aPort, bPort = len(na.Ports), len(nb.Ports)
	na.Ports = append(na.Ports, Port{Peer: b, PeerPort: bPort})
	nb.Ports = append(nb.Ports, Port{Peer: a, PeerPort: aPort})
	return aPort, bPort
}

// PortTo returns the lowest-numbered port of `from` that connects directly
// to `to`, or -1 if the nodes are not adjacent.
func (g *Graph) PortTo(from, to NodeID) int {
	p, _ := g.Cable(from, to)
	return p
}

// Cable returns the ports at either end of the lowest-numbered cable between
// a and b, or -1, -1 if the nodes are not adjacent. Connect gives a new cable
// the next port on both of its nodes, so b's port is PortTo(b, a).
func (g *Graph) Cable(a, b NodeID) (aPort, bPort int) {
	for i, p := range g.Nodes[a].Ports {
		if p.Peer == b {
			return i, p.PeerPort
		}
	}
	return -1, -1
}

// Hosts returns the IDs of all host nodes, in creation order. The slice is
// the graph's own (capacity clipped, so appending copies); callers must not
// modify its elements.
func (g *Graph) Hosts() []NodeID { return g.hosts[:len(g.hosts):len(g.hosts)] }

// Switches returns the IDs of all switch nodes, in creation order, under the
// same sharing rule as Hosts.
func (g *Graph) Switches() []NodeID { return g.switches[:len(g.switches):len(g.switches)] }

// HostByIP returns the host node holding ip (the first added, should several
// share it), or nil.
func (g *Graph) HostByIP(ip addr.IP) *Node { return g.byIP[ip] }

// Path is a node sequence from source to destination, both inclusive.
type Path []NodeID

// SwitchCount returns the number of switch hops on the path.
func (p Path) SwitchCount(g *Graph) int {
	n := 0
	for _, id := range p {
		if g.Nodes[id].Kind == KindSwitch {
			n++
		}
	}
	return n
}

// String renders the path with node names.
func (p Path) Render(g *Graph) string {
	s := ""
	for i, id := range p {
		if i > 0 {
			s += "->"
		}
		s += g.Nodes[id].Name
	}
	return s
}

// EqualCostPaths enumerates shortest paths from src to dst, up to max
// entries (0 means no cap). Paths never transit through a host: hosts may
// appear only as endpoints, matching how real fabrics forward.
func (g *Graph) EqualCostPaths(src, dst NodeID, max int) []Path {
	dTo := g.distNoHostTransit(dst)
	if dTo[src] < 0 {
		return nil
	}
	var out []Path
	var walk func(u NodeID, acc Path)
	walk = func(u NodeID, acc Path) {
		if max > 0 && len(out) >= max {
			return
		}
		acc = append(acc, u)
		if u == dst {
			out = append(out, append(Path(nil), acc...))
			return
		}
		for _, p := range g.Nodes[u].Ports {
			v := p.Peer
			if g.Nodes[v].Kind == KindHost && v != dst {
				continue
			}
			if dTo[v] == dTo[u]-1 {
				walk(v, acc)
			}
		}
	}
	walk(src, nil)
	return out
}

// distNoHostTransit is BFS toward dst where hosts other than dst do not
// forward.
func (g *Graph) distNoHostTransit(dst NodeID) []int {
	d := make([]int, len(g.Nodes))
	g.hopsFrom(dst, d, nil)
	return d
}

// hopsFrom fills d with every node's hop distance from src, -1 where
// unreachable; hosts other than src do not forward. It returns the queue it
// used, for reuse.
func (g *Graph) hopsFrom(src NodeID, d []int, queue []NodeID) []NodeID {
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if g.Nodes[u].Kind == KindHost && u != src {
			continue // hosts receive but do not forward
		}
		for _, p := range g.Nodes[u].Ports {
			if d[p.Peer] < 0 {
				d[p.Peer] = d[u] + 1
				queue = append(queue, p.Peer)
			}
		}
	}
	return queue
}

// Hops is a reusable breadth-first search over a graph in which hosts other
// than the source never forward — the per-host search that common routing
// and the MC's plausibility pools both run once per host of the fabric. Its
// distance table and queue are NodeID-indexed buffers reused from one search
// to the next.
type Hops struct {
	g     *Graph
	dist  []int
	queue []NodeID
}

// NewHops returns a search over g as it stands; nodes added later are not
// covered.
func NewHops(g *Graph) *Hops {
	return &Hops{g: g, dist: make([]int, len(g.Nodes)), queue: make([]NodeID, 0, len(g.Nodes))}
}

// From returns every node's hop distance from src, -1 where unreachable. The
// slice is valid until the next call.
func (h *Hops) From(src NodeID) []int {
	h.queue = h.g.hopsFrom(src, h.dist, h.queue)
	return h.dist
}

// PathsWithMinSwitches returns simple src->dst paths that traverse at least
// minSwitches switches, searching lengths up to maxLen hops, capped at max
// results. It backs the paper's path-extension rule: "if the path length is
// less than N, a new forwarding path with length larger than N will be
// calculated."
func (g *Graph) PathsWithMinSwitches(src, dst NodeID, minSwitches, maxLen, max int) []Path {
	var out []Path
	onPath := make([]bool, len(g.Nodes))
	var walk func(u NodeID, acc Path, switches int)
	walk = func(u NodeID, acc Path, switches int) {
		if max > 0 && len(out) >= max {
			return
		}
		acc = append(acc, u)
		onPath[u] = true
		defer func() { onPath[u] = false }()
		if g.Nodes[u].Kind == KindSwitch {
			switches++
		}
		if u == dst {
			if switches >= minSwitches {
				out = append(out, append(Path(nil), acc...))
			}
			return
		}
		if len(acc) > maxLen {
			return
		}
		if g.Nodes[u].Kind == KindHost && u != src {
			return // hosts do not forward
		}
		for _, p := range g.Nodes[u].Ports {
			if !onPath[p.Peer] {
				walk(p.Peer, acc, switches)
			}
		}
	}
	walk(src, nil, 0)
	return out
}

// Validate checks structural invariants: port back-references are symmetric
// and every host has exactly one uplink.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		for i, p := range n.Ports {
			peer := g.Nodes[p.Peer]
			if p.PeerPort >= len(peer.Ports) {
				return fmt.Errorf("topo: %s port %d points past peer %s ports", n.Name, i, peer.Name)
			}
			back := peer.Ports[p.PeerPort]
			if back.Peer != n.ID || back.PeerPort != i {
				return fmt.Errorf("topo: asymmetric cabling between %s and %s", n.Name, peer.Name)
			}
		}
		if n.Kind == KindHost && len(n.Ports) != 1 {
			return fmt.Errorf("topo: host %s has %d ports, want 1", n.Name, len(n.Ports))
		}
	}
	return nil
}
