// Command mictopo inspects the topology builders: node/link inventory and
// equal-cost path enumeration. `mictopo -topo fattree -k 4` prints the
// paper's Fig 5 testbed.
package main

import (
	"flag"
	"fmt"
	"os"

	"mic/internal/topo"
)

func main() {
	var (
		kind  = flag.String("topo", "fattree", "fattree | leafspine | linear | ring")
		k     = flag.Int("k", 4, "fat-tree arity / linear & ring switch count")
		paths = flag.String("paths", "", "show equal-cost paths between two hosts, e.g. -paths h1,h16")
	)
	flag.Parse()

	var g *topo.Graph
	var err error
	switch *kind {
	case "fattree":
		g, err = topo.FatTree(*k)
	case "leafspine":
		g, err = topo.LeafSpine(*k, *k*2, *k)
	case "linear":
		g, err = topo.Linear(*k)
	case "ring":
		g, err = topo.Ring(*k)
	default:
		err = fmt.Errorf("mictopo: unknown topology %q", *kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("topology: %s  switches=%d hosts=%d\n", *kind, len(g.Switches()), len(g.Hosts()))
	for _, sid := range g.Switches() {
		n := g.Node(sid)
		fmt.Printf("  %-10s ports=%d ->", n.Name, len(n.Ports))
		for _, p := range n.Ports {
			fmt.Printf(" %s", g.Node(p.Peer).Name)
		}
		fmt.Println()
	}
	for _, hid := range g.Hosts() {
		n := g.Node(hid)
		fmt.Printf("  %-10s ip=%v mac=%v uplink=%s\n", n.Name, n.IP, n.MAC, g.Node(n.Ports[0].Peer).Name)
	}

	if *paths != "" {
		var src, dst topo.NodeID = -1, -1
		var i, j int
		if n, _ := fmt.Sscanf(*paths, "h%d,h%d", &i, &j); n == 2 {
			hosts := g.Hosts()
			if i >= 1 && i <= len(hosts) && j >= 1 && j <= len(hosts) && i != j {
				src, dst = hosts[i-1], hosts[j-1]
			}
		}
		if src < 0 {
			fmt.Fprintln(os.Stderr, "mictopo: bad -paths value; use h1,h16")
			os.Exit(2)
		}
		ps := g.EqualCostPaths(src, dst, 0)
		fmt.Printf("equal-cost shortest paths %s -> %s: %d\n", g.Node(src).Name, g.Node(dst).Name, len(ps))
		for _, p := range ps {
			fmt.Printf("  %s (%d switches)\n", p.Render(g), p.SwitchCount(g))
		}
	}
}
