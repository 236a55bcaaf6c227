package ctrlplane

import (
	"sort"
	"testing"
	"unsafe"

	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// TestCommonRoutingSharesListsPerPort: on every switch, the rules toward
// remote hosts share one action list per egress port, the tagged rules its
// tail; each attached host has a pair of its own; and the switch's entries
// and action lists are carved back to back, each from one array.
func TestCommonRoutingSharesListsPerPort(t *testing.T) {
	fabrics := []struct {
		name  string
		build func() (*topo.Graph, error)
	}{
		{"fattree4", func() (*topo.Graph, error) { return topo.FatTree(4) }},
		{"leafspine", func() (*topo.Graph, error) { return topo.LeafSpine(2, 4, 3) }},
		{"bcube", func() (*topo.Graph, error) { return topo.BCube(4, 1) }},
		{"ring", func() (*topo.Graph, error) { return topo.Ring(5) }},
		{"jellyfish8", func() (*topo.Graph, error) { return topo.Jellyfish(8, 3, 2, 7) }},
	}
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			g, err := fab.build()
			if err != nil {
				t.Fatal(err)
			}
			net := netsim.New(sim.New(), g, netsim.Config{})
			if _, err := (&ProactiveRouter{CFLabel: 1000}).Install(net); err != nil {
				t.Fatal(err)
			}
			for _, sid := range g.Switches() {
				checkCommonSlab(t, g, net.Switch(sid))
			}
		})
	}
}

func checkCommonSlab(t *testing.T, g *topo.Graph, sw *netsim.Switch) {
	t.Helper()
	entries := sw.Table.Entries()
	if len(entries) == 0 {
		return
	}
	perPort := make(map[int][]flowtable.Action) // egress port -> the remote hosts' untagged list
	lists := make(map[*flowtable.Action][]flowtable.Action)
	remote := func(e *flowtable.Entry) (port int, ok bool) {
		out := e.Actions[len(e.Actions)-1]
		if out.Op != flowtable.OpOutput {
			t.Fatalf("%s: a common rule ends in %v", sw.Name, out)
		}
		port = int(out.Arg)
		return port, g.Node(g.Node(sw.ID).Ports[port].Peer).Kind != topo.KindHost
	}
	for _, e := range entries {
		port, ok := remote(e)
		switch {
		case !ok: // toward an attached host: its own pair
			lists[&e.Actions[0]] = e.Actions
		case e.Priority == PriorityCommonUntagged:
			if first, seen := perPort[port]; seen && &first[0] != &e.Actions[0] {
				t.Fatalf("%s: two remote hosts out of port %d hold separate lists", sw.Name, port)
			}
			perPort[port] = e.Actions
			lists[&e.Actions[0]] = e.Actions
		}
	}
	for _, e := range entries {
		if port, ok := remote(e); ok && e.Priority == PriorityCommonTagged && &e.Actions[0] != &perPort[port][1] {
			t.Fatalf("%s: a tagged rule out of port %d is not the tail of the port's list", sw.Name, port)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		return uintptr(unsafe.Pointer(entries[i])) < uintptr(unsafe.Pointer(entries[j]))
	})
	for i := 1; i < len(entries); i++ {
		if unsafe.Add(unsafe.Pointer(entries[i-1]), unsafe.Sizeof(flowtable.Entry{})) != unsafe.Pointer(entries[i]) {
			t.Fatalf("%s: entry %d of %d is not carved next to its predecessor", sw.Name, i, len(entries))
		}
	}
	starts := make([]*flowtable.Action, 0, len(lists))
	for p := range lists {
		starts = append(starts, p)
	}
	sort.Slice(starts, func(i, j int) bool {
		return uintptr(unsafe.Pointer(starts[i])) < uintptr(unsafe.Pointer(starts[j]))
	})
	for i := 1; i < len(starts); i++ {
		prev := lists[starts[i-1]]
		if unsafe.Add(unsafe.Pointer(starts[i-1]), uintptr(len(prev))*unsafe.Sizeof(prev[0])) != unsafe.Pointer(starts[i]) {
			t.Fatalf("%s: action list %d of %d does not start where the one before it ends", sw.Name, i, len(starts))
		}
	}
}
