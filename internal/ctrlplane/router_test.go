package ctrlplane

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// installEager is ProactiveRouter.Install as it was before common routing
// became one deferred batch per switch: every rule handed to TryInsert as
// soon as it is carved, hosts outer and switches in order. It is the oracle
// the deferred batches are checked against.
func installEager(r *ProactiveRouter, net *netsim.Network) (int, error) {
	g := net.Graph
	installed := 0
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
	next := make([]int, len(g.Nodes))
	routes := func(visit func(h *topo.Node, sid topo.NodeID, out int) error) error {
		for _, hid := range hosts {
			if err := nextHops(g, hops.From(hid), hid, next); err != nil {
				return err
			}
			for _, sid := range switches {
				if out := next[sid]; out >= 0 {
					if err := visit(g.Node(hid), sid, out); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	base := make([]int, len(g.Nodes)+1)
	for id, n := range g.Nodes {
		base[id+1] = base[id] + len(n.Ports)
	}
	used := make([]bool, base[len(g.Nodes)])
	type batch struct{ rules, attached, ports int }
	batches := make([]batch, len(g.Nodes))
	if err := routes(func(h *topo.Node, sid topo.NodeID, out int) error {
		b := &batches[sid]
		b.rules += 2
		switch port := base[sid] + out; {
		case g.Node(sid).Ports[out].Peer == h.ID:
			b.attached++
		case !used[port]:
			used[port] = true
			b.ports++
		}
		return nil
	}); err != nil {
		return installed, err
	}
	slabs := make([]flowtable.Slab, len(g.Nodes))
	for _, sid := range switches {
		b := batches[sid]
		slabs[sid] = flowtable.NewSlab(b.rules, 5*b.attached+2*b.ports)
	}
	shared := make([][]flowtable.Action, len(used))
	err := routes(func(h *topo.Node, sid topo.NodeID, out int) error {
		sw := net.Switch(sid)
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
		if g.Node(sid).Ports[out].Peer == h.ID {
			untagged.Actions = slab.List(flowtable.SetEthDst(h.MAC), flowtable.Output(out))
			tagged.Actions = slab.List(flowtable.PopMPLS(), flowtable.SetEthDst(h.MAC), flowtable.Output(out))
		} else {
			list := &shared[base[sid]+out]
			if *list == nil {
				*list = slab.List(flowtable.PushMPLS(r.CFLabel), flowtable.Output(out))
			}
			untagged.Actions, tagged.Actions = *list, (*list)[1:]
		}
		if err := install(sw, slab.Entry(untagged)); err != nil {
			return err
		}
		return install(sw, slab.Entry(tagged))
	})
	return installed, err
}

// TestDeferredRoutingMatchesEager: on fat-tree(4), fat-tree(8), BCube and
// Jellyfish, common routing installed as deferred batches counts what the
// eager oracle installed before any read, and after the first read every
// switch holds the oracle's entries field for field and in the same order —
// installed once at time zero, and again (as a second controller would) 5 ms
// later, which replaces every rule in place, with the first batch read
// before the second install or still pending under it.
func TestDeferredRoutingMatchesEager(t *testing.T) {
	fabrics := []struct {
		name  string
		build func() (*topo.Graph, error)
	}{
		{"fattree4", func() (*topo.Graph, error) { return topo.FatTree(4) }},
		{"fattree8", func() (*topo.Graph, error) { return topo.FatTree(8) }},
		{"bcube", func() (*topo.Graph, error) { return topo.BCube(4, 1) }},
		{"jellyfish8", func() (*topo.Graph, error) { return topo.Jellyfish(8, 3, 2, 7) }},
	}
	for _, fab := range fabrics {
		for _, readFirst := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/readfirst=%v", fab.name, readFirst), func(t *testing.T) {
				checkDeferredRouting(t, fab.build, readFirst)
			})
		}
	}
}

// checkDeferredRouting installs common routing twice on one fabric, as
// deferred batches and through the eager oracle, and compares the two.
func checkDeferredRouting(t *testing.T, build func() (*topo.Graph, error), readFirst bool) {
	var nets [2]*netsim.Network // deferred, eager
	for i := range nets {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = netsim.New(sim.New(), g, netsim.Config{})
	}
	r := &ProactiveRouter{CFLabel: 1000}
	for round := 0; round < 2; round++ {
		for _, net := range nets {
			net.Eng.RunUntil(sim.Time(round) * sim.Time(5*time.Millisecond))
		}
		n, err := r.Install(nets[0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := installEager(r, nets[1])
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("round %d: Install reports %d rules, the oracle %d", round, n, want)
		}
		for _, sid := range nets[0].Graph.Switches() {
			got, want := nets[0].Switch(sid).Table, nets[1].Switch(sid).Table
			if got.Len() != want.Len() {
				t.Fatalf("round %d, switch %d: Len() before any read = %d, oracle %d", round, sid, got.Len(), want.Len())
			}
			if round == 1 || readFirst {
				checkSameEntries(t, fmt.Sprintf("round %d, switch %d", round, sid), got.Entries(), want.Entries())
			}
		}
	}
}

// checkSameEntries compares two tables' entries in match order, field for
// field.
func checkSameEntries(t *testing.T, where string, got, want []*flowtable.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, oracle %d", where, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Priority != w.Priority || g.Match != w.Match || g.Cookie != w.Cookie || g.Evictable != w.Evictable ||
			g.Installed != w.Installed || g.LastUsed != w.LastUsed || g.Packets != w.Packets || g.Bytes != w.Bytes ||
			!slices.Equal(g.Actions, w.Actions) {
			t.Fatalf("%s: entry %d is %+v, oracle %+v", where, i, *g, *w)
		}
	}
}

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
