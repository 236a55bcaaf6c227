package mic

import (
	"slices"
	"testing"

	"mic/internal/addr"
	"mic/internal/topo"
)

// checkBooks is the oracle for the MC's shared tables: it recomputes, from
// mc.channels alone, what the flow-ID allocator, the endpoint reservations,
// the link-load table, the two failure indexes and the per-switch rule count
// should hold, and compares each with what the MC keeps. It reads only the
// facts of a channel — res, each flow's Path, rules — so it says the same
// thing about any implementation of the bookkeeping.
func checkBooks(t testing.TB, mc *MC) {
	t.Helper()
	auditBooks(t, mc, false)
}

// checkBooksClosing is checkBooks for an instant at which closes may be
// waiting for their delete acks: a closed channel is off every table at once
// except the rule count, which keeps its slots until the switches confirm
// they are free — so there the MC may hold more than the live channels
// explain, never less.
func checkBooksClosing(t testing.TB, mc *MC) {
	t.Helper()
	auditBooks(t, mc, true)
}

func auditBooks(t testing.TB, mc *MC, closing bool) {
	t.Helper()
	g := mc.Net.Graph
	held := make(map[uint32]bool)
	inUse := make(map[[2]addr.IP]bool)
	load := make([]int, len(mc.linkLoad))
	onLink := make([][]uint64, len(mc.linkChannels))
	onNode := make([][]uint64, len(mc.nodeChannels))
	rules := make(map[topo.NodeID]int)
	for _, id := range sortedChanIDs(mc.channels) {
		st := mc.channels[id]
		if st.id != id || st.info.ID != id {
			t.Fatalf("channel %d is filed under %d (info says %d)", st.id, id, st.info.ID)
		}
		if len(st.res) != len(st.info.Flows) {
			t.Fatalf("channel %d: %d flow resources for %d flows", id, len(st.res), len(st.info.Flows))
		}
		for i, r := range st.res {
			for _, fid := range [2]uint32{r.fwdID, r.revID} {
				if held[fid] {
					t.Fatalf("channel %d: flow ID %d is held twice", id, fid)
				}
				held[fid] = true
			}
			for _, key := range [2][2]addr.IP{{st.initiator, r.entry}, {st.responder, r.finalSrc}} {
				if inUse[key] {
					t.Fatalf("channel %d: endpoint reservation %v is taken twice", id, key)
				}
				inUse[key] = true
			}
			if st.info.Flows[i].Entry != r.entry {
				t.Fatalf("channel %d flow %d: client entry %v, reserved %v", id, i, st.info.Flows[i].Entry, r.entry)
			}
		}
		for _, f := range st.info.Flows {
			for i, node := range f.Path {
				if g.Node(node).Kind == topo.KindSwitch && !slices.Contains(onNode[node], id) {
					onNode[node] = append(onNode[node], id)
				}
				if i+1 == len(f.Path) {
					break
				}
				next := f.Path[i+1]
				for _, l := range [2]int{
					mc.linkBase[node] + g.PortTo(node, next),
					mc.linkBase[next] + g.PortTo(next, node),
				} {
					load[l]++
					if !slices.Contains(onLink[l], id) {
						onLink[l] = append(onLink[l], id)
					}
				}
			}
		}
		for _, rr := range st.rules {
			rules[rr.node]++
		}
	}

	if len(mc.flowIDs.held) != len(held) {
		t.Errorf("allocator holds %d flow IDs, live channels hold %d", len(mc.flowIDs.held), len(held))
	}
	for fid := range held {
		if !mc.flowIDs.held[fid] {
			t.Errorf("flow ID %d belongs to a live channel and is not held", fid)
		}
	}
	for _, fid := range mc.flowIDs.free {
		if held[fid] {
			t.Errorf("flow ID %d belongs to a live channel and is on the free list", fid)
		}
	}
	for key := range inUse {
		if !mc.entryInUse[key] {
			t.Errorf("reservation %v belongs to a live channel and is not booked", key)
		}
	}
	for key, on := range mc.entryInUse {
		if on && !inUse[key] {
			t.Errorf("reservation %v is booked for no live channel", key)
		}
	}
	for l := range load {
		if mc.linkLoad[l] != load[l] {
			t.Errorf("link %d: load %d, live flows crossing it %d", l, mc.linkLoad[l], load[l])
		}
		if !slices.Equal(sortedIDSet(mc.linkChannels[l]), sortedIDSet(onLink[l])) {
			t.Errorf("link %d: indexed channels %v, crossing it %v", l, mc.linkChannels[l], onLink[l])
		}
	}
	for n := range onNode {
		if !slices.Equal(sortedIDSet(mc.nodeChannels[n]), sortedIDSet(onNode[n])) {
			t.Errorf("switch %d: indexed channels %v, crossing it %v", n, mc.nodeChannels[n], onNode[n])
		}
	}
	for node, n := range rules {
		if got := mc.ruleCount[node]; got < n || (got > n && !closing) {
			t.Errorf("switch %d: %d rules counted, live channels intend %d", node, got, n)
		}
	}
	for node, n := range mc.ruleCount {
		if n != 0 && rules[node] == 0 && !closing {
			t.Errorf("switch %d: %d rules counted for no live channel", node, n)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// replayed returns a fresh passive twin of mc rebuilt from the journal alone
// (restore) — what a standby promoted this instant would hold.
func replayed(t testing.TB, mc *MC, j *Journal) *MC {
	t.Helper()
	twin, err := newMC(mc.Net, mc.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin.restore(j)
	return twin
}

// checkReplay holds a live controller against its journal: the live books
// balance, a twin replayed from the journal holds the same channels fact for
// fact, and the twin's books balance too.
func checkReplay(t testing.TB, mc *MC, j *Journal) {
	t.Helper()
	checkBooks(t, mc)
	twin := replayed(t, mc, j)
	sameChannels(t, mc, twin)
	checkBooks(t, twin)
}

// checkClusterReplay is checkReplay on the acting member.
func checkClusterReplay(t testing.TB, cl *Cluster) {
	t.Helper()
	m := cl.activeMember()
	if m == nil {
		t.Fatal("no active member to check")
	}
	checkReplay(t, m.mc, cl.Journal)
}

// sameChannels compares two controllers' live channels field by field.
func sameChannels(t testing.TB, live, twin *MC) {
	t.Helper()
	if a, b := sortedChanIDs(live.channels), sortedChanIDs(twin.channels); !slices.Equal(a, b) {
		t.Fatalf("live channels %v, replayed %v", a, b)
	}
	for _, id := range sortedChanIDs(live.channels) {
		a, b := live.channels[id], twin.channels[id]
		if a.id != b.id || a.req != b.req || a.initiator != b.initiator || a.responder != b.responder || a.opts != b.opts {
			t.Fatalf("channel %d: identity differs after replay", id)
		}
		if a.epoch != b.epoch || a.gen != b.gen {
			t.Fatalf("channel %d: live epoch/gen %d/%d, replayed %d/%d", id, a.epoch, a.gen, b.epoch, b.gen)
		}
		if !slices.Equal(a.res, b.res) {
			t.Fatalf("channel %d: live res %v, replayed %v", id, a.res, b.res)
		}
		if !slices.Equal(a.rules, b.rules) {
			t.Fatalf("channel %d: %d live rules, %d replayed, or they differ", id, len(a.rules), len(b.rules))
		}
		if len(a.info.Flows) != len(b.info.Flows) {
			t.Fatalf("channel %d: %d live flows, %d replayed", id, len(a.info.Flows), len(b.info.Flows))
		}
		for i, fa := range a.info.Flows {
			fb := b.info.Flows[i]
			if fa.Entry != fb.Entry || !slices.Equal(fa.Path, fb.Path) || !slices.Equal(fa.MNs, fb.MNs) {
				t.Fatalf("channel %d flow %d: live %+v, replayed %+v", id, i, fa, fb)
			}
		}
	}
}
