package mic

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mic/internal/addr"
	"mic/internal/ctrlplane"
	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/topo"
)

// verify fails t unless the bed's acting controller passes verifyError.
// Every test that leaves a bed quiescent ends with it.
func verify(t testing.TB, f *fixture) {
	t.Helper()
	if err := verifyError(f); err != nil {
		t.Fatal(err)
	}
}

// errStale marks a switch holding an m-flow entry that no live channel's
// current epoch has, the damage a takeover without reconciliation or a
// deposed master's writes leave behind.
var errStale = errors.New("stale m-flow entry")

// errDivergent marks a journal that took a write from a deposed master,
// whether or not fencing kept it out of replay.
var errDivergent = errors.New("divergent journal")

// verifyError is the oracle for a bed at quiescence, no southbound message
// in flight. It holds the acting controller to every check that applies and
// joins what each finds:
//   - the books (booksError) and the tables (tablesError);
//   - when the controller keeps a journal, a passive twin rebuilt from it
//     holds the same channels fact for fact, and its books balance too;
//   - on a cluster, the audit is clean, the journal took no write from a
//     deposed master, and unless fencing is off every switch carries the
//     cluster's fencing epoch.
func verifyError(f *fixture) error {
	mc := f.mc
	if f.cl != nil {
		mc = f.cl.ActiveMC() // nil during a blackout
	}
	if mc == nil {
		return errors.New("no acting controller to verify")
	}
	errs := []error{booksError(mc), tablesError(mc)}
	if mc.journal != nil {
		twin := replayed(mc, mc.journal)
		if err := errors.Join(sameChannels(mc, twin), booksError(twin)); err != nil {
			errs = append(errs, fmt.Errorf("journal replay: %w", err))
		}
	}
	if cl := f.cl; cl != nil {
		stale, missing := cl.Audit()
		if stale != 0 {
			errs = append(errs, fmt.Errorf("audit: %d entries no live channel wants: %w", stale, errStale))
		}
		if missing != 0 {
			errs = append(errs, fmt.Errorf("audit: %d intended entries not installed", missing))
		}
		if n := cl.Journal.Divergent; n != 0 {
			errs = append(errs, fmt.Errorf("the journal took %d writes from deposed masters: %w", n, errDivergent))
		}
		if !cl.CCfg.DisableFencing {
			for _, sw := range cl.Net.Switches() {
				if sw.FenceEpoch != cl.Fence() {
					errs = append(errs, fmt.Errorf("%s fencing mark %d, cluster epoch %d", sw.Name, sw.FenceEpoch, cl.Fence()))
				}
			}
		}
	}
	return errors.Join(errs...)
}

// checkBooks fails t unless mc's books balance (booksError). Unlike verify
// it holds at any instant, so the beds run it on every repair event.
func checkBooks(t testing.TB, mc *MC) {
	t.Helper()
	if err := booksError(mc); err != nil {
		t.Fatal(err)
	}
}

// booksError is the oracle for the MC's shared tables: it recomputes, from
// mc.channels alone, what the flow-ID allocator, the endpoint reservations,
// the link-load table, the two failure indexes and the per-switch rule count
// should hold, and compares each with what the MC keeps. It reads only the
// facts of a channel — res, each flow's Path, rules — so it says the same
// thing about any implementation of the bookkeeping.
//
// A closed channel is off every table at once except the rule count, which
// keeps its slots until the switches confirm they are free: while a
// southbound message is in flight the MC may count more rules than the live
// channels explain, never fewer.
func booksError(mc *MC) error {
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
			return fmt.Errorf("channel %d is filed under %d (info says %d)", st.id, id, st.info.ID)
		}
		if len(st.res) != len(st.info.Flows) {
			return fmt.Errorf("channel %d: %d flow resources for %d flows", id, len(st.res), len(st.info.Flows))
		}
		for i, r := range st.res {
			for _, fid := range [2]uint32{r.fwdID, r.revID} {
				if held[fid] {
					return fmt.Errorf("channel %d: flow ID %d is held twice", id, fid)
				}
				held[fid] = true
			}
			for _, key := range [2][2]addr.IP{{st.initiator, r.entry}, {st.responder, r.finalSrc}} {
				if inUse[key] {
					return fmt.Errorf("channel %d: endpoint reservation %v is taken twice", id, key)
				}
				inUse[key] = true
			}
			if st.info.Flows[i].Entry != r.entry {
				return fmt.Errorf("channel %d flow %d: client entry %v, reserved %v", id, i, st.info.Flows[i].Entry, r.entry)
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

	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if len(mc.flowIDs.held) != len(held) {
		fail("allocator holds %d flow IDs, live channels hold %d", len(mc.flowIDs.held), len(held))
	}
	for fid := range held {
		if !mc.flowIDs.held[fid] {
			fail("flow ID %d belongs to a live channel and is not held", fid)
		}
	}
	for _, fid := range mc.flowIDs.free {
		if held[fid] {
			fail("flow ID %d belongs to a live channel and is on the free list", fid)
		}
	}
	for key := range inUse {
		if !mc.entryInUse[key] {
			fail("reservation %v belongs to a live channel and is not booked", key)
		}
	}
	for key, on := range mc.entryInUse {
		if on && !inUse[key] {
			fail("reservation %v is booked for no live channel", key)
		}
	}
	for l := range load {
		if mc.linkLoad[l] != load[l] {
			fail("link %d: load %d, live flows crossing it %d", l, mc.linkLoad[l], load[l])
		}
		if !slices.Equal(sortedIDSet(mc.linkChannels[l]), sortedIDSet(onLink[l])) {
			fail("link %d: indexed channels %v, crossing it %v", l, mc.linkChannels[l], onLink[l])
		}
	}
	for n := range onNode {
		if !slices.Equal(sortedIDSet(mc.nodeChannels[n]), sortedIDSet(onNode[n])) {
			fail("switch %d: indexed channels %v, crossing it %v", n, mc.nodeChannels[n], onNode[n])
		}
	}
	inFlight := 0
	for _, sw := range mc.Net.Switches() {
		inFlight += mc.Ch.InFlight(sw.ID)
	}
	for node, n := range rules {
		if got := mc.ruleCount[node]; got < n || got > n && inFlight == 0 {
			fail("switch %d: %d rules counted, live channels intend %d", node, got, n)
		}
	}
	for node, n := range mc.ruleCount {
		if n != 0 && rules[node] == 0 && inFlight == 0 {
			fail("switch %d: %d rules counted for no live channel", node, n)
		}
	}
	return errors.Join(errs...)
}

// tablesError holds the switches' flow tables to the MC at quiescence, no
// southbound message in flight:
//   - every m-flow entry installed belongs to a live channel's current epoch,
//     or its switch is marked for the MC to reconcile;
//   - no entry is installed twice, in two tables or in one;
//   - every entry and group a live channel intends is installed where it is
//     intended, unless that switch abandoned a message;
//   - every group installed is one a live channel intends there.
//
// A delete overtaken by an install shows as the first; storage recycled while
// one of its entries was still installed as the second, once a later
// channel's install puts the same entry on another switch; an older epoch's
// install overtaking a newer one, and the old epoch's purge then deleting it,
// as the third; a group outliving its epoch as the fourth.
func tablesError(mc *MC) error {
	current := make(map[uint64]bool)
	groups := make(map[topo.NodeID]map[flowtable.GroupID]*flowtable.Group)
	for _, id := range sortedChanIDs(mc.channels) {
		current[mc.channels[id].cookie()] = true
		for _, rr := range mc.channels[id].rules {
			if rr.group != nil {
				if groups[rr.node] == nil {
					groups[rr.node] = make(map[flowtable.GroupID]*flowtable.Group)
				}
				groups[rr.node][rr.group.ID] = rr.group
			}
		}
	}
	installedOn := make(map[*flowtable.Entry]*netsim.Switch)
	for _, sw := range mc.Net.Switches() {
		if n := mc.Ch.InFlight(sw.ID); n != 0 {
			return fmt.Errorf("%s has %d southbound messages in flight; tables are checked at quiescence", sw.Name, n)
		}
		for _, e := range sw.Table.Entries() {
			if other, twice := installedOn[e]; twice {
				return fmt.Errorf("one entry (cookie %#x) is installed on %s and on %s", e.Cookie, other.Name, sw.Name)
			}
			installedOn[e] = sw
			if e.Priority == ctrlplane.PriorityMFlow && !current[e.Cookie] && !mc.recon[sw.ID].marked {
				return fmt.Errorf("%s holds cookie %#x, no live channel's current epoch, and is not marked for reconcile: %w", sw.Name, e.Cookie, errStale)
			}
		}
		for _, gid := range sw.Table.GroupIDs() {
			if groups[sw.ID][gid] == nil {
				return fmt.Errorf("%s holds group %d, which no live channel's current epoch has there", sw.Name, gid)
			}
		}
	}
	for _, id := range sortedChanIDs(mc.channels) {
		for _, rr := range mc.channels[id].rules {
			sw := mc.Net.Switch(rr.node)
			if mc.Ch.Failed(sw.ID) > 0 {
				continue
			}
			if installedOn[rr.entry] != sw {
				return fmt.Errorf("%s lacks an entry of channel %d's current epoch (cookie %#x)", sw.Name, id, rr.entry.Cookie)
			}
			if rr.group == nil {
				continue
			}
			if g, ok := sw.Table.Group(rr.group.ID); !ok || g != rr.group {
				return fmt.Errorf("%s lacks group %d of channel %d's current epoch", sw.Name, rr.group.ID, id)
			}
		}
	}
	return nil
}

// replayed returns a fresh passive twin of mc rebuilt from the journal alone
// (restore) — what a standby promoted this instant would hold.
func replayed(mc *MC, j *Journal) *MC {
	twin, err := newMC(mc.Net, mc.Cfg)
	if err != nil {
		panic(err) // mc runs the same config
	}
	twin.restore(j)
	return twin
}

// sameChannels compares two controllers' live channels field by field.
func sameChannels(live, twin *MC) error {
	if a, b := sortedChanIDs(live.channels), sortedChanIDs(twin.channels); !slices.Equal(a, b) {
		return fmt.Errorf("live channels %v, replayed %v", a, b)
	}
	for _, id := range sortedChanIDs(live.channels) {
		a, b := live.channels[id], twin.channels[id]
		if a.id != b.id || a.req != b.req || a.initiator != b.initiator || a.responder != b.responder || a.opts != b.opts {
			return fmt.Errorf("channel %d: identity differs after replay", id)
		}
		if a.epoch != b.epoch || a.gen != b.gen {
			return fmt.Errorf("channel %d: live epoch/gen %d/%d, replayed %d/%d", id, a.epoch, a.gen, b.epoch, b.gen)
		}
		if !slices.Equal(a.res, b.res) {
			return fmt.Errorf("channel %d: live res %v, replayed %v", id, a.res, b.res)
		}
		if !slices.Equal(a.rules, b.rules) {
			return fmt.Errorf("channel %d: %d live rules, %d replayed, or they differ", id, len(a.rules), len(b.rules))
		}
		if len(a.info.Flows) != len(b.info.Flows) {
			return fmt.Errorf("channel %d: %d live flows, %d replayed", id, len(a.info.Flows), len(b.info.Flows))
		}
		for i, fa := range a.info.Flows {
			fb := b.info.Flows[i]
			if fa.Entry != fb.Entry || !slices.Equal(fa.Path, fb.Path) || !slices.Equal(fa.MNs, fb.MNs) {
				return fmt.Errorf("channel %d flow %d: live %+v, replayed %+v", id, i, fa, fb)
			}
		}
	}
	return nil
}
