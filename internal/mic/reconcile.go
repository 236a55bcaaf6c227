package mic

import (
	"slices"

	"mic/internal/ctrlplane"
	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/topo"
)

// This file converges switches against what the MC intends. A switch may
// hold rules the MC does not want — a dead controller life's, or an epoch's
// whose delete it never confirmed — and the MC's one way to converge it is a
// pass: dump, diff against intent, converge. Passes run on every switch at a
// takeover, on a marked switch that reconnects (SwitchUp, the prober's OnUp,
// a management heal), and on a live switch when one of the MC's deletes to
// it goes unconfirmed. A pass that fails while its switch is up is retried
// with the repair job's backoff; once the retries are spent, the mark waits
// for the next reconnect, heal or takeover.

// switchRecon is what the MC knows about converging one switch.
type switchRecon struct {
	marked bool // the switch may hold rules the MC does not want
	busy   bool // a pass is out, or waits out its backoff
	tries  int  // passes failed in a row since the last trigger
}

// reconnect converges a switch that is back in reach, if it is marked.
func (mc *MC) reconnect(node topo.NodeID) {
	if mc.recon[node].marked {
		mc.reconcile(node)
	}
}

// reconcile marks node and converges it now, with a fresh retry budget, or
// after the pass that is out.
func (mc *MC) reconcile(node topo.NodeID) {
	r := &mc.recon[node]
	r.marked, r.tries = true, 0
	if !r.busy {
		mc.converge(node, true, nil)
	}
}

// converge runs a pass on node if it is up and the MC active, or leaves it
// marked. With fence the pass waits until everything the MC has in flight to
// the switch is resolved: a superseded batch may land after a dump, and must
// be read by it. A takeover's passes, whose channel carries only Hellos, need
// no fence and report to onDone (may be nil) once.
func (mc *MC) converge(node topo.NodeID, fence bool, onDone func(reinstalled, stale int)) {
	r, sw := &mc.recon[node], mc.Net.Switch(node)
	if onDone == nil {
		onDone = func(int, int) {}
	}
	if sw.Down || mc.down || !mc.active {
		r.marked = true
		onDone(0, 0)
		return
	}
	r.busy, r.marked = true, false
	run := gated(mc, func(bool) {
		mc.pass(sw, func(reinstalled, stale int, ok bool) {
			onDone(reinstalled, stale)
			mc.settle(node, ok)
		})
	})
	if fence && mc.Ch.InFlight(node) > 0 {
		mc.Ch.Barrier(sw, run)
	} else {
		run(true)
	}
}

// settle follows a pass: a failed one leaves its switch marked and, while the
// switch is up, is retried after the repair job's backoff until its retries
// are spent; a switch marked again while the pass was out gets another now.
func (mc *MC) settle(node topo.NodeID, ok bool) {
	r := &mc.recon[node]
	r.busy, r.marked = false, r.marked || !ok
	switch {
	case !r.marked || mc.Net.Switch(node).Down:
	case ok:
		mc.converge(node, true, nil)
	case r.tries < mc.repairMaxRetries():
		r.tries++
		r.busy = true
		mc.Net.Eng.After(mc.repairBackoff(r.tries), mc.gate(func() {
			r.busy = false
			mc.converge(node, true, nil)
		}))
	}
}

// pass dumps sw, diffs the dump against the MC's intent and converges the
// switch: it puts the channels' missing rules back and then deletes the
// stale cookies the MC minted, so each delete applies after the reinstall of
// its match (one owner's messages apply in send order); a rule the MC did
// not mint is another controller's and stays. A barrier closes the pass.
// Stale groups leave when it answers, re-checked against intent then: the
// barrier fenced every message that could put them back. done reports the
// counts and whether every message was confirmed.
func (mc *MC) pass(sw *netsim.Switch, done func(reinstalled, stale int, ok bool)) {
	mc.Ch.DumpFlows(sw, mc.gate3(func(entries []*flowtable.Entry, groups []flowtable.GroupID, ok bool) {
		if !ok {
			done(0, 0, false)
			return
		}
		have, stale, _, _ := mc.diff(sw.ID, entries)
		mods, reinstalled := mc.missingAt(sw, have, groups)
		staleDeleted := 0
		inc := mc.incarnation
		deleted := func(_ topo.NodeID, removed int) { // one for every stale cookie
			if !mc.down && inc == mc.incarnation {
				ok = ok && removed >= 0
				staleDeleted += max(removed, 0)
			}
		}
		mc.Ch.InstallAllResult(mods, gated(mc, func(failed int) { ok = ok && failed == 0 }))
		for _, cookie := range stale {
			if mc.minted(cookieChannel(cookie), 32) {
				mc.Ch.DeleteByCookie(sw, cookie, deleted)
			}
		}
		mc.Ch.Barrier(sw, gated(mc, func(acked bool) {
			ok = ok && acked
			if len(groups) > 0 {
				_, groupIntent := mc.intentAt(sw.ID)
				for _, gid := range groups {
					if groupIntent[gid] == nil && mc.minted(uint64(gid), 24) {
						sw.Table.DeleteGroup(gid)
					}
				}
			}
			mc.reinstalled += uint64(reinstalled)
			mc.staleDeleted += uint64(staleDeleted)
			done(reinstalled, staleDeleted, ok)
		}))
	}))
}

// minted reports whether this controller minted id: a channel ID carries its
// minting controller's InstanceID above bit 32, a group ID in its top byte
// (shift 24). Another controller's rules and groups on the fabric are never
// this MC's to delete.
func (mc *MC) minted(id uint64, shift int) bool {
	return uint32(id>>shift) == mc.Cfg.InstanceID
}

// intentAt collects the MC's intended rules for one switch: the entries by
// reconciliation key and the groups by ID, what reconciliation and the audit
// diff a switch's table against. Both maps are the MC's scratch, valid until
// the next call.
func (mc *MC) intentAt(node topo.NodeID) (intent map[reconKey]*flowtable.Entry, groupIntent map[flowtable.GroupID]*flowtable.Group) {
	intent, groupIntent = clearedMap(&mc.intent), clearedMap(&mc.groupIntent)
	// lint:ignore detrange filling maps; the result is independent of order
	for _, st := range mc.channels {
		for _, rr := range st.rules {
			if rr.node != node {
				continue
			}
			if rr.entry != nil {
				intent[entryReconKey(rr.entry)] = rr.entry
			}
			if rr.group != nil {
				groupIntent[rr.group.ID] = rr.group
			}
		}
	}
	return intent, groupIntent
}

// missingAt returns the mods that put back what of the MC's intent for sw a
// dump of it lacks (have, groups), channels in ID order, a group with its
// rule's entry, whose cookie orders it; n counts the rules and groups.
func (mc *MC) missingAt(sw *netsim.Switch, have map[reconKey]bool, groups []flowtable.GroupID) (mods []ctrlplane.Mod, n int) {
	for _, id := range sortedChanIDs(mc.channels) {
		for _, rr := range mc.channels[id].rules {
			if rr.node != sw.ID {
				continue
			}
			mod := ctrlplane.Mod{Switch: sw, Entry: rr.entry}
			if rr.group != nil && !slices.Contains(groups, rr.group.ID) {
				mod.Group = rr.group
				n++
			}
			if rr.entry != nil && !have[entryReconKey(rr.entry)] {
				n++
			} else if mod.Group == nil {
				continue
			}
			mods = append(mods, mod)
		}
	}
	return mods, n
}

// reconKey identifies one flow entry for reconciliation: the full match plus
// priority and cookie. Two controller lives computing the same channel from
// the same journal produce the same key; a dead life's stale epoch differs
// in the cookie and is caught.
type reconKey struct {
	match    flowtable.Match
	priority int
	cookie   uint64
}

func entryReconKey(e *flowtable.Entry) reconKey {
	return reconKey{match: e.Match, priority: e.Priority, cookie: e.Cookie}
}

// diff classifies the m-flow entries of node's table against the MC's
// intent: have holds the intended ones installed, stale the cookies of the
// others in first-seen order, staleN counts those entries and missing the
// intended ones not installed. A pass and the audit read a table through it
// alike; have is the MC's scratch, valid until the next call.
func (mc *MC) diff(node topo.NodeID, entries []*flowtable.Entry) (have map[reconKey]bool, stale []uint64, staleN, missing int) {
	intent, _ := mc.intentAt(node)
	have = clearedMap(&mc.have)
	for _, e := range entries {
		if !mflowCookie(e.Cookie) {
			continue // common routing is generation-invariant
		}
		if k := entryReconKey(e); intent[k] != nil {
			have[k] = true
			continue
		}
		staleN++
		if !slices.Contains(stale, e.Cookie) {
			stale = append(stale, e.Cookie)
		}
	}
	return have, stale, staleN, len(intent) - len(have)
}

// clearedMap empties the scratch map *m, making it on first use, and
// returns it.
func clearedMap[K comparable, V any](m *map[K]V) map[K]V {
	if *m == nil {
		*m = make(map[K]V)
	}
	clear(*m)
	return *m
}
