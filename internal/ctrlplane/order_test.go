package ctrlplane

import (
	"slices"
	"testing"
	"time"

	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// The ordering oracle: a southbound program is a list of operations issued at
// given instants to three switches, run against a real Channel while a
// black-box observer checks what a barrier promises and what ordering by owner
// promises — and, on a lossless channel, compared instant for instant with a
// reference model of "a barrier fences its predecessors only, and a message
// waits for the earlier ones of its owner only".

type sbKind uint8

const (
	opInstall sbKind = iota // Install of one entry
	opDelete                // by its own cookie if it names a shared owner, else by that of the latest opInstall of no shared owner sent to its switch
	opGroup                 // Install of one entry and its group
	opHello
	opDump
	opBatch // InstallBatched over span consecutive switches, two mods on the first
	opBarrier
	opPass // Install at one switch of several owners' rules, as a reconciliation pass sends them
	sbKinds
)

const (
	sbSwitches = 3
	sbOwners   = 3 // owner 0 is each operation's own, 1 and 2 are shared
	sbEpochs   = 2
)

// sbOp is one operation of a program. Operations with equal at are issued
// back to back, in program order, from one event.
type sbOp struct {
	at    time.Duration
	kind  sbKind
	sw    int
	span  int // opBatch: switches sw, sw+1, ... (mod sbSwitches) addressed, 1..sbSwitches
	owner int // 0: the operation's rules are its own; 1, 2: a shared owner's, of epoch epoch
	epoch int
}

// touches reports whether op sends a message to switch s.
func (op sbOp) touches(s int) bool {
	if op.kind != opBatch {
		return op.sw == s
	}
	return (s-op.sw+sbSwitches)%sbSwitches < op.span
}

// installs reports whether op installs rules.
func (op sbOp) installs() bool {
	return op.kind == opInstall || op.kind == opGroup || op.kind == opBatch || op.kind == opPass
}

// sharedCookie returns the cookie of shared owner o's rules of one epoch.
func sharedCookie(o, epoch int) uint64 { return RuleCookie(uint64(1000+o), uint32(epoch), 0) }

// opCookie returns the cookie of operation i's rules, or of those it deletes.
// A pass also carries rules of its own and of shared owner 2 (opRules).
func opCookie(prog []sbOp, i int) uint64 {
	op := prog[i]
	switch {
	case op.owner > 0:
		return sharedCookie(op.owner, op.epoch)
	case op.kind != opDelete:
		return uint64(i + 1)
	}
	for j := i - 1; j >= 0; j-- {
		if prog[j].kind == opInstall && prog[j].sw == op.sw && prog[j].owner == 0 {
			return opCookie(prog, j)
		}
	}
	return 1 << cookieEpochShift // nobody's
}

// sbRule is one rule an installing operation writes: its switch, a key that
// tells its match from the operation's other rules, its cookie, and whether
// a group is sent with it.
type sbRule struct {
	sw, key int
	cookie  uint64
	group   bool
}

// opRules returns the rules operation i installs, in the order it lists
// them. A pass lists, at its switch, a rule of its own, one of shared owner 2
// in its epoch, and a rule of its cookie with a group: three owners' rules
// with owner 1; with owner 0 or 2, two owners' rules and one cookie listed
// twice (owner 0's with another cookie between).
func opRules(prog []sbOp, i int) []sbRule {
	op, cookie := prog[i], opCookie(prog, i)
	switch op.kind {
	case opInstall, opGroup:
		return []sbRule{{op.sw, 0, cookie, op.kind == opGroup}}
	case opBatch:
		var rules []sbRule
		for d := 0; d < op.span; d++ {
			rules = append(rules, sbRule{(op.sw + d) % sbSwitches, d, cookie, false})
		}
		return append(rules, sbRule{op.sw, 3, cookie, true})
	case opPass:
		return []sbRule{{op.sw, 0, uint64(i + 1), false}, {op.sw, 1, sharedCookie(2, op.epoch), false}, {op.sw, 2, cookie, true}}
	}
	return nil
}

// sbOutcome is what the observer saw of one operation.
type sbOutcome struct {
	fired   int                // completion callbacks received
	done    sim.Time           // instant of the last one
	failed  bool               // the sender was told it did not (all) land
	entries []*flowtable.Entry // installs: the entries, and per entry its switch,
	entrySw []int              // its first application and whether a later
	first   []sim.Time         // delete targets its cookie on its switch
	deleted []bool
}

// runProgram plays prog on a fresh three-switch channel and fails t unless
// (a) whenever a barrier — explicit, or the one closing an InstallBatched —
// completes, every message sent to its switch before it has resolved, and is
// installed or was counted failed; (b) on every switch, every application of
// an install precedes every application of a later one of the same owner and
// another cookie, no rule survives a later acknowledged delete of its cookie,
// and no delete removes a rule of its cookie installed later (the pairs of
// one owner whose order the tables show); and every operation completes
// exactly once, with no window left open and no message left waiting.
// deadWindow takes switch 2 down from 3 ms to 6 ms, so that messages are
// abandoned too. It returns each operation's completion instant.
func runProgram(t testing.TB, prog []sbOp, loss float64, seed uint64, deadWindow bool) []sim.Time {
	t.Helper()
	g, err := topo.Linear(sbSwitches)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{Seed: seed})
	ch := NewChannel(net)
	ch.LossRate, ch.MaxRetries = loss, 2
	var sw []*netsim.Switch
	for _, id := range g.Switches() {
		sw = append(sw, net.Switch(id))
	}
	if deadWindow {
		eng.At(sim.Time(3*time.Millisecond), func() { net.SetSwitchDownQuiet(sw[2].ID, true) })
		eng.At(sim.Time(6*time.Millisecond), func() { net.SetSwitchDownQuiet(sw[2].ID, false) })
	}

	out := make([]sbOutcome, len(prog))
	// fence checks promise (a) for a barrier on switch s whose predecessors
	// are prog[:upto].
	fence := func(what string, i, s, upto int) {
		installed := make(map[*flowtable.Entry]bool)
		for _, e := range sw[s].Table.Entries() {
			installed[e] = true
		}
		unapplied := uint64(0)
		for j, op := range prog[:upto] {
			if !op.touches(s) || op.kind == opBarrier {
				continue
			}
			o := &out[j]
			if op.kind != opBatch && o.fired != 1 {
				t.Fatalf("%s %d on s%d completed at %v with predecessor %d (kind %d, sent at %v) unresolved",
					what, i, s, eng.Now(), j, op.kind, op.at)
			}
			for k, e := range o.entries {
				if o.entrySw[k] != s || installed[e] || o.deleted[k] {
					continue
				}
				// A batch reports only with its own barriers; until then the
				// channel's per-switch abandonment count vouches for it.
				if op.kind == opBatch && o.fired == 0 {
					unapplied++
				} else if !o.failed {
					t.Fatalf("%s %d on s%d completed at %v: predecessor %d reported success but its rule is not installed",
						what, i, s, eng.Now(), j)
				}
			}
		}
		if unapplied > 0 && ch.Failed(sw[s].ID) == 0 {
			t.Fatalf("%s %d on s%d completed at %v with %d batched rules neither installed nor counted failed",
				what, i, s, eng.Now(), unapplied)
		}
	}
	complete := func(i int, failed bool) {
		out[i].fired++
		out[i].done = eng.Now()
		out[i].failed = failed
	}
	issue := func(i int) {
		op, o := prog[i], &out[i]
		s := sw[op.sw]
		var mods []Mod
		for _, r := range opRules(prog, i) {
			e := mflowEntry(4*i+r.key, r.cookie)
			o.entries, o.entrySw = append(o.entries, e), append(o.entrySw, r.sw)
			o.first, o.deleted = append(o.first, 0), append(o.deleted, false)
			m := Mod{Switch: sw[r.sw], Entry: e}
			if r.group {
				m.Group = &flowtable.Group{ID: flowtable.GroupID(i + 1)}
			}
			mods = append(mods, m)
		}
		switch op.kind {
		case opInstall, opGroup, opPass:
			ch.Install(mods, func(failed int) { complete(i, failed > 0) })
		case opDelete:
			cookie := opCookie(prog, i)
			for j := range out[:i] {
				for k, e := range out[j].entries {
					if out[j].entrySw[k] == op.sw && e.Cookie == cookie {
						out[j].deleted[k] = true
					}
				}
			}
			ch.DeleteByCookie(s, cookie, func(_ topo.NodeID, n int) { complete(i, n < 0) })
		case opHello:
			ch.Hello(s, func(ok bool) { complete(i, !ok) })
		case opDump:
			ch.DumpFlows(s, func(_ []*flowtable.Entry, _ []flowtable.GroupID, ok bool) { complete(i, !ok) })
		case opBatch:
			ch.InstallBatched(mods, func(failed int) {
				complete(i, failed > 0)
				for x := 0; x < sbSwitches; x++ {
					if op.touches(x) {
						fence("batch", i, x, i+1)
					}
				}
			})
		case opBarrier:
			ch.Barrier(s, func(ok bool) {
				complete(i, !ok)
				fence("barrier", i, op.sw, i)
			})
		}
	}
	for i := 0; i < len(prog); {
		j := i
		for j < len(prog) && prog[j].at == prog[i].at {
			j++
		}
		first, end := i, j
		eng.At(sim.Time(prog[i].at), func() {
			for k := first; k < end; k++ {
				issue(k)
			}
		})
		i = j
	}
	// An entry's Installed is stamped on every application, so the first
	// nonzero stamp seen is its first application and the last its last.
	for eng.Step() {
		for i := range out {
			for k, e := range out[i].entries {
				if out[i].first[k] == 0 && e.Installed != 0 {
					out[i].first[k] = e.Installed
				}
			}
		}
	}

	done := make([]sim.Time, len(prog))
	for i := range out {
		if out[i].fired != 1 {
			t.Fatalf("operation %d (kind %d, s%d, sent at %v) completed %d times", i, prog[i].kind, prog[i].sw, prog[i].at, out[i].fired)
		}
		done[i] = out[i].done
	}
	for s, x := range sw {
		if ch.InFlight(x.ID) != 0 || len(ch.sw[x.ID].waiters) != 0 || len(ch.sw[x.ID].owned) != 0 {
			t.Fatalf("s%d ends with %d messages in flight and %d waiting", s, ch.InFlight(x.ID), len(ch.sw[x.ID].waiters))
		}
	}
	checkOwnerOrder(t, prog, out, sw)
	return done
}

// checkOwnerOrder checks promise (b) of runProgram once the program has run.
func checkOwnerOrder(t testing.TB, prog []sbOp, out []sbOutcome, sw []*netsim.Switch) {
	t.Helper()
	installed := make(map[*flowtable.Entry]bool)
	for _, x := range sw {
		for _, e := range x.Table.Entries() {
			installed[e] = true
		}
	}
	for b := range prog {
		for a := range prog[:b] {
			for ka, ea := range out[a].entries {
				s, ca := out[a].entrySw[ka], ea.Cookie
				if cookieOwner(ca) == 0 {
					continue
				}
				for kb, eb := range out[b].entries {
					cb := eb.Cookie
					if out[b].entrySw[kb] == s && cookieOwner(cb) == cookieOwner(ca) && cb != ca &&
						ea.Installed != 0 && out[b].first[kb] != 0 && ea.Installed >= out[b].first[kb] {
						t.Fatalf("s%d: operation %d (cookie %#x) applied at %v, after operation %d (cookie %#x) of the same owner first applied at %v",
							s, a, ca, ea.Installed, b, cb, out[b].first[kb])
					}
				}
				if prog[b].kind == opDelete && prog[b].sw == s && opCookie(prog, b) == ca && !out[b].failed && installed[ea] {
					t.Fatalf("s%d: a rule of operation %d (cookie %#x) outlived the acknowledged delete %d of its cookie", s, a, ca, b)
				}
			}
			if prog[a].kind != opDelete {
				continue
			}
			for kb, eb := range out[b].entries {
				if out[b].entrySw[kb] == prog[a].sw && eb.Cookie == opCookie(prog, a) && out[b].first[kb] != 0 && !installed[eb] && !out[b].deleted[kb] {
					t.Fatalf("s%d: a rule of operation %d (cookie %#x) was removed by the earlier delete %d", prog[a].sw, b, eb.Cookie, a)
				}
			}
		}
	}
}

// modelProgram is the reference: on a lossless channel every message is
// acknowledged one round trip after it is sent. A message carrying rules is
// sent at the later of its issue instant and the latest acknowledgement among
// the earlier messages to its switch of its owner that it does not commute
// with — both deletes, or both installs of one cookie, commute. A barrier is
// sent at the later of its issue instant and the latest acknowledgement among
// the messages issued to its switch before it — those held back by owner and
// barriers already sent included, barriers still waiting not (they have sent
// nothing yet). An install sends, switch by switch, one message per cookie
// it carries there. It returns each operation's completion instant; an
// InstallBatched completes with its last barrier, an Install with its last
// message.
func modelProgram(prog []sbOp, latency time.Duration) []sim.Time {
	type sent struct {
		at, ack sim.Time
		barrier bool
		cookie  uint64 // 0 for a message that carries no rule
		del     bool
	}
	var wire [sbSwitches][]sent
	message := func(s int, at sim.Time, cookie uint64, del bool) sim.Time {
		if cookieOwner(cookie) == 0 {
			cookie = 0
		}
		send := at
		for _, m := range wire[s] {
			if cookie != 0 && cookieOwner(m.cookie) == cookieOwner(cookie) && (m.del != del || !del && m.cookie != cookie) {
				send = max(send, m.ack)
			}
		}
		wire[s] = append(wire[s], sent{at: send, ack: send.Add(2 * latency), cookie: cookie, del: del})
		return send.Add(2 * latency)
	}
	barrier := func(s int, at sim.Time) sim.Time {
		release := at
		for _, m := range wire[s] {
			if !m.barrier || m.at <= at {
				release = max(release, m.ack)
			}
		}
		wire[s] = append(wire[s], sent{at: release, ack: release.Add(2 * latency), barrier: true})
		return release.Add(2 * latency)
	}
	done := make([]sim.Time, len(prog))
	for i, op := range prog {
		at := sim.Time(op.at)
		switch {
		case op.kind == opBarrier:
			done[i] = barrier(op.sw, at)
		case op.kind == opDelete:
			done[i] = message(op.sw, at, opCookie(prog, i), true)
		case op.installs():
			rules := opRules(prog, i)
			for k, r := range rules {
				if slices.ContainsFunc(rules[:k], func(q sbRule) bool { return q.sw == r.sw }) {
					continue
				}
				var cookies []uint64
				for _, q := range rules[k:] {
					if q.sw == r.sw && !slices.Contains(cookies, q.cookie) {
						cookies = append(cookies, q.cookie)
						done[i] = max(done[i], message(r.sw, at, q.cookie, false))
					}
				}
				if op.kind == opBatch {
					done[i] = max(done[i], barrier(r.sw, at))
				}
			}
		default:
			done[i] = message(op.sw, at, 0, false)
		}
	}
	return done
}

// randomProgram draws groups of one to four operations at instants spread
// over 8 ms, a third of them each operation's own and the rest two shared
// owners' in two epochs. Each group's instant carries its own nanosecond
// offset, so no acknowledgement ever lands at the instant another group is
// issued and the model never has to break a tie the engine breaks by event
// order.
func randomProgram(seed uint64) []sbOp {
	rng := sim.NewRNG(seed)
	groups := 20 + rng.Intn(40)
	at := make([]time.Duration, groups)
	for g := range at {
		at[g] = time.Duration(rng.Intn(8000))*time.Microsecond + time.Duration(g)
	}
	slices.Sort(at)
	var prog []sbOp
	for _, t := range at {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			op := sbOp{at: t, kind: sbKind(rng.Intn(int(sbKinds))), sw: rng.Intn(sbSwitches), span: 1 + rng.Intn(sbSwitches),
				owner: rng.Intn(sbOwners), epoch: rng.Intn(sbEpochs)}
			if rng.Intn(3) == 0 {
				op.kind = opBarrier // a third of the traffic, as in a dial: batch, barrier, delete
			}
			prog = append(prog, op)
		}
	}
	return prog
}

// TestBarrierFencesOnlyPredecessors: seeded random southbound schedules at
// three loss rates. (a) A completed barrier vouches for everything sent
// before it, and (b) one owner's messages apply in send order (runProgram).
// (c) On a lossless channel every completion instant equals the reference
// model's — a barrier completes one round trip after the later of its issue
// and its last predecessor's acknowledgement, a message one round trip after
// the later of its issue and the acknowledgement of the last earlier message
// of its owner it must follow, never later. (d) Other owners never wait: with
// shared owner 1's rules taken out of a lossless program (its operations
// removed, its passes sending a rule of their own in place of owner 1's),
// every other operation but a barrier or a batch, which fence all owners,
// completes when it did. (e) A switch fed a fresh install every half latency for ever still
// completes a barrier two round trips after it is issued.
func TestBarrierFencesOnlyPredecessors(t *testing.T) {
	for _, loss := range []float64{0, 0.01, 0.1} {
		for seed := uint64(1); seed <= 20; seed++ {
			prog := randomProgram(seed)
			got := runProgram(t, prog, loss, seed, loss > 0)
			if loss > 0 {
				continue
			}
			want := modelProgram(prog, Latency)
			for i := range prog {
				if got[i] != want[i] {
					t.Fatalf("seed %d: operation %d (kind %d, s%d, owner %d, issued at %v) completed at %v, reference model says %v",
						seed, i, prog[i].kind, prog[i].sw, prog[i].owner, prog[i].at, got[i], want[i])
				}
			}
			var rest []sbOp
			var kept []int
			for i, op := range prog {
				if op.kind == opPass && op.owner == 1 {
					op.owner = 0 // its own rule in place of owner 1's
				}
				if op.owner != 1 {
					rest, kept = append(rest, op), append(kept, i)
				}
			}
			without := runProgram(t, rest, 0, seed, false)
			for j, i := range kept {
				if prog[i].kind != opBarrier && prog[i].kind != opBatch && prog[i].owner != 1 && without[j] != got[i] {
					t.Fatalf("seed %d: operation %d (kind %d, s%d, owner %d) completed at %v, and at %v without owner 1's traffic",
						seed, i, prog[i].kind, prog[i].sw, prog[i].owner, got[i], without[j])
				}
			}
		}
	}

	eng, _, ch, sw := oneSwitch(t)
	var feed func()
	n := 0
	feed = func() {
		n++
		ch.Install([]Mod{{Switch: sw, Entry: mflowEntry(n, 7)}}, nil)
		eng.After(Latency/2, feed)
	}
	feed()
	issued := sim.Time(10*Latency + Latency/4)
	done := sim.Time(-1)
	eng.At(issued, func() { ch.Barrier(sw, func(bool) { done = eng.Now() }) })
	eng.RunUntil(issued.Add(20 * Latency))
	if done < 0 {
		t.Fatalf("barrier starved: not complete %v after issue with %d messages still in flight", 20*Latency, ch.InFlight(sw.ID))
	}
	// Its last predecessor left a quarter latency before it.
	if want := issued.Add(4*Latency - Latency/4); done != want {
		t.Fatalf("barrier issued at %v into a steady feed completed at %v, want %v (last predecessor's ack plus one round trip)", issued, done, want)
	}
}

// decodeProgram reads a fuzz input: a loss byte (0, 1 %, 10 % or 30 %; bit 2
// opens switch 2's dead window), a loss-seed byte, then two bytes an
// operation — kind, switch, owner and epoch, then the gap to the previous
// operation in 50 µs steps (0 = the same instant) and a batch's span.
func decodeProgram(data []byte) (prog []sbOp, loss float64, seed uint64, deadWindow bool) {
	if len(data) < 2 {
		return nil, 0, 0, false
	}
	loss = []float64{0, 0.01, 0.1, 0.3}[data[0]&3]
	deadWindow, seed = data[0]&4 != 0, uint64(data[1])
	at := time.Duration(0)
	for data = data[2:]; len(data) >= 2 && len(prog) < 256; data = data[2:] {
		at += time.Duration(data[1]&0x3f) * 50 * time.Microsecond
		x := int(data[0])
		prog = append(prog, sbOp{
			at:    at,
			kind:  sbKind(x % int(sbKinds)),
			sw:    x / int(sbKinds) % sbSwitches,
			owner: x / int(sbKinds) / sbSwitches % sbOwners,
			epoch: x / int(sbKinds) / sbSwitches / sbOwners % sbEpochs,
			span:  1 + int(data[1]>>6)%sbSwitches,
		})
	}
	return prog, loss, seed, deadWindow
}

// FuzzSouthboundOrder feeds arbitrary message programs and loss seeds to
// runProgram: whatever the interleaving, a completed barrier vouches for
// everything sent before it, one owner's messages apply in send order, and
// every message completes exactly once.
func FuzzSouthboundOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 6, 0, 0, 1, 6, 0})                        // install, barrier, install, barrier
	f.Add([]byte{2, 7, 5, 0x80, 6, 0, 1, 2, 6, 0, 6, 0, 5, 0x41})      // batches and stacked barriers at 10 % loss
	f.Add([]byte{7, 3, 2, 60, 10, 0, 14, 0, 22, 10, 6, 0, 14, 30, 22}) // 30 % loss into the dead window
	// One owner's install, next epoch's batch, delete of the first epoch and
	// a barrier on s0, another owner's entry with its group and its delete on
	// s1, at 30 % loss.
	f.Add([]byte{3, 1, 24, 0, 101, 0x42, 25, 2, 6, 0, 58, 1, 57, 1})
	// A pass on s0 sends a rule of its own and one of shared owner 2 in one
	// Install, owner 2's cookie is deleted there at the same instant (a close
	// during a takeover's pass), then a barrier, at 30 % loss. The delete
	// must wait for the install message that carries owner 2's rule: sending
	// the pass as one message ordered under its first cookie lets the delete
	// overtake it here.
	f.Add([]byte{3, 1, 7, 0, 49, 0, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, loss, seed, deadWindow := decodeProgram(data)
		runProgram(t, prog, loss, seed, deadWindow)
	})
}
