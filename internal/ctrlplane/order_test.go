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
// black-box observer checks what a barrier promises — and, on a lossless
// channel, compared instant for instant with a ten-line reference model of
// "a barrier fences its predecessors only".

type sbKind uint8

const (
	opFlowMod sbKind = iota
	opDelete         // by the cookie of the latest FlowMod sent to the same switch
	opGroupMod
	opHello
	opDump
	opBatch // InstallBatched over span consecutive switches, two mods on the first
	opBarrier
	sbKinds
)

const sbSwitches = 3

// sbOp is one operation of a program. Operations with equal at are issued
// back to back, in program order, from one event.
type sbOp struct {
	at   time.Duration
	kind sbKind
	sw   int
	span int // opBatch: switches sw, sw+1, ... (mod sbSwitches) addressed, 1..sbSwitches
}

// touches reports whether op sends a message to switch s.
func (op sbOp) touches(s int) bool {
	if op.kind != opBatch {
		return op.sw == s
	}
	return (s-op.sw+sbSwitches)%sbSwitches < op.span
}

// sbOutcome is what the observer saw of one operation.
type sbOutcome struct {
	fired   int      // completion callbacks received
	done    sim.Time // instant of the last one
	failed  bool     // the sender was told it did not (all) land
	deleted bool     // opFlowMod: a later delete targets its cookie
	entries []*flowtable.Entry
	entrySw []int
}

// runProgram plays prog on a fresh three-switch channel and fails t unless
// (a) whenever a barrier — explicit, or the one closing an InstallBatched —
// completes, every message sent to its switch before it has resolved, and is
// installed or was counted failed; and every operation completes exactly
// once, with no window left open and no barrier left parked. deadWindow takes
// switch 2 down from 3 ms to 6 ms, so that messages are abandoned too. It
// returns each operation's completion instant.
func runProgram(t testing.TB, prog []sbOp, loss float64, seed uint64, deadWindow bool) []sim.Time {
	t.Helper()
	g, err := topo.Linear(sbSwitches)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	ch := NewChannel(net)
	ch.LossRate, ch.LossSeed, ch.MaxRetries = loss, seed, 2
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
				if o.entrySw[k] != s || installed[e] || o.deleted {
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
	lastFlowMod := [sbSwitches]int{-1, -1, -1}
	issue := func(i int) {
		op, o := prog[i], &out[i]
		rule := func(s, k int) *flowtable.Entry {
			e := mflowEntry(4*i+k, uint64(i+1))
			o.entries, o.entrySw = append(o.entries, e), append(o.entrySw, s)
			return e
		}
		s := sw[op.sw]
		switch op.kind {
		case opFlowMod:
			lastFlowMod[op.sw] = i
			ch.FlowModErr(s, rule(op.sw, 0), func(err error) { complete(i, err != nil) })
		case opDelete:
			cookie := uint64(1 << 40) // nobody's
			if j := lastFlowMod[op.sw]; j >= 0 {
				cookie, out[j].deleted = uint64(j+1), true
			}
			ch.DeleteByCookie(s, cookie, func(n int) { complete(i, n < 0) })
		case opGroupMod:
			ch.GroupModResult(s, &flowtable.Group{ID: flowtable.GroupID(i + 1)}, func(ok bool) { complete(i, !ok) })
		case opHello:
			ch.Hello(s, func(ok bool) { complete(i, !ok) })
		case opDump:
			ch.DumpFlows(s, func(_ []*flowtable.Entry, _ []flowtable.GroupID, ok bool) { complete(i, !ok) })
		case opBatch:
			var mods []Mod
			for d := 0; d < op.span; d++ {
				x := (op.sw + d) % sbSwitches
				mods = append(mods, Mod{Switch: sw[x], Entry: rule(x, d)})
			}
			mods = append(mods, Mod{Switch: s, Entry: rule(op.sw, 3), Group: &flowtable.Group{ID: flowtable.GroupID(i + 1)}})
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
	eng.Run()

	done := make([]sim.Time, len(prog))
	for i := range out {
		if out[i].fired != 1 {
			t.Fatalf("operation %d (kind %d, s%d, sent at %v) completed %d times", i, prog[i].kind, prog[i].sw, prog[i].at, out[i].fired)
		}
		done[i] = out[i].done
	}
	for s, x := range sw {
		if ch.InFlight(x.ID) != 0 || len(ch.sw[x.ID].waiters) != 0 {
			t.Fatalf("s%d ends with %d messages in flight and %d barriers parked", s, ch.InFlight(x.ID), len(ch.sw[x.ID].waiters))
		}
	}
	return done
}

// modelProgram is the reference: on a lossless channel every message is
// acknowledged one round trip after it is sent, and a barrier is sent at the
// later of its issue instant and the latest acknowledgement among the
// messages sent to its switch before it was issued — barriers already sent
// included, barriers still waiting not (they have sent nothing yet). It
// returns each operation's completion instant; an InstallBatched completes
// with its last barrier.
func modelProgram(prog []sbOp, latency time.Duration) []sim.Time {
	type sent struct{ at, ack sim.Time }
	var wire [sbSwitches][]sent
	message := func(s int, at sim.Time) sim.Time {
		wire[s] = append(wire[s], sent{at, at.Add(2 * latency)})
		return at.Add(2 * latency)
	}
	barrier := func(s int, at sim.Time) sim.Time {
		release := at
		for _, m := range wire[s] {
			if m.at <= at && m.ack > release {
				release = m.ack
			}
		}
		return message(s, release)
	}
	done := make([]sim.Time, len(prog))
	for i, op := range prog {
		at := sim.Time(op.at)
		switch op.kind {
		case opBarrier:
			done[i] = barrier(op.sw, at)
		case opBatch:
			for d := 0; d < op.span; d++ {
				s := (op.sw + d) % sbSwitches
				message(s, at)
				done[i] = max(done[i], barrier(s, at))
			}
		default:
			done[i] = message(op.sw, at)
		}
	}
	return done
}

// randomProgram draws groups of one to four operations at instants spread
// over 8 ms. Each group's instant carries its own nanosecond offset, so no
// acknowledgement ever lands at the instant another group is issued and the
// model never has to break a tie the engine breaks by event order.
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
			op := sbOp{at: t, kind: sbKind(rng.Intn(int(sbKinds))), sw: rng.Intn(sbSwitches), span: 1 + rng.Intn(sbSwitches)}
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
// before it (runProgram). (b) On a lossless channel every completion instant
// equals the reference model's — a barrier completes one round trip after the
// later of its issue and its last predecessor's acknowledgement, never later.
// (c) A switch fed a fresh FlowMod every half latency for ever still
// completes a barrier two round trips after it is issued.
func TestBarrierFencesOnlyPredecessors(t *testing.T) {
	for _, loss := range []float64{0, 0.01, 0.1} {
		for seed := uint64(1); seed <= 20; seed++ {
			prog := randomProgram(seed)
			got := runProgram(t, prog, loss, seed, loss > 0)
			if loss > 0 {
				continue
			}
			want := modelProgram(prog, DefaultControlLatency)
			for i := range prog {
				if got[i] != want[i] {
					t.Fatalf("seed %d: operation %d (kind %d, s%d, issued at %v) completed at %v, reference model says %v",
						seed, i, prog[i].kind, prog[i].sw, prog[i].at, got[i], want[i])
				}
			}
		}
	}

	eng, _, ch, sw := oneSwitch(t)
	var feed func()
	n := 0
	feed = func() {
		n++
		ch.FlowModResult(sw, mflowEntry(n, 7), nil)
		eng.After(ch.Latency/2, feed)
	}
	feed()
	issued := sim.Time(10*ch.Latency + ch.Latency/4)
	done := sim.Time(-1)
	eng.At(issued, func() { ch.Barrier(sw, func(bool) { done = eng.Now() }) })
	eng.RunUntil(issued.Add(20 * ch.Latency))
	if done < 0 {
		t.Fatalf("barrier starved: not complete %v after issue with %d messages still in flight", 20*ch.Latency, ch.InFlight(sw.ID))
	}
	// Its last predecessor left a quarter latency before it.
	if want := issued.Add(4*ch.Latency - ch.Latency/4); done != want {
		t.Fatalf("barrier issued at %v into a steady feed completed at %v, want %v (last predecessor's ack plus one round trip)", issued, done, want)
	}
}

// decodeProgram reads a fuzz input: a loss byte (0, 1 %, 10 % or 30 %; bit 2
// opens switch 2's dead window), a loss-seed byte, then two bytes an
// operation — kind and switch, then the gap to the previous operation in
// 50 µs steps (0 = the same instant) and a batch's span.
func decodeProgram(data []byte) (prog []sbOp, loss float64, seed uint64, deadWindow bool) {
	if len(data) < 2 {
		return nil, 0, 0, false
	}
	loss = []float64{0, 0.01, 0.1, 0.3}[data[0]&3]
	deadWindow, seed = data[0]&4 != 0, uint64(data[1])
	at := time.Duration(0)
	for data = data[2:]; len(data) >= 2 && len(prog) < 256; data = data[2:] {
		at += time.Duration(data[1]&0x3f) * 50 * time.Microsecond
		prog = append(prog, sbOp{
			at:   at,
			kind: sbKind(data[0] % byte(sbKinds)),
			sw:   int(data[0]/byte(sbKinds)) % sbSwitches,
			span: 1 + int(data[1]>>6)%sbSwitches,
		})
	}
	return prog, loss, seed, deadWindow
}

// FuzzSouthboundOrder feeds arbitrary message programs and loss seeds to
// runProgram: whatever the interleaving, a completed barrier vouches for
// everything sent before it and every message completes exactly once.
func FuzzSouthboundOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 6, 0, 0, 1, 6, 0})                       // FlowMod, barrier, FlowMod, barrier
	f.Add([]byte{2, 7, 5, 0x80, 6, 0, 1, 2, 6, 0, 6, 0, 5, 0x41})     // batches and stacked barriers at 10 % loss
	f.Add([]byte{7, 3, 2, 60, 9, 0, 13, 0, 20, 10, 6, 0, 13, 30, 20}) // 30 % loss into the dead window
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, loss, seed, deadWindow := decodeProgram(data)
		runProgram(t, prog, loss, seed, deadWindow)
	})
}
