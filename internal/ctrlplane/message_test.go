package ctrlplane

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// update rewrites the golden transcript from the current build instead of
// comparing against it:
//
//	go test ./internal/ctrlplane -run TestSouthboundScheduleGolden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// mflowEntry is a distinct m-flow-priority rule for tests: key separates the
// matches, cookie tags the owner.
func mflowEntry(key int, cookie uint64) *flowtable.Entry {
	return &flowtable.Entry{
		Priority: PriorityMFlow,
		Cookie:   cookie,
		Match:    flowtable.Match{Mask: flowtable.MatchInPort, InPort: key},
	}
}

// playSchedule runs a fixed mix of every reliable southbound message kind —
// installs with and without barriers, barriers (idle and queued behind
// in-flight messages), deletes, dumps, hellos — against five switches, one of them
// capacity-bound, one fenced off at a higher epoch and one silently dead for
// a while, and returns a transcript: the instant and arguments of every
// completion callback in firing order, then the channel's counters and each
// switch's end state.
func playSchedule(loss float64, seed uint64) string {
	g, err := topo.Linear(5)
	if err != nil {
		panic(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{Seed: seed})
	ch := NewChannel(net)
	ch.LossRate = loss
	ch.MaxRetries = 3
	var sw []*netsim.Switch
	for _, id := range g.Switches() {
		sw = append(sw, net.Switch(id))
	}
	sw[1].Table.Capacity = 2
	sw[3].AcceptFenced(9) // everything this epoch-0 channel sends there is stale

	var out bytes.Buffer
	logf := func(format string, args ...any) {
		fmt.Fprintf(&out, "%9d  ", int64(eng.Now()))
		fmt.Fprintf(&out, format, args...)
		out.WriteByte('\n')
	}
	at := func(d time.Duration, fn func()) { eng.At(sim.Time(d), fn) }
	barrier := func(tag string, s int) {
		ch.Barrier(sw[s], func(ok bool) { logf("barrier %s s%d ok=%v", tag, s, ok) })
	}
	del := func(tag string, s int, cookie uint64) {
		ch.DeleteByCookie(sw[s], cookie, func(_ topo.NodeID, n int) { logf("delete %s s%d cookie=%d removed=%d", tag, s, cookie, n) })
	}
	install := func(what string, mods ...Mod) {
		ch.Install(mods, func(failed int) { logf("%s failed=%d", what, failed) })
	}
	dump := func(tag string, s int) {
		ch.DumpFlows(sw[s], func(es []*flowtable.Entry, gs []flowtable.GroupID, ok bool) {
			logf("dump %s s%d entries=%d groups=%v ok=%v", tag, s, len(es), gs, ok)
		})
	}

	at(0, func() {
		var mods []Mod
		for s := 0; s < 4; s++ {
			mods = append(mods, Mod{Switch: sw[s], Entry: mflowEntry(10*s, 7)})
		}
		mods = append(mods, Mod{Switch: sw[0], Group: &flowtable.Group{ID: 3}, Entry: mflowEntry(1, 7)})
		for s := 3; s >= 1; s-- {
			mods = append(mods, Mod{Switch: sw[s], Entry: mflowEntry(10*s+1, 7)}, Mod{Switch: sw[s], Entry: mflowEntry(10*s+2, 8)})
		}
		ch.InstallBatched(mods, func(failed int) { logf("batch A failed=%d", failed) })
		barrier("a", 0)
	})
	at(200*time.Microsecond, func() {
		install("install s1", Mod{Switch: sw[1], Entry: mflowEntry(19, 8)})
		install("install s3", Mod{Switch: sw[3], Entry: mflowEntry(39, 8)})
		install("group s2", Mod{Switch: sw[2], Entry: mflowEntry(29, 0), Group: &flowtable.Group{ID: 5}})
		install("group s3", Mod{Switch: sw[3], Entry: mflowEntry(38, 0), Group: &flowtable.Group{ID: 5}})
	})
	at(time.Millisecond, func() { dump("a", 0) })
	at(1500*time.Microsecond, func() {
		del("a", 0, 7)
		barrier("b", 0)
		barrier("c", 0)
	})
	at(2*time.Millisecond, func() {
		mods := []Mod{
			{Switch: sw[4], Entry: mflowEntry(40, 7)},
			{Switch: sw[0], Entry: mflowEntry(2, 8)},
			{Switch: sw[4], Entry: mflowEntry(41, 8)},
			{Switch: sw[2], Entry: mflowEntry(20, 8)},
		}
		ch.InstallBatched(mods, func(failed int) { logf("batch B failed=%d", failed) })
	})
	at(3*time.Millisecond, func() { net.SetSwitchDownQuiet(sw[4].ID, true) })
	at(3100*time.Microsecond, func() {
		install("install s4", Mod{Switch: sw[4], Entry: mflowEntry(42, 7)})
		del("b", 4, 8)
		barrier("d", 4)
		barrier("e", 4)
	})
	at(4*time.Millisecond, func() {
		ch.Hello(sw[2], func(ok bool) { logf("hello s2 ok=%v", ok) })
		ch.Hello(sw[3], func(ok bool) { logf("hello s3 ok=%v", ok) })
		barrier("f", 3)
	})
	at(5*time.Millisecond, func() {
		del("c", 2, 8)
		del("d", 1, 7)
		del("e", 3, 7)
		dump("b", 2)
		dump("c", 4)
	})
	at(6*time.Millisecond, func() {
		ch.InstallBatched(nil, func(failed int) { logf("batch C failed=%d", failed) })
		var mods []Mod
		for s := 0; s < 3; s++ {
			mods = append(mods, Mod{Switch: sw[s], Entry: mflowEntry(10*s+5, 9), Group: &flowtable.Group{ID: flowtable.GroupID(20 + s)}})
		}
		install("install-all", mods...)
		barrier("g", 1)
	})
	at(9*time.Millisecond, func() { net.SetSwitchDownQuiet(sw[4].ID, false) })
	at(9500*time.Microsecond, func() {
		ch.InstallBatched([]Mod{{Switch: sw[4], Entry: mflowEntry(43, 9)}}, func(failed int) { logf("batch D failed=%d", failed) })
		del("f", 4, 7)
	})
	eng.Run()

	fmt.Fprintf(&out, "counters flowmods=%d groupmods=%d deletes=%d barriers=%d dumps=%d hellos=%d batches=%d batched=%d\n",
		ch.FlowMods, ch.GroupMods, ch.Deletes, ch.Barriers, ch.Dumps, ch.Hellos, ch.Batches, ch.BatchedMods)
	fmt.Fprintf(&out, "reliability retransmits=%d timeouts=%d giveups=%d acked=%d tablefulls=%d stalerejects=%d\n",
		ch.Retransmits, ch.Timeouts, ch.GiveUps, ch.Acked, ch.TableFulls, ch.StaleRejects)
	for s, x := range sw {
		fmt.Fprintf(&out, "s%d entries=%d groups=%v inflight=%d failed=%d stale=%d\n",
			s, x.Table.Len(), x.Table.GroupIDs(), ch.InFlight(x.ID), ch.Failed(x.ID), x.StaleRejected)
	}
	fmt.Fprintf(&out, "events=%d end=%d\n", eng.Processed(), int64(eng.Now()))
	return out.String()
}

// TestSouthboundScheduleGolden pins the instants and arguments of every
// completion callback and every reliability counter of a mixed southbound
// schedule, at three loss rates times twenty loss seeds. The transcript was
// captured from the closure-based deliver this package had before messages
// became pooled records, and regenerated three times since. When barriers
// stopped waiting for messages sent after them, lossless barrier completions
// (and the InstallBatched reports they close) moved earlier and nothing else
// moved. When messages began to wait for the earlier ones of their owner, the
// one lossless line to move was delete f, 10.5 → 11.1 ms: it now waits for
// the install of its cookie sent into s4's dead window. When every install
// became one message per switch and cookie, the single FlowMods and GroupMods
// became one-mod installs (a group now rides with an entry of no owner) and
// install-all sent three messages where it had sent six. Lossless, no
// completion instant moved: the labels did, the counters (batch A carries
// cookies 7 and 8 to s1-s3 in two messages each, so s3 refuses one more),
// s3's stale count and s2's entries (a group's entry of no owner stays).
// Under loss a message that leaves at another instant, or a message fewer,
// also draws from the one loss stream at another point, which reshuffles
// every later draw of that run.
func TestSouthboundScheduleGolden(t *testing.T) {
	var got bytes.Buffer
	for _, loss := range []float64{0, 0.1, 0.4} {
		for seed := uint64(1); seed <= 20; seed++ {
			fmt.Fprintf(&got, "== loss=%.1f seed=%d\n%s", loss, seed, playSchedule(loss, seed))
		}
	}
	path := filepath.Join("testdata", "southbound_schedule.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("transcript differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// oneSwitch builds a channel to a single switch.
func oneSwitch(t *testing.T) (*sim.Engine, *netsim.Network, *Channel, *netsim.Switch) {
	t.Helper()
	g, err := topo.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, net, ch := build(t, g)
	return eng, net, ch, net.Switch(g.Switches()[0])
}

// TestSouthboundMessageAllocs: once the record free lists are warm, a
// Barrier, a DeleteByCookie and a three-mod InstallBatched (a batch and its
// closing barrier) allocate nothing — the caller's completion callback, made
// once outside the measured rounds, is the only closure involved.
func TestSouthboundMessageAllocs(t *testing.T) {
	eng, _, ch, sw := oneSwitch(t)
	mods := []Mod{
		{Switch: sw, Entry: mflowEntry(1, 7)},
		{Switch: sw, Entry: mflowEntry(2, 7), Group: &flowtable.Group{ID: 4}},
	}
	oks, removed, failed := 0, 0, 0
	onOK := func(ok bool) {
		if ok {
			oks++
		}
	}
	onCount := func(_ topo.NodeID, n int) { removed += n }
	onAll := func(f int) { failed += f }
	round := func() {
		ch.InstallBatched(mods, onAll)
		ch.Barrier(sw, onOK)
		ch.DeleteByCookie(sw, 7, onCount)
		eng.Run()
	}
	for i := 0; i < 3; i++ {
		round()
	}
	oks, removed, failed = 0, 0, 0
	allocs := testing.AllocsPerRun(200, round)
	if oks != 201 || removed != 2*201 || failed != 0 {
		t.Fatalf("rounds completed wrongly: %d barriers ok, %d rules removed, %d mods failed", oks, removed, failed)
	}
	if allocs != 0 {
		t.Fatalf("four southbound messages allocated %v times per round, want 0", allocs)
	}
}

// TestResolvedRecordReusedBeforeItsTimerPops: an acknowledged message's
// record goes back to the free list at once, its ack timer stopped, and the
// next message takes it before the first one's timeout would have been due;
// that instant passes in the middle of the second message's round trip with
// no timeout and no retransmit, and the second message completes on its own
// timer's arming.
func TestResolvedRecordReusedBeforeItsTimerPops(t *testing.T) {
	eng, _, ch, sw := oneSwitch(t)
	acked := 0
	onOK := func(ok bool) {
		if ok {
			acked++
		}
	}
	ch.Barrier(sw, onOK)
	eng.RunUntil(sim.Time(2 * Latency))
	if acked != 1 || len(ch.msgFree) != 1 {
		t.Fatalf("after one round trip: %d acked, %d records free (want 1, 1)", acked, len(ch.msgFree))
	}
	first := ch.msgFree[0]
	if first.sw != nil || first.attempt != 0 || first.timer.Armed() {
		t.Fatalf("released record keeps state from its message: %+v", first)
	}
	eng.RunUntil(sim.Time(2*Latency + Latency/2))
	ch.Barrier(sw, onOK)
	if len(ch.msgFree) != 0 {
		t.Fatal("the second message did not take the freed record")
	}
	eng.RunUntil(sim.Time(AckTimeout)) // the first arming would be due
	if ch.Timeouts != 0 || ch.Retransmits != 0 || acked != 1 || ch.InFlight(sw.ID) != 1 {
		t.Fatalf("stale arming acted: timeouts %d retransmits %d acked %d inflight %d",
			ch.Timeouts, ch.Retransmits, acked, ch.InFlight(sw.ID))
	}
	eng.Run()
	if acked != 2 || ch.Acked != 2 || ch.Timeouts != 0 || ch.Retransmits != 0 {
		t.Fatalf("second message: acked %d/%d timeouts %d retransmits %d", acked, ch.Acked, ch.Timeouts, ch.Retransmits)
	}
	if len(ch.msgFree) != 1 || ch.msgFree[0] != first {
		t.Fatalf("two messages in sequence used %d records, want the one", len(ch.msgFree))
	}
}

// TestResolvedProbeReusedBeforeItsTimerPops: the same for the echo and
// heartbeat record. An answered echo frees its record, a heartbeat sent
// before the echo's ack timer is due takes it, and the echo's stopped arming
// reports nothing to either caller.
func TestResolvedProbeReusedBeforeItsTimerPops(t *testing.T) {
	eng, net, ch, sw := oneSwitch(t)
	ch.CtrlHost = net.RegisterCtrlHost()
	peer := net.RegisterCtrlHost()
	var log []string
	report := func(kind string) func(sim.Time, bool) {
		return func(sent sim.Time, ok bool) {
			log = append(log, fmt.Sprintf("%s %v %v at %v", kind, sent, ok, eng.Now()))
		}
	}
	ch.Echo(sw, report("echo"))
	eng.RunUntil(sim.Time(2 * Latency))
	if len(ch.probeFree) != 1 {
		t.Fatalf("answered echo left %d records free, want 1", len(ch.probeFree))
	}
	first := ch.probeFree[0]
	eng.RunUntil(sim.Time(2*Latency + Latency/2))
	heard := 0
	ch.Heartbeat(peer, func() { heard++ }, report("beat"))
	if len(ch.probeFree) != 0 {
		t.Fatal("the heartbeat did not take the freed record")
	}
	eng.Run()
	want := "[echo 0s true at 1ms beat 1.25ms true at 2.25ms]"
	if fmt.Sprint(log) != want || heard != 1 {
		t.Fatalf("reports %v (heard %d), want %s", log, heard, want)
	}
	if len(ch.probeFree) != 1 || ch.probeFree[0] != first {
		t.Fatalf("two probes in sequence used %d records, want the one", len(ch.probeFree))
	}
}

// TestChannelDownMidFlightFiresNoCallback: once the controller process is
// dead, nothing it had in flight completes — not the message on the wire,
// not the barrier parked behind it — and the switch's window stays open,
// exactly as a killed process leaves its transactions dangling.
func TestChannelDownMidFlightFiresNoCallback(t *testing.T) {
	eng, _, ch, sw := oneSwitch(t)
	fired := 0
	ch.Install([]Mod{{Switch: sw, Entry: mflowEntry(1, 7)}}, func(int) { fired++ })
	ch.DeleteByCookie(sw, 9, func(topo.NodeID, int) { fired++ })
	ch.Barrier(sw, func(bool) { fired++ })
	ch.InstallBatched([]Mod{{Switch: sw, Entry: mflowEntry(2, 7)}}, func(int) { fired++ })
	eng.RunUntil(sim.Time(Latency)) // requests delivered, acknowledgements on the wire
	ch.Down = true
	eng.Run()
	if fired != 0 {
		t.Fatalf("%d completion callbacks fired on a dead channel", fired)
	}
	if sw.Table.Len() != 2 {
		t.Fatalf("switch holds %d rules, want the 2 that arrived before the crash", sw.Table.Len())
	}
	if ch.InFlight(sw.ID) != 3 || ch.Acked != 0 || ch.GiveUps != 0 || ch.Timeouts != 0 {
		t.Fatalf("dead channel resolved something: inflight %d acked %d giveups %d timeouts %d",
			ch.InFlight(sw.ID), ch.Acked, ch.GiveUps, ch.Timeouts)
	}
}

// TestGiveUpReleasesBarrierWaitersOnce: barriers parked behind a message to
// a dead switch are sent exactly once each when that message is abandoned,
// and complete exactly once — here by giving up in turn.
func TestGiveUpReleasesBarrierWaitersOnce(t *testing.T) {
	eng, net, ch, sw := oneSwitch(t)
	ch.MaxRetries = 1
	net.SetSwitchDownQuiet(sw.ID, true)
	var log []string
	ch.Install([]Mod{{Switch: sw, Entry: mflowEntry(1, 7)}}, func(failed int) { log = append(log, fmt.Sprintf("install failed=%d", failed)) })
	for _, tag := range []string{"a", "b"} {
		ch.Barrier(sw, func(ok bool) { log = append(log, fmt.Sprintf("barrier %s %v", tag, ok)) })
	}
	if ch.InFlight(sw.ID) != 1 {
		t.Fatalf("parked barriers count as in flight: %d", ch.InFlight(sw.ID))
	}
	eng.Run()
	want := "[install failed=1 barrier a false barrier b false]"
	if fmt.Sprint(log) != want {
		t.Fatalf("completions %v, want %s", log, want)
	}
	// 3 messages x 2 attempts; the barriers' first attempts leave only once
	// the install's second timer has expired.
	if ch.GiveUps != 3 || ch.Failed(sw.ID) != 3 || ch.Timeouts != 6 || ch.Retransmits != 3 || ch.InFlight(sw.ID) != 0 {
		t.Fatalf("giveups %d failed %d timeouts %d retransmits %d inflight %d",
			ch.GiveUps, ch.Failed(sw.ID), ch.Timeouts, ch.Retransmits, ch.InFlight(sw.ID))
	}
	if len(ch.sw[sw.ID].waiters) != 0 || len(ch.msgFree) != 3 {
		t.Fatalf("%d barriers still parked, %d records free (want 0, 3)", len(ch.sw[sw.ID].waiters), len(ch.msgFree))
	}
}
