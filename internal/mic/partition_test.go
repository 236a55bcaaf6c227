package mic

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"mic/internal/netsim"
	"mic/internal/sim"
)

// partitionTransfer starts a from->to bulk transfer on the cluster fixture
// and returns a getter for the received bytes. The transfer's channel is
// what the zombie and the legitimate active later race to repair.
func partitionTransfer(t *testing.T, f *clusterFixture, data []byte) (*Client, func() []byte) {
	t.Helper()
	var got []byte
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { got = append(got, b...) })
	})
	client := NewClient(f.stacks[0], f.cl)
	client.Dial(f.stacks[15].Host.IP.String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Send(data)
	})
	return client, func() []byte { return got }
}

// TestLeaseStepDownPrecedesTakeover pins the protocol's ordering invariant
// on a symmetric management split: the active's lease expires and it steps
// down strictly before the standby's takeover promotes a new master, so at
// no instant do two members both believe they hold mastership.
func TestLeaseStepDownPrecedesTakeover(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3, MFlows: 2, AutoRepair: true, Seed: 5}, ClusterConfig{})
	data := pattern(1 << 20)
	_, got := partitionTransfer(t, f, data)

	var stepDownAt, takeoverAt sim.Time
	f.cl.OnStepDown = func(m int, at sim.Time) {
		if m == 0 && stepDownAt == 0 {
			stepDownAt = at
		}
	}
	f.cl.OnTakeover = func(ts TakeoverStats) {
		if takeoverAt == 0 {
			takeoverAt = ts.At
		}
	}
	a, b := []netsim.MgmtEnd{netsim.MgmtCtrl(0)}, []netsim.MgmtEnd{netsim.MgmtCtrl(1)}
	f.eng.After(30*time.Millisecond, func() { f.net.CutSets(a, b) })
	f.eng.After(70*time.Millisecond, func() { f.net.HealSets(a, b) })
	f.settle(2 * time.Second)

	if !bytes.Equal(got(), data) {
		t.Fatalf("transfer broken: %d/%d bytes", len(got()), len(data))
	}
	if stepDownAt == 0 {
		t.Fatal("the split never expired the active's lease")
	}
	if takeoverAt == 0 {
		t.Fatal("the standby never took over")
	}
	if stepDownAt >= takeoverAt {
		t.Fatalf("step-down at %v, takeover at %v: the old master was still serving when the new one promoted",
			time.Duration(stepDownAt), time.Duration(takeoverAt))
	}
	if f.cl.Fence() == 0 {
		t.Fatal("takeover did not bump the fencing epoch")
	}
	if stale, missing := f.cl.Audit(); stale != 0 || missing != 0 {
		t.Fatalf("audit after split+heal: stale=%d missing=%d", stale, missing)
	}
	checkClusterReplay(t, f.cl)
}

// TestAsymmetricPartitionZombieFenced is the acceptance bar for fenced
// mastership: the active loses only its outbound management paths — to its
// peer and to a strict subset of the switches — so from its own seat nothing
// looks wrong. A fabric cut mid-partition then invites it to repair. The
// lease must have quiesced it before the standby's takeover window opened:
// after everything heals, zero stale rules and zero journal divergence.
func TestAsymmetricPartitionZombieFenced(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3, MFlows: 2, AutoRepair: true, Seed: 5}, ClusterConfig{})
	data := pattern(2 << 20)
	client, got := partitionTransfer(t, f, data)

	target := f.stacks[15].Host.IP.String()
	var cuts []netsim.MgmtEnd
	f.eng.After(30*time.Millisecond, func() {
		// Outbound-only cuts: ctrl0 -> ctrl1 and ctrl0 -> the first four
		// switches. Everything inbound to ctrl0 still works.
		cuts = append(cuts, netsim.MgmtCtrl(1))
		for _, sw := range f.net.Switches()[:4] {
			cuts = append(cuts, netsim.MgmtSwitch(sw.ID))
		}
		for _, c := range cuts {
			f.net.SetMgmtCut(netsim.MgmtCtrl(0), c, true)
		}
	})
	// Mid-partition fabric cut on the transfer's path: whoever believes it
	// is master will try to repair.
	f.eng.After(45*time.Millisecond, func() {
		info, ok := client.Channel(target)
		if !ok {
			t.Error("no channel to cut")
			return
		}
		cutFirstInterSwitchLink(t, &fixture{eng: f.eng, net: f.net, graph: f.graph}, info.Flows[0].Path)
	})
	f.eng.After(80*time.Millisecond, func() {
		for _, c := range cuts {
			f.net.SetMgmtCut(netsim.MgmtCtrl(0), c, false)
		}
	})
	f.settle(3 * time.Second)

	if !bytes.Equal(got(), data) {
		t.Fatalf("transfer broken: %d/%d bytes", len(got()), len(data))
	}
	if n := f.cl.Telemetry().Get("stepdowns"); n == 0 {
		t.Fatal("the cut-off active never stepped down")
	}
	if f.cl.Takeovers() == 0 {
		t.Fatal("no takeover happened")
	}
	if f.cl.Fence() == 0 {
		t.Fatal("promotion did not bump the fencing epoch")
	}
	if stale, missing := f.cl.Audit(); stale != 0 || missing != 0 {
		t.Fatalf("audit after heal: stale=%d missing=%d, want 0/0", stale, missing)
	}
	checkClusterReplay(t, f.cl)
	if n := f.cl.Journal.Divergent; n != 0 {
		t.Fatalf("journal divergence = %d, want 0: a deposed master wrote to the log", n)
	}
}

// TestAsymmetricPartitionAblationZombieWrites is the control group: the same
// asymmetric partition with fencing disabled. Mastership falls back to
// reachability voting, so the cut-off active never steps down, the standby
// promotes anyway (split-brain), and the repair race leaves the zombie's
// writes behind — visible as stale rules on the switches and stale-fence
// appends in the journal. If this test ever finds the damage gone, the
// fencing tests above are vacuous.
func TestAsymmetricPartitionAblationZombieWrites(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3, MFlows: 2, AutoRepair: true, Seed: 5},
		ClusterConfig{DisableFencing: true})
	data := pattern(2 << 20)
	client, got := partitionTransfer(t, f, data)

	target := f.stacks[15].Host.IP.String()
	var cuts []netsim.MgmtEnd
	f.eng.After(30*time.Millisecond, func() {
		cuts = append(cuts, netsim.MgmtCtrl(1))
		for _, sw := range f.net.Switches()[:4] {
			cuts = append(cuts, netsim.MgmtSwitch(sw.ID))
		}
		for _, c := range cuts {
			f.net.SetMgmtCut(netsim.MgmtCtrl(0), c, true)
		}
	})
	f.eng.After(45*time.Millisecond, func() {
		info, ok := client.Channel(target)
		if !ok {
			t.Error("no channel to cut")
			return
		}
		cutFirstInterSwitchLink(t, &fixture{eng: f.eng, net: f.net, graph: f.graph}, info.Flows[0].Path)
	})
	f.eng.After(80*time.Millisecond, func() {
		for _, c := range cuts {
			f.net.SetMgmtCut(netsim.MgmtCtrl(0), c, false)
		}
	})
	f.settle(3 * time.Second)

	if !bytes.Equal(got(), data) {
		t.Fatalf("transfer broken: %d/%d bytes", len(got()), len(data))
	}
	if n := f.cl.Telemetry().Get("stepdowns"); n != 0 {
		t.Fatalf("stepdowns = %d with fencing disabled, want 0", n)
	}
	if f.cl.Takeovers() == 0 {
		t.Fatal("the standby never promoted; no split-brain to measure")
	}
	if f.cl.Journal.Divergent == 0 {
		t.Fatal("no zombie writes reached the journal; the ablation shows nothing")
	}
	if stale, _ := f.cl.Audit(); stale == 0 {
		t.Fatal("no stale rules survived the heal; the ablation shows nothing")
	}
}

// TestQueuedDialAcrossStepDown cuts the active off from every peer and
// switch with one dial in install and another waiting in its admission
// queue. The step-down drops the queued dial unanswered, as a crash would;
// the successor is sent both, answers the first with the channel the
// deposed life journaled and plans the second, so each dial is answered
// once and the successor holds exactly the two answered channels.
func TestQueuedDialAcrossStepDown(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3, Admission: AdmissionConfig{Enabled: true, Rate: 100, Burst: 1}}, ClusterConfig{})
	answers := make([]*ChannelInfo, 2)
	for i, to := range []int{15, 14} {
		f.cl.EstablishChannel(f.stacks[i].Host.IP, f.stacks[to].Host.IP.String(), ChannelOptions{}, func(info *ChannelInfo, err error) {
			if err != nil || answers[i] != nil {
				t.Fatalf("dial %d: %v, or answered twice", i, err)
			}
			answers[i] = info
		})
	}
	f.eng.RunFor(time.Millisecond)
	if deposed := f.cl.members[0].mc; len(deposed.channels) != 1 || len(deposed.admitQueue) != 1 {
		t.Fatalf("the active holds %d channels and queues %d dials, want 1 and 1", len(deposed.channels), len(deposed.admitQueue))
	}
	active, rest := []netsim.MgmtEnd{netsim.MgmtCtrl(0)}, []netsim.MgmtEnd{netsim.MgmtCtrl(1)}
	for _, sw := range f.net.Switches() {
		rest = append(rest, netsim.MgmtSwitch(sw.ID))
	}
	f.net.CutSets(active, rest)
	f.eng.After(100*time.Millisecond, func() { f.net.HealSets(active, rest) })
	f.settle(400 * time.Millisecond)
	if f.cl.stepdowns != 1 || f.cl.Takeovers() != 1 || answers[0] == nil || answers[1] == nil {
		t.Fatalf("%d step-downs, %d takeovers, answers %v; want 1, 1 and both dials answered", f.cl.stepdowns, f.cl.Takeovers(), answers)
	}
	want := []uint64{answers[0].ID, answers[1].ID}
	slices.Sort(want)
	if got := sortedChanIDs(f.cl.ActiveMC().channels); !slices.Equal(got, want) {
		t.Fatalf("the successor holds channels %v, want the answered %v", got, want)
	}
	checkClusterReplay(t, f.cl)
	if stale, missing := f.cl.Audit(); stale != 0 || missing != 0 {
		t.Fatalf("audit stale=%d missing=%d, want 0/0", stale, missing)
	}
}

// TestDemotedMemberRejoinsAndRetakes: after a split demotes the founding
// active, it must rejoin as a lively standby once it hears the new master's
// beats — and win the next takeover if that master later dies, with the
// epoch advancing monotonically.
func TestDemotedMemberRejoinsAndRetakes(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3, AutoRepair: true, Seed: 5}, ClusterConfig{})
	var echoed []byte
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { s.Send(b) })
	})
	client := NewClient(f.stacks[0], f.cl)
	var stream *Stream
	client.Dial(f.stacks[15].Host.IP.String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		stream = s
		s.OnData(func(b []byte) { echoed = append(echoed, b...) })
		s.Send([]byte("one."))
	})
	a, b := []netsim.MgmtEnd{netsim.MgmtCtrl(0)}, []netsim.MgmtEnd{netsim.MgmtCtrl(1)}
	f.eng.After(20*time.Millisecond, func() { f.net.CutSets(a, b) })
	f.eng.After(60*time.Millisecond, func() { f.net.HealSets(a, b) })
	// Give the demoted ex-active time to hear the new master's beats, then
	// kill the new master outright.
	f.eng.After(120*time.Millisecond, func() { f.net.SetCtrlHostDown(1, true) })
	f.eng.After(200*time.Millisecond, func() {
		if f.cl.ActiveIndex() != 0 {
			t.Errorf("active = %d after the new master died, want 0 (the rejoined ex-active)", f.cl.ActiveIndex())
		}
		stream.Send([]byte("two."))
	})
	f.settle(2 * time.Second)

	if string(echoed) != "one.two." {
		t.Fatalf("echo across demotion+retake = %q, want \"one.two.\"", echoed)
	}
	if n := f.cl.Takeovers(); n != 2 {
		t.Fatalf("takeovers = %d, want 2", n)
	}
	if f.cl.Fence() != 2 {
		t.Fatalf("fence = %d after two takeovers, want 2", f.cl.Fence())
	}
	if stale, missing := f.cl.Audit(); stale != 0 || missing != 0 {
		t.Fatalf("audit: stale=%d missing=%d", stale, missing)
	}
	checkClusterReplay(t, f.cl)
}

// TestJournalFencingDiscardsZombieWrites pins the journal's append-time
// fence check in isolation: with Fencing on, a record carrying a fence below
// the high-water mark is counted, marked, and excluded from replay; with
// Fencing off it is counted but kept — the measurement the s11 ablation
// depends on.
func TestJournalFencingDiscardsZombieWrites(t *testing.T) {
	j := NewJournal()
	j.Fencing = true
	j.Append(Record{Kind: RecOpen, Channel: 1, Fence: 0})
	j.Append(Record{Kind: RecOpen, Channel: 2, Fence: 2}) // new master's first write
	j.Append(Record{Kind: RecOpen, Channel: 3, Fence: 1}) // zombie raced in
	if j.Divergent != 1 {
		t.Fatalf("Divergent = %d, want 1", j.Divergent)
	}
	recs := j.Records()
	if len(recs) != 2 {
		t.Fatalf("replayable records = %d, want 2 (zombie write invisible)", len(recs))
	}
	for _, r := range recs {
		if r.Channel == 3 {
			t.Fatal("zombie record visible to replay")
		}
	}

	loose := NewJournal()
	loose.Append(Record{Kind: RecOpen, Channel: 1, Fence: 2})
	loose.Append(Record{Kind: RecOpen, Channel: 2, Fence: 1})
	if loose.Divergent != 1 {
		t.Fatalf("unfenced journal Divergent = %d, want 1 (detection is always on)", loose.Divergent)
	}
	if len(loose.Records()) != 2 {
		t.Fatalf("unfenced journal dropped a record; enforcement should be off")
	}
}
