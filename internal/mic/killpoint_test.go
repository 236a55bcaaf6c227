package mic

import (
	"testing"
	"time"

	"mic/internal/ctrlplane"
	"mic/internal/netsim"
)

// TestKillPointsOverOneDialAndClose crashes the controller right after
// each engine event of one dial, from its request to its answer, and of one
// close, from the close to the last delete answer; it then revives it
// and runs to quiescence. The dead life must not answer, except with a dial
// answer already on the wire when it died. It must send nothing more, on its
// own southbound channel or on the revived life's, and it must put no store
// on the free list. Promoted and converged the way a takeover would, the
// revived life leaves tables and books that agree, and it serves a new dial.
func TestKillPointsOverOneDialAndClose(t *testing.T) {
	cfg := Config{MNs: 3, MulticastFanout: 2}
	type phase struct {
		name string
		// begin starts the phase on a fresh bed; done is its answer.
		begin func(t *testing.T, f *fixture, done func())
		// wire: an answer scheduled before the crash still arrives. A dial's
		// answer is a message to the client; a close's is the controller's
		// own reading of the last delete acknowledgement, which a dead
		// process never hears.
		wire bool
	}
	dial := func(t *testing.T, f *fixture, done func(*ChannelInfo)) {
		f.mc.EstablishChannel(f.hostIP(0), f.hostIP(15).String(), ChannelOptions{}, func(info *ChannelInfo, err error) {
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			done(info)
		})
	}
	phases := []phase{
		{name: "dial", wire: true, begin: func(t *testing.T, f *fixture, done func()) {
			dial(t, f, func(*ChannelInfo) { done() })
		}},
		{name: "close", begin: func(t *testing.T, f *fixture, done func()) {
			var id uint64
			dial(t, f, func(info *ChannelInfo) { id = info.ID })
			f.eng.Run()
			if err := f.mc.CloseChannel(id, done); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, ph := range phases {
		t.Run(ph.name, func(t *testing.T) {
			// The undisturbed phase, event by event: lastSeq[k] is the engine's
			// last scheduled sequence number after k events, answerSeq the
			// event that answers, and events counts those up to it.
			ref := newFixture(t, cfg)
			answerSeq, events := uint64(0), 0
			ph.begin(t, ref, func() { answerSeq = ref.eng.FiringSeq() })
			lastSeq := []uint64{ref.eng.LastSeq()}
			for answerSeq == 0 {
				if !ref.eng.Step() {
					t.Fatal("the phase ended unanswered")
				}
				events++
				lastSeq = append(lastSeq, ref.eng.LastSeq())
			}
			if events < 8 {
				t.Fatalf("the phase took %d events; the sweep would prove little", events)
			}
			onWire := 0
			for k := 0; k < events; k++ {
				f := newFixture(t, cfg)
				answers := 0
				ph.begin(t, f, func() { answers++ })
				for i := 0; i < k; i++ {
					f.eng.Step()
				}
				mc, dead := f.mc, f.mc.Ch
				sent := southbound(dead)
				mc.crash()
				mc.revive()
				f.eng.Run()
				want := 0
				if ph.wire && lastSeq[k] >= answerSeq {
					want = 1
				}
				onWire += want
				if answers != want {
					t.Fatalf("killed after event %d of %d: %d answers, want %d", k, events, answers, want)
				}
				if got := southbound(dead); got != sent {
					t.Fatalf("killed after event %d: the dead life's channel counted %+v at its crash, %+v after", k, sent, got)
				}
				if got := southbound(f.mc.Ch); got != (southboundCount{}) {
					t.Fatalf("killed after event %d: the revived standby sent %+v", k, got)
				}
				if n := len(f.mc.storeFree); n != 0 || f.mc.LiveChannels() != 0 {
					t.Fatalf("killed after event %d: %d stores recycled, %d channels live", k, n, f.mc.LiveChannels())
				}
				// Promote the revived life with a new generation and converge
				// every switch, as a takeover does; its journal is empty.
				mc.active, mc.generation = true, mc.generation+1
				for _, sw := range f.net.Switches() {
					mc.converge(sw.ID, false, nil)
				}
				f.eng.Run()
				checkTables(t, f.mc)
				checkBooks(t, f.mc)
				served := 0
				dial(t, f, func(*ChannelInfo) { served++ })
				f.eng.Run()
				if served != 1 {
					t.Fatalf("killed after event %d: the revived life did not serve a dial", k)
				}
				checkTables(t, f.mc)
				checkBooks(t, f.mc)
			}
			t.Logf("%s: %d kill points, %d with the answer on the wire", ph.name, events, onWire)
		})
	}
}

// TestClusterKillPointsOverOneDial kills the active member of a two-member
// Cluster right after each engine event of one dial, from its request
// through the event that answers it, and lets the standby take over. A dial
// the dead life journaled but never answered is sent again by the takeover,
// and the successor answers it with the channel its journal holds.
func TestClusterKillPointsOverOneDial(t *testing.T) {
	points, orphans := clusterDialPoints(t, false)
	t.Logf("%d kill points, %d leave 2 live channels", points, orphans)
	if orphans != 0 {
		t.Errorf("%d of %d kill points leave an orphan channel beside the answered one", orphans, points)
	}
}

// TestClusterStepDownPointsOverOneDial is the same sweep with the active cut
// off instead of killed: every management path to and from it is cut, so it
// steps down at its lease edge with the dial's request, planning or install
// in flight, or its answer sent (TestQueuedDialAcrossStepDown covers a dial
// in the admission queue); the standby takes over, and the cut heals 100 ms
// later, when the deposed member rejoins as a standby.
func TestClusterStepDownPointsOverOneDial(t *testing.T) {
	points, orphans := clusterDialPoints(t, true)
	t.Logf("%d step-down points, %d leave 2 live channels", points, orphans)
	if orphans != 0 {
		t.Errorf("%d of %d step-down points leave an orphan channel beside the answered one", orphans, points)
	}
}

// clusterDialPoints ends the active member's life right after each engine
// event of one dial, by a kill or, with stepDown, a management cut, and lets
// the standby take over. At every point the client gets exactly one answer,
// and no error, naming a channel whose journaled rules are all installed;
// the successor holds exactly one live channel, the answered one; its books
// equal its journal twin's, and its tables audit clean. It returns the
// number of points and how many left an orphan beside the answered channel,
// the one failure it counts rather than stops at.
func clusterDialPoints(t *testing.T, stepDown bool) (points, orphans int) {
	cfg := Config{MNs: 3, MFlows: 2}
	dial := func(f *clusterFixture, answered func(*ChannelInfo, error)) {
		f.cl.EstablishChannel(f.stacks[0].Host.IP, f.stacks[15].Host.IP.String(), ChannelOptions{}, answered)
	}
	// The undisturbed dial: events counts the engine events up to and
	// including the one that answers.
	ref := newClusterFixture(t, cfg, ClusterConfig{})
	done, events := false, 0
	dial(ref, func(*ChannelInfo, error) { done = true })
	for !done {
		if !ref.eng.Step() {
			t.Fatal("the dial ended unanswered")
		}
		events++
	}
	for k := 0; k <= events; k++ {
		f := newClusterFixture(t, cfg, ClusterConfig{})
		var answers []*ChannelInfo
		dial(f, func(info *ChannelInfo, err error) {
			if err != nil {
				t.Fatalf("ended after event %d: dial: %v", k, err)
			}
			if sw := uninstalled(f, info.ID); sw != "" {
				t.Fatalf("ended after event %d: answered with channel %d before %s held its rules", k, info.ID, sw)
			}
			answers = append(answers, info)
		})
		for i := 0; i < k; i++ {
			f.eng.Step()
		}
		if stepDown {
			active := []netsim.MgmtEnd{netsim.MgmtCtrl(0)}
			rest := []netsim.MgmtEnd{netsim.MgmtCtrl(1)}
			for _, sw := range f.net.Switches() {
				rest = append(rest, netsim.MgmtSwitch(sw.ID))
			}
			f.net.CutSets(active, rest)
			f.eng.After(100*time.Millisecond, func() { f.net.HealSets(active, rest) })
		} else {
			f.net.SetCtrlHostDown(0, true)
		}
		f.settle(400 * time.Millisecond)
		if f.cl.Takeovers() != 1 || len(answers) != 1 {
			t.Fatalf("ended after event %d of %d: %d takeovers, %d answers; want 1 and 1", k, events, f.cl.Takeovers(), len(answers))
		}
		if stepDown && f.cl.stepdowns != 1 {
			t.Fatalf("ended after event %d: %d step-downs, want 1", k, f.cl.stepdowns)
		}
		checkClusterReplay(t, f.cl)
		if st, miss := f.cl.Audit(); st != 0 || miss != 0 {
			t.Fatalf("ended after event %d: audit stale=%d missing=%d, want 0/0", k, st, miss)
		}
		successor := f.cl.activeMember().mc
		switch live := successor.LiveChannels(); {
		case successor.channels[answers[0].ID] == nil || live > 2:
			t.Fatalf("ended after event %d of %d: the successor holds channels %v, want only the answered %d",
				k, events, sortedChanIDs(successor.channels), answers[0].ID)
		case live == 2:
			orphans++
		}
	}
	return events + 1, orphans
}

// uninstalled names a switch that lacks an entry the journal's latest
// record of channel id intends there, or returns "".
func uninstalled(f *clusterFixture, id uint64) string {
	var rules []ruleRec
	for _, r := range f.cl.Journal.Records() {
		if r.Channel == id && (r.Kind == RecOpen || r.Kind == RecUpdate) {
			rules = r.Rules
		}
	}
	for _, rr := range rules {
		if rr.entry == nil {
			continue
		}
		sw, held := f.net.Switch(rr.node), false
		for _, e := range sw.Table.Conflicts(rr.entry.Match, rr.entry.Priority) {
			held = held || cookieChannel(e.Cookie) == id
		}
		if !held {
			return sw.Name
		}
	}
	return ""
}

// southboundCount is what a southbound channel has sent, by kind.
type southboundCount struct {
	flowMods, groupMods, deletes, barriers, batches, batchedMods, dumps, hellos, retransmits uint64
}

func southbound(ch *ctrlplane.Channel) southboundCount {
	return southboundCount{ch.FlowMods, ch.GroupMods, ch.Deletes, ch.Barriers, ch.Batches, ch.BatchedMods, ch.Dumps, ch.Hellos, ch.Retransmits}
}
