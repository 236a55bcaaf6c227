package mic

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"mic/internal/chunk"
	"mic/internal/topo"
)

// FuzzStreamFeed is a differential fuzzer for the receive path. The input
// is a script: each 4-byte step picks a sequence number out of a small
// space (so duplicates, gaps and late fills are common), a payload length,
// the conn the frame arrives on and how the conn's bytes are cut. Every
// script runs three times:
//
//   - fragments: each frame is cut into two calls and the second is held
//     back until the conn's next frame, so frames of different conns
//     interleave mid-frame;
//   - segments: a conn's bytes accumulate (odd cut byte) or go out in one
//     call that keeps back only the tail of the newest frame, so a call
//     carries the rest of a cut frame, whole frames, then the head of the
//     next, with cuts inside the header as well;
//   - spans: cut as segments are, but fed the way a conn feeds them:
//     consecutive calls of one conn lie one after another in one chunk, so
//     a cut frame is completed in place. The step's first byte (beyond the
//     sequence number) makes a call start a new chunk instead, breaking
//     adjacency, or arrive as bytes in no chunk, which the stream copies,
//     and may chop the call into 5- or 300-byte calls, so a frame arrives
//     in many pieces and headers are cut. The conns' last bytes are never
//     fed, so the stream is closed holding cut frames and waiting slices.
//
// In the first two modes every fed buffer is a span of a fresh chunk of a
// debug pool, recycled — poisoned — once feed returns. In the third, the
// feeder drops its reference on the span once feed returns and its chunk
// is carved again from the front as soon as no one else holds it, and a
// chunkless call's buffer is poisoned once feed returns. So a held slice or
// a cut frame kept without a reference of its own shows up as corrupt
// bytes. The stream must deliver exactly the bytes, count exactly the
// duplicates and hold exactly the slices of a naive map-based reassembler
// that sees whole frames in completion order, and once closed it must have
// given every chunk back (Gets == Puts).
func FuzzStreamFeed(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 1, 5, 1, 3})
	f.Add([]byte{1, 5, 0, 2, 0, 6, 1, 9, 0, 6, 0, 0, 2, 0, 1, 1})
	f.Add([]byte{3, 200, 2, 7, 2, 9, 1, 0, 1, 1, 0, 255, 0, 40, 2, 3})
	f.Add([]byte{2, 30, 0, 1, 1, 30, 0, 5, 0, 30, 0, 14, 3, 30, 1, 2, 4, 9, 0, 68})
	// Spans: among adjacent calls, ones that start a new chunk (first byte
	// 24–47) and ones in no chunk (48–71).
	f.Add([]byte{1, 40, 0, 60, 24, 40, 0, 5, 2, 90, 0, 200, 74, 12, 1, 0, 0, 50, 0, 96, 51, 50, 0, 7, 2, 20, 0, 0})
	f.Add([]byte{5, 100, 1, 150, 28, 3, 1, 16, 3, 100, 0, 80, 52, 100, 1, 190, 2, 0, 0, 2, 1, 77, 1, 230, 24, 7, 0, 4, 4, 30, 1, 1})
	// Spans chopped into 5-byte (first byte 96–191) and 300-byte (192–255)
	// calls, adjacent, in new chunks and in no chunk.
	f.Add([]byte{121, 90, 0, 10, 98, 60, 1, 0, 146, 80, 0, 4, 195, 250, 1, 6, 216, 200, 0, 100, 96, 30, 2, 0, 219, 120, 2, 51})
	f.Fuzz(func(t *testing.T, script []byte) {
		for mode := range feedModes {
			feedScript(t, script, mode)
		}
	})
}

// feedModes names FuzzStreamFeed's three ways of cutting and feeding.
var feedModes = [...]string{"fragments", "segments", "spans"}

// bareStream is a stream with no conns, for feeding by hand; its copies are
// carved from chunks.
func bareStream(conns int, chunks *chunk.Pool) *Stream {
	s := &Stream{
		cut:      make([]cutFrame, conns),
		slicesIn: make([]int64, conns),
	}
	s.recv.Pool = chunks
	return s
}

func feedScript(t *testing.T, script []byte, mode int) {
	const conns = 3
	chunks := chunk.NewPool()
	chunks.SetDebug(true)
	s := bareStream(conns, chunks)
	var got []byte
	s.OnData(func(b []byte) { got = append(got, b...) })
	var (
		fresh chunk.Carver        // fragments, segments: a new chunk per call
		wire  [conns]chunk.Carver // spans: each conn's run of adjacent calls
		how   byte                // spans: how the next call arrives
		plain [conns][]byte       // spans: chunkless calls' buffers
	)
	fresh.Pool = chunks
	for c := range wire {
		wire[c].Pool = chunks
	}
	feed := func(c int, b []byte) {
		if mode < 2 {
			sp := fresh.Carve(len(b), len(b))
			copy(sp.Bytes(), b)
			s.feed(c, sp)
			sp.C.Release()
			fresh.Drop()
			return
		}
		chop := len(b)
		switch how >> 2 {
		case 1:
			chop = 5
		case 2:
			chop = 300
		}
		for ; len(b) > 0; b = b[min(chop, len(b)):] {
			call := b[:min(chop, len(b))]
			switch how % 4 {
			case 1:
				wire[c].Drop() // a new chunk: this call does not continue the last
			case 2:
				plain[c] = append(plain[c][:0], call...)
				s.feedBytes(c, plain[c])
				for i := range plain[c] {
					plain[c][i] = 0xA5
				}
				continue
			}
			sp := wire[c].Carve(len(call), 4<<10)
			copy(sp.Bytes(), call)
			s.feed(c, sp)
			sp.C.Release()
		}
	}

	// The reference: whole frames, in the order they complete.
	var want []byte
	model := map[uint32][]byte{}
	var next uint32
	var dups int64
	complete := func(seq uint32, payload []byte) {
		if _, held := model[seq]; held || seq < next {
			dups++
			return
		}
		model[seq] = payload
		for p, ok := model[next]; ok; p, ok = model[next] {
			want = append(want, p...)
			delete(model, next)
			next++
		}
	}

	type frame struct {
		end     int // the conn's byte offset just past the frame
		seq     uint32
		payload []byte
	}
	var (
		pending [conns][]byte  // bytes a conn has yet to feed
		fed     [conns]int     // bytes a conn has fed
		open    [conns][]frame // frames not wholly fed, in order
		scratch []byte
	)
	flush := func(c, k int) { // feed the first k pending bytes of conn c
		scratch = append(scratch[:0], pending[c][:k]...)
		pending[c] = pending[c][k:]
		fed[c] += k
		feed(c, scratch)
		for len(open[c]) > 0 && open[c][0].end <= fed[c] {
			complete(open[c][0].seq, open[c][0].payload)
			open[c] = open[c][1:]
		}
	}
	for step := 0; len(script) >= 4; step++ {
		seq, n, c, cut := uint32(script[0]%24), int(script[1]), int(script[2])%conns, int(script[3])
		how = script[0] / 24
		script = script[4:]
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(step*31 + i)
		}
		frameBytes := make([]byte, sliceHeaderLen+n+cut%3) // sometimes padded
		binary.BigEndian.PutUint32(frameBytes[0:4], seq)
		binary.BigEndian.PutUint16(frameBytes[4:6], uint16(n))
		binary.BigEndian.PutUint16(frameBytes[6:8], uint16(len(frameBytes)-sliceHeaderLen))
		copy(frameBytes[sliceHeaderLen:], payload)
		if mode > 0 {
			pending[c] = append(pending[c], frameBytes...)
			open[c] = append(open[c], frame{end: fed[c] + len(pending[c]), seq: seq, payload: payload})
			if cut%2 == 0 {
				flush(c, len(pending[c])-(cut/2)%(len(frameBytes)+1))
			}
			continue
		}
		flush(c, len(pending[c])) // the tail of the conn's previous frame
		cut %= len(frameBytes) + 1
		pending[c] = frameBytes[cut:]
		open[c] = append(open[c], frame{end: fed[c] + len(frameBytes), seq: seq, payload: payload})
		feed(c, frameBytes[:cut])
		fed[c] += cut
		if cut == len(frameBytes) {
			complete(seq, payload)
			open[c] = open[c][1:]
		}
	}
	if mode < 2 {
		for c := range pending {
			flush(c, len(pending[c]))
		}
	}
	m := feedModes[mode]
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: delivered %d bytes, reference %d; first difference at %d", m, len(got), len(want), diffAt(got, want))
	}
	if s.SlicesDup != dups {
		t.Fatalf("%s: SlicesDup = %d, reference %d", m, s.SlicesDup, dups)
	}
	if s.seqIn != next || s.reasm.held != len(model) {
		t.Fatalf("%s: stream at seq %d holding %d, reference at %d holding %d", m, s.seqIn, s.reasm.held, next, len(model))
	}
	s.Close()
	for c := range wire {
		wire[c].Drop()
	}
	if chunks.Gets != chunks.Puts {
		t.Fatalf("%s: closed stream left %d chunks handed out, %d back in the pool", m, chunks.Gets, chunks.Puts)
	}
}

func diffAt(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// FuzzJournalReplay holds journal replay equal to live state at arbitrary
// points. The input is a program, one byte a step (the low three bits pick
// the step, the rest its argument), run against a journaled, self-healing
// controller on fat-tree(4) whose switches may hold twelve m-flow rules each —
// so dials of up to four m-flows are first admitted whole, then degraded,
// then refused, and a close hands a flow back to a degraded channel — and
// whose journal compacts every three records:
//
//	0, 1  dial: one host pair, F = 1..4
//	2     close a live channel
//	3     cut a link under a live channel's first flow (the MC repairs, or,
//	      with nothing left to route over, gives the channel up after two
//	      attempts)
//	4     with the argument's low bit clear, heal every cut link and restart
//	      every crashed switch; with it set, crash the switch in the middle of a
//	      live channel's first flow (the MC repairs around it, and
//	      reconciles it when it restarts)
//	5     cut a link as 3 does, run one control round trip, then close that
//	      channel: the close lands while the repair's install is out
//	6     with arguments 0-30, set the southbound loss rate to that many %;
//	      with 31, ask a twin replayed from the journal again for every
//	      answered request whose channel is live, as a takeover re-sends a
//	      request its dead life answered: the twin answers each with its
//	      channel, opens none and sends nothing southbound
//	7     dial as 1 does and, 700 µs in — its batch out, not all of it
//	      acknowledged — cut a link under the new channel's first flow as 3
//	      does: the repair's install goes out while the batch may still be
//	      retransmitting
//
// Every dial carries a request ID, which the journal must keep through its
// compactions. After every step the engine runs dry and then the live
// controller passes verify: its books balance, a fresh passive controller
// rebuilt by restore from the journal holds the same channels fact for fact,
// its books balance too, and the switches' tables hold what tablesError
// allows.
func FuzzJournalReplay(f *testing.F) {
	for _, prog := range journalReplayCorpus {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runJournalProgram(t, prog) })
}

// journalReplayCorpus is FuzzJournalReplay's seed corpus, one program per
// shape; TestJournalReplayCorpusShapes holds it to them.
var journalReplayCorpus = [][]byte{
	{0x00},                               // a dial
	{0x18, 0x02},                         // a dial and its close
	{0x08, 0x03, 0x0b},                   // a dial, two cuts and their repairs
	{0x01, 0x03, 0x23, 0x04, 0x01, 0x02}, // both uplinks cut: repaired, then given up; heal, dial again, close
	{0x18, 0x39, 0x58, 0x79, 0x98, 0xb9, 0x02, 0x0a, 0x04, 0x02, 0x18}, // the ladder: whole, degraded, refused; closes restore
	{0x00, 0x08, 0x05, 0x00},                         // a close while the repair's install is out, then a dial into the freed storage
	{0xa6, 0x00, 0x18, 0x0b, 0x05, 0x02},             // 20 % loss: dials, a repair, a close mid-repair, a close
	{0x56, 0x07, 0x02},                               // 10 % loss: a cut under a dial, repaired while the batch is out; its close
	{0x00, 0x0c, 0x02, 0x04},                         // a dial, a crash, a close while the switch is down, its restart
	{0xa6, 0x00, 0x08, 0x0c, 0x04},                   // 20 % loss: dials, a crash the repair runs under, the restart
	{0x00, 0x08, 0x03, 0x18, 0xfe},                   // dials and a repair, compacted; the answered requests asked again
	{0x18, 0x39, 0x58, 0x79, 0x98, 0xb9, 0x02, 0xfe}, // the ladder, a close that restores a flow; asked again
}

// runJournalProgram is FuzzJournalReplay's body; it returns the controller
// and its journal as the program left them, how many switches restarted and
// how many answered requests were asked again.
func runJournalProgram(t *testing.T, prog []byte) (mc *MC, j *Journal, restarts, reasked int) {
	if len(prog) > 40 {
		prog = prog[:40]
	}
	bed := newFixture(t, Config{MNs: 3, AutoRepair: true, RepairMaxRetries: 1, RepairBackoff: 100 * time.Microsecond,
		Admission: AdmissionConfig{Enabled: true, Rate: 1e6, Burst: 64, SwitchRuleBudget: 12}})
	mc, g := bed.mc, bed.graph
	j = &Journal{SnapshotEvery: 3}
	mc.journal = j
	type link struct {
		node topo.NodeID
		port int
	}
	var cuts []link
	var crashed []topo.NodeID
	var answered []answeredRequest
	cut := func(id uint64, arg int) bool {
		path := mc.channels[id].info.Flows[0].Path
		if len(path) < 5 {
			return false // both hosts on one switch: no switch-to-switch link
		}
		i := 1 + arg%(len(path)-3)
		l := link{path[i], g.PortTo(path[i], path[i+1])}
		bed.net.SetLinkDown(l.node, l.port, true)
		cuts = append(cuts, l)
		return true
	}
	for _, b := range prog {
		arg := int(b >> 3)
		live := sortedChanIDs(mc.channels)
		switch op := b & 7; {
		case op <= 1 || op == 7:
			from, to := arg%16, (arg*7+5+int(op&1)*3)%16
			if from == to {
				continue
			}
			id, req := mc.nextChan, mc.Requests+1
			mc.establish(req, bed.hostIP(from), bed.hostIP(to).String(), ChannelOptions{MFlows: 1 + arg%4}, func(info *ChannelInfo, err error) {
				if err == nil {
					answered = append(answered, answeredRequest{req, info.ID})
				}
			})
			if op == 7 {
				bed.eng.RunFor(700 * time.Microsecond)
				if _, ok := mc.channels[id]; ok {
					cut(id, arg)
				}
			}
		case op == 2 && len(live) > 0:
			if err := mc.CloseChannel(live[arg%len(live)], nil); err != nil {
				t.Fatal(err)
			}
		case (op == 3 || op == 5) && len(live) > 0:
			id := live[arg%len(live)]
			if !cut(id, arg) {
				continue
			}
			if op == 5 {
				bed.eng.RunFor(2 * mc.Ch.Latency)
				if _, ok := mc.channels[id]; ok { // the repair may have given it up
					if err := mc.CloseChannel(id, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
		case op == 6 && arg == 31:
			reasked += askAgain(t, mc, j, answered)
		case op == 6:
			mc.Ch.LossRate = float64(arg) / 100
		case op == 4 && arg&1 == 0:
			for _, l := range cuts {
				bed.net.SetLinkDown(l.node, l.port, false)
			}
			cuts = nil
			for _, node := range crashed {
				if bed.net.Switch(node).Down {
					bed.net.SetSwitchDown(node, false)
					restarts++
				}
			}
			crashed = nil
		case op == 4 && len(live) > 0:
			path := mc.channels[live[arg>>1%len(live)]].info.Flows[0].Path
			crashed = append(crashed, path[len(path)/2])
			bed.net.SetSwitchDown(path[len(path)/2], true)
		default:
			continue
		}
		bed.eng.Run()
		verify(t, bed)
	}
	return mc, j, restarts, reasked
}

// answeredRequest is a dial's request ID and the channel it was answered with.
type answeredRequest struct{ req, channel uint64 }

// askAgain asks a twin replayed from j again for every answered request
// whose channel mc still holds. The twin must answer each with that channel,
// open none and send nothing southbound. It returns how many it asked.
func askAgain(t *testing.T, mc *MC, j *Journal, answered []answeredRequest) int {
	t.Helper()
	twin := replayed(mc, j)
	twin.active = true
	next, asked, answers := twin.nextChan, 0, 0
	for _, a := range answered {
		st, live := mc.channels[a.channel]
		if !live {
			continue
		}
		asked++
		twin.establish(a.req, st.initiator, st.responder.String(), st.opts, func(info *ChannelInfo, err error) {
			if err != nil || info.ID != a.channel {
				t.Fatalf("request %d asked again: answered %+v, %v; want channel %d", a.req, info, err, a.channel)
			}
			answers++
		})
	}
	mc.Net.Eng.Run()
	if answers != asked || twin.nextChan != next || twin.LiveChannels() != mc.LiveChannels() || southbound(twin.Ch) != (southboundCount{}) {
		t.Fatalf("%d requests asked again, %d answered; the twin opened channels %d to %d and sent %+v",
			asked, answers, next, twin.nextChan, southbound(twin.Ch))
	}
	return asked
}

// TestJournalReplayCorpusShapes keeps the seed corpus honest: between them
// the programs open, close, repair, fail a repair for good, degrade, refuse,
// restore a flow, compact the journal, retransmit over a lossy southbound
// channel, restart a crashed switch and ask answered requests again.
func TestJournalReplayCorpusShapes(t *testing.T) {
	var dials, repairs, given, degraded, refused, restored, snapshots, retransmits, restarts, reasked uint64
	for _, prog := range journalReplayCorpus {
		mc, j, n, asked := runJournalProgram(t, prog)
		restarts += uint64(n)
		reasked += uint64(asked)
		dials += mc.Requests
		repairs += mc.Repairs
		given += mc.RepairFailures
		degraded += mc.ChannelsDegraded
		refused += mc.ChannelsRefused
		restored += mc.FlowsRestored
		snapshots += j.Snapshots
		retransmits += mc.Ch.Retransmits
		t.Logf("% x: dials %d repairs %d given up %d degraded %d refused %d restored %d snapshots %d retransmits %d restarts %d asked again %d live %d",
			prog, mc.Requests, mc.Repairs, mc.RepairFailures, mc.ChannelsDegraded, mc.ChannelsRefused, mc.FlowsRestored, j.Snapshots, mc.Ch.Retransmits, n, asked, mc.LiveChannels())
	}
	for name, n := range map[string]uint64{"dial": dials, "repair": repairs, "repair given up": given,
		"degraded dial": degraded, "refused dial": refused, "restored flow": restored, "journal snapshot": snapshots,
		"southbound retransmission": retransmits, "switch restart": restarts, "request asked again": reasked} {
		if n == 0 {
			t.Errorf("no program in the corpus produces a %s", name)
		}
	}
}
