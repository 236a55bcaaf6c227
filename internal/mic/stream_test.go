package mic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"mic/internal/addr"
	"mic/internal/chunk"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// The OnData contract: the slice handed to the callback aliases chunk (or
// pooled-packet) storage and dies when the callback returns. Both tests run
// on the fixture's poisoning pools, so a byte read after its owner let go
// of it arrives as 0xA5 and breaks the comparison.

// TestEchoInsideCallback: the handler sends the very slice it was handed.
// Send must have copied it before returning, on both the plain and the
// MIC-SSL conn, or the echo comes back corrupted.
func TestEchoInsideCallback(t *testing.T) {
	for _, secure := range []bool{false, true} {
		f := newFixture(t, Config{MNs: 2})
		Listen(f.stacks[15], 80, secure, func(s *Stream) {
			s.OnData(func(b []byte) { s.Send(b) })
		})
		want := pattern(300 << 10)
		var got []byte
		client := NewClient(f.stacks[0], f.mc)
		client.Secure = secure
		client.Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			s.OnData(func(b []byte) { got = append(got, b...) })
			s.Send(want)
		})
		f.eng.Run()
		if !bytes.Equal(got, want) {
			t.Fatalf("secure=%v: echo returned %d bytes, first difference at %d of %d", secure, len(got), diffAt(got, want), len(want))
		}
	}
}

// TestReorderedFlowsDeliverExactStream: F = 4 over links that reorder, so
// slices overtake each other across and within m-flows and the receiver
// mixes the in-order bypass with reassembly.
func TestReorderedFlowsDeliverExactStream(t *testing.T) {
	f := newFixture(t, Config{MFlows: 4, MNs: 2})
	for _, sw := range f.graph.Switches() {
		for port, p := range f.graph.Node(sw).Ports {
			if f.graph.Node(p.Peer).Kind == topo.KindSwitch && sw < p.Peer {
				f.net.SetLinkFault(sw, port, netsim.FaultProfile{Reorder: 0.3})
			}
		}
	}
	var got []byte
	var server *Stream
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		server = s
		s.OnData(func(b []byte) { got = append(got, b...) })
	})
	want := pattern(512 << 10)
	NewClient(f.stacks[0], f.mc).Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		s.Send(want)
	})
	f.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes, first difference at %d of %d", len(got), diffAt(got, want), len(want))
	}
	if server.reasm.held != 0 {
		t.Fatalf("%d slices left in reassembly", server.reasm.held)
	}
}

// stubConn is a conn that keeps what it was sent until the test moves it
// to the peer (feedCopy), so stream allocation budgets exclude transport.
// A test that plays the conn's far end calls the receiver and the close
// callback its owner registered.
type stubConn struct {
	out     []byte
	chunks  *chunk.Pool
	onSpan  func(chunk.Span)
	onClose func()
}

func newStubConn(chunks *chunk.Pool) *stubConn {
	return &stubConn{out: make([]byte, 0, 2<<20), chunks: chunks}
}

func (c *stubConn) Send(b []byte)                 { c.out = append(c.out, b...) }
func (c *stubConn) SendSpan(s chunk.Span)         { c.Send(s.Bytes()) }
func (c *stubConn) OnData(func([]byte))           {}
func (c *stubConn) OnSpan(fn func(chunk.Span))    { c.onSpan = fn }
func (c *stubConn) OnClose(fn func())             { c.onClose = fn }
func (c *stubConn) Close()                        {}
func (c *stubConn) Chunks() *chunk.Pool           { return c.chunks }
func (c *stubConn) RemoteAddr() (addr.IP, uint16) { return 0, 0 }
func (c *stubConn) Err() error                    { return nil }

// take returns the bytes sent since the last take.
func (c *stubConn) take() []byte {
	b := c.out
	c.out = c.out[:0]
	return b
}

func stubStream(eng *sim.Engine) (*Stream, *stubConn) {
	c := newStubConn(chunk.NewPool())
	s := newStream([]conn{c}, sim.NewRNG(1), eng, HealthConfig{})
	s.OnData(func([]byte) {})
	return s, c
}

// feedCopy feeds s a copy of b arriving on conn i, in a chunk of the
// stream's pool, as a conn hands over a payload it had to copy.
func feedCopy(s *Stream, i int, b []byte) {
	if len(b) == 0 {
		return
	}
	sp := sender(s.recv.Pool, len(b))
	copy(sp.Bytes(), b)
	s.feed(i, sp)
	sp.C.Release()
}

// TestSmallRoundAllocFree: a 64-byte send, its delivery, the (delayed)
// cumulative ack and the retirement of the frame allocate nothing at either
// end once the freelist, the parsers and the windows have warmed up. Each
// end's stub conn copies what arrives into chunks it carves, as a conn's
// copyIn does, so the round takes no chunk from the store (which, under the
// race detector, drops some of what it is given).
func TestSmallRoundAllocFree(t *testing.T) {
	eng := sim.New()
	a, ac := stubStream(eng)
	b, bc := stubStream(eng)
	copies := [2]chunk.Carver{{Pool: a.recv.Pool}, {Pool: b.recv.Pool}}
	feed := func(s *Stream, w *chunk.Carver, in []byte) {
		if len(in) == 0 {
			return
		}
		sp := w.Grow(len(in))
		copy(sp.Bytes(), in)
		s.feed(0, sp)
		sp.C.Release()
	}
	msg := pattern(64)
	round := func() {
		a.Send(msg)
		feed(b, &copies[1], ac.take())
		eng.RunFor(ackInterval) // the trailing ack and, every other round, the watchdog
		feed(a, &copies[0], bc.take())
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Fatalf("64-byte send/deliver/ack round allocated %v times, want 0", allocs)
	}
	if b.BytesRecv != a.BytesSent || a.health.out.Len() != 0 {
		t.Fatalf("rounds did not complete: sent %d, received %d, %d outstanding", a.BytesSent, b.BytesRecv, a.health.out.Len())
	}
}

// TestBulkSendAllocBudget: Send(1 MiB) carves its ~1270 frames from slab
// chunks — at most one allocation per 16 KiB written, the windows included.
func TestBulkSendAllocBudget(t *testing.T) {
	const size = 1 << 20
	eng := sim.New()
	a, ac := stubStream(eng)
	data := pattern(size)
	var ack [sliceHeaderLen + ctlBodyLen]byte
	binary.BigEndian.PutUint16(ack[4:6], ctlFlag|ctlBodyLen)
	ack[sliceHeaderLen] = ctlAck
	send := func() {
		a.Send(data)
		// Ack whatever was released until the backlog has drained.
		for m := a.health; m.out.Len() > 0; {
			ac.take()
			binary.BigEndian.PutUint32(ack[sliceHeaderLen+1:], a.seqOut-uint32(m.queued))
			binary.BigEndian.PutUint32(ack[sliceHeaderLen+5:], uint32(m.sent[0]))
			feedCopy(a, 0, ack[:])
		}
	}
	send()
	allocs := testing.AllocsPerRun(10, send)
	t.Logf("Send(1 MiB): %.0f allocs", allocs)
	if allocs > size/(16<<10) {
		t.Fatalf("Send(1 MiB) allocated %.0f times, budget %d", allocs, size/(16<<10))
	}
}

// TestInOrderFeedAllocFree: a full-size slice arriving in sequence, cut
// mid-frame by a segment boundary as a conn hands it over — two adjacent
// spans of the sender's chunk — goes to the callback where it lies: no
// copy, no chunk taken from the pool, no allocation.
func TestInOrderFeedAllocFree(t *testing.T) {
	eng := sim.New()
	b, _ := stubStream(eng)
	delivered := 0
	b.OnData(func(p []byte) { delivered += len(p) })
	pool := b.recv.Pool
	src := sender(pool, sliceHeaderLen+maxSlice)
	frame := src.Bytes()
	binary.BigEndian.PutUint16(frame[4:6], maxSlice)
	binary.BigEndian.PutUint16(frame[6:8], maxSlice)
	seq := uint32(0)
	feed := func() {
		binary.BigEndian.PutUint32(frame[0:4], seq)
		seq++
		b.feed(0, chunk.Span{C: src.C, Off: 0, N: 900})
		b.feed(0, chunk.Span{C: src.C, Off: 900, N: len(frame) - 900})
	}
	for i := 0; i < 8; i++ {
		feed()
	}
	gets := pool.Gets
	if allocs := testing.AllocsPerRun(500, feed); allocs != 0 {
		t.Fatalf("in-order feed allocated %v times, want 0", allocs)
	}
	if delivered != int(seq)*maxSlice || b.reasm.held != 0 || pool.Gets != gets {
		t.Fatalf("delivered %d bytes of %d slices, %d in reassembly, %d chunks taken; want all, none, none", delivered, seq, b.reasm.held, pool.Gets-gets)
	}
}

// sender returns an n-byte span of a chunk from pool, standing for the
// sender's frames a conn hands over; the caller holds its one reference.
func sender(pool *chunk.Pool, n int) chunk.Span {
	return chunk.Span{C: pool.Get(n), N: n}
}

// TestFirstBulkSendAllocatesOnlyFrames: with the window full, Send(1 MiB)
// queues every slice it makes. It allocates the framed bytes, what the ends
// of its slab chunks waste (at most one chunk in all) and a little queue,
// never a header per queued frame.
func TestFirstBulkSendAllocatesOnlyFrames(t *testing.T) {
	const size, overhead = 1 << 20, 4 << 10
	eng := sim.New()
	a, _ := stubStream(eng)
	for a.SlicesOut[0] < windowSlices {
		a.Send(pattern(maxSlice))
	}
	data := pattern(size)
	seq := a.seqOut
	var before, after runtime.MemStats
	runtime.GC() // two collections empty the chunk store: every chunk is new
	runtime.GC()
	runtime.ReadMemStats(&before)
	a.Send(data)
	runtime.ReadMemStats(&after)
	framed := size + int(a.seqOut-seq)*sliceHeaderLen
	alloc := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("Send(1 MiB) behind a full window: %d B for %d framed", alloc, framed)
	if budget := framed + slabChunk + overhead; alloc > budget {
		t.Fatalf("Send(1 MiB) behind a full window allocated %d B, budget %d (%d framed)", alloc, budget, framed)
	}
}

// TestReceivedSlicesReferenceTheirChunks: slices held behind a gap on one
// conn, the gap filled on the other, everything drained; then frames cut by
// every segment boundary of a conn. Both rounds arrive as spans of the
// sender's chunk, as a conn hands them over, and the stream keeps what must
// wait by reference: once the ring has grown, a round takes no chunk from
// the pool and allocates nothing, and every reference it took is dropped.
func TestReceivedSlicesReferenceTheirChunks(t *testing.T) {
	const held, size = 100, sliceHeaderLen + maxSlice
	eng := sim.New()
	pool := chunk.NewPool()
	pool.SetDebug(true)
	c0, c1 := newStubConn(pool), newStubConn(pool)
	s := newStream([]conn{c0, c1}, sim.NewRNG(1), eng, HealthConfig{})
	next, bad := uint32(0), 0
	s.OnData(func(p []byte) {
		if binary.BigEndian.Uint32(p) != next {
			bad++
		}
		next++
	})
	src := sender(pool, (held+1)*size)
	// put writes slice seq, its payload naming it, at frame k of src.
	put := func(k int, seq uint32) chunk.Span {
		f := chunk.Span{C: src.C, Off: k * size, N: size}
		b := f.Bytes()
		binary.BigEndian.PutUint32(b[0:4], seq)
		binary.BigEndian.PutUint16(b[4:6], maxSlice)
		binary.BigEndian.PutUint16(b[6:8], maxSlice)
		binary.BigEndian.PutUint32(b[sliceHeaderLen:], seq)
		return f
	}
	acks := func() {
		eng.RunFor(ackInterval) // the trailing acks
		c0.take()
		c1.take()
	}
	holdThenFill := func() {
		gap := s.seqIn
		for k := 1; k <= held; k++ {
			s.feed(1, put(k, gap+uint32(k)))
		}
		if s.reasm.held != held {
			t.Fatalf("%d slices held behind the gap, want %d", s.reasm.held, held)
		}
		s.feed(0, put(0, gap))
		acks()
	}
	cutFrames := func() {
		for k := 0; k <= held; k++ {
			put(k, s.seqIn+uint32(k))
		}
		for off := 0; off < src.N; off += transport.MSS {
			s.feed(0, chunk.Span{C: src.C, Off: off, N: min(transport.MSS, src.N-off)})
		}
		acks()
	}
	for _, r := range []struct {
		name  string
		round func()
	}{{"hold-then-fill", holdThenFill}, {"cut-frame", cutFrames}} {
		name, round := r.name, r.round
		round()
		gets := pool.Gets
		if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
			t.Errorf("%s round allocated %v times, want 0", name, allocs)
		}
		if pool.Gets != gets {
			t.Errorf("%s rounds took %d chunks from the pool, want none", name, pool.Gets-gets)
		}
	}
	if want := uint32(2 * 12 * (held + 1)); s.seqIn != want || next != want || bad != 0 {
		t.Fatalf("at seq %d, delivered %d slices, %d out of order; want %d in order", s.seqIn, next, bad, want)
	}
	src.C.Release()
	s.Close()
	if pool.Gets != pool.Puts {
		t.Fatalf("%d chunks handed out, %d back in the pool: a received slice kept its reference", pool.Gets, pool.Puts)
	}
}

// TestClosedStreamReleasesReceivedChunks: an F = 2 transfer crosses a link
// cut under one m-flow, so the other's slices wait behind the gap. Both
// streams close while the server holds such slices and the head of a frame
// a segment boundary cut; once the cut heals and the conns finish, every
// chunk of the network is back in its pool.
func TestClosedStreamReleasesReceivedChunks(t *testing.T) {
	f := newFixture(t, Config{MFlows: 2, MNs: 2})
	var got []byte
	client, server := dialPair(t, f, &got)
	var id uint64
	for ch := range f.mc.channels {
		id = ch
	}
	flows := f.mc.channels[id].info.Flows
	on1 := map[[2]topo.NodeID]bool{}
	for k := 0; k+1 < len(flows[1].Path); k++ {
		on1[[2]topo.NodeID{flows[1].Path[k], flows[1].Path[k+1]}] = true
	}
	var node topo.NodeID
	port := -1
	for k, p := 1, flows[0].Path; k+2 < len(p) && port < 0; k++ {
		if !on1[[2]topo.NodeID{p[k], p[k+1]}] {
			node, port = p[k], f.graph.PortTo(p[k], p[k+1])
		}
	}
	if port < 0 {
		t.Fatal("m-flow 0 has no switch link of its own")
	}
	client.Send(pattern(1 << 20))
	f.eng.RunFor(200 * time.Microsecond)
	f.net.SetLinkDown(node, port, true)
	cut := func() bool {
		for _, c := range server.cut {
			if c.have > 0 {
				return true
			}
		}
		return false
	}
	for !(server.reasm.held > 0 && cut()) {
		if !f.eng.Step() {
			t.Fatal("the server never held a slice behind the gap while a frame was cut")
		}
	}
	held := server.reasm.held
	server.Close()
	client.Close()
	f.net.SetLinkDown(node, port, false)
	f.eng.Run()
	if pl := f.net.ChunkPool(); pl.Gets != pl.Puts {
		t.Fatalf("streams closed holding %d slices and a cut frame: %d chunks handed out, %d back in the pool", held, pl.Gets, pl.Puts)
	}
	t.Logf("closed holding %d slices and a cut frame, %d bytes delivered; %d chunks, all back", held, len(got), f.net.ChunkPool().Gets)
}

// TestResetConnFailsStream: mid-transfer on an F = 1 channel with no
// auto-repair, the channel's one rule at the responder's edge — the
// untagged rule that takes the responder's segments into the channel —
// goes. The responder's segments then fall to common routing and reach the
// host that really owns the fake address they are sent to, whose stack
// answers with a RST. The RST tears down the responder's only conn, so its
// stream must fail with the reset, not close as if the peer had finished.
func TestResetConnFailsStream(t *testing.T) {
	f := newFixture(t, Config{MFlows: 1, MNs: 2})
	var got []byte
	client, server := dialPair(t, f, &got)
	closed := false
	server.OnClose(func() { closed = true })
	var st *channelState
	for _, s := range f.mc.channels {
		st = s
	}
	path := st.info.Flows[0].Path
	client.Send(pattern(1 << 20))
	f.eng.RunFor(time.Millisecond)
	if n := f.net.Switch(path[len(path)-2]).Table.DeleteByCookie(st.cookie()); n != 1 {
		t.Fatalf("deleted %d rules of the channel at the responder's edge, want its untagged rule alone", n)
	}
	f.eng.RunFor(100 * time.Millisecond)
	if server.Err() == nil || closed || len(got) == 1<<20 {
		t.Fatalf("server stream: error %v, closed %v, %d bytes delivered; want the reset, mid-transfer", server.Err(), closed, len(got))
	}
	t.Logf("server stream failed after %d bytes: %v", len(got), server.Err())
}

// TestStalledConnFailsStream: on TestResetConnFailsStream's bed, nothing the
// initiator sends after the reset is acknowledged again. Its conn gives up
// once no new data has been acknowledged for 100 s, which fails the client
// stream, and the engine drains.
func TestStalledConnFailsStream(t *testing.T) {
	f := newFixture(t, Config{MFlows: 1, MNs: 2})
	var got []byte
	client, _ := dialPair(t, f, &got)
	var st *channelState
	for _, s := range f.mc.channels {
		st = s
	}
	path := st.info.Flows[0].Path
	client.Send(pattern(1 << 20))
	f.eng.RunFor(time.Millisecond)
	f.net.Switch(path[len(path)-2]).Table.DeleteByCookie(st.cookie())
	f.eng.RunUntil(sim.Time(120 * time.Second))
	err := client.conns[0].Err()
	var te *transport.TransportError
	if !errors.As(err, &te) || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("initiator conn error %v, want the give-up timeout", err)
	}
	if client.Err() != err {
		t.Fatalf("client stream error %v, want its conn's %v", client.Err(), err)
	}
	if n := f.eng.Pending(); n != 0 {
		t.Fatalf("%d events still pending at %v", n, f.eng.Now())
	}
}
