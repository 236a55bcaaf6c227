package mic

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
	"unsafe"

	"mic/internal/chunk"
	"mic/internal/netsim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// gateConn stands between a stream and one of its conns: it passes frames
// through (by reference, as the conn takes them) or, while hold is set,
// keeps copies of them back — a flow whose bytes are late.
type gateConn struct {
	*transport.Conn
	hold bool
	held [][]byte
}

func (g *gateConn) Send(b []byte) {
	if g.hold {
		g.held = append(g.held, append([]byte(nil), b...))
		return
	}
	g.Conn.Send(b)
}

func (g *gateConn) SendSpan(s chunk.Span) {
	if g.hold {
		g.held = append(g.held, append([]byte(nil), s.Bytes()...))
		return
	}
	g.Conn.SendSpan(s)
}

// open lets the held frames go, in order, and passes everything after.
func (g *gateConn) open() {
	g.hold = false
	for _, b := range g.held {
		g.Conn.Send(b)
	}
	g.held = nil
}

// dialPair opens a channel from host 0 to host 15 whose server collects
// what it receives, and returns both streams once the engine is idle.
func dialPair(t *testing.T, f *fixture, got *[]byte) (client, server *Stream) {
	t.Helper()
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		server = s
		s.OnData(func(b []byte) { *got = append(*got, b...) })
	})
	NewClient(f.stacks[0], f.mc).Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		client = s
	})
	f.eng.Run()
	if client == nil || server == nil {
		t.Fatal("channel not open")
	}
	return client, server
}

// TestChunkOutlivesStreamAck is the hazard the chunk references exist for.
// Slice S goes out on flow A, whose bytes are held back, and the watchdog
// re-sends it on flow B into a cut, so B's conn queues S's span and loses
// the segment. Then the cut heals and A delivers S: the peer's stream ack
// retires S while B's TCP has not seen its ack, and only then B times out,
// rewinds and sends S again from its queue. With chunk poisoning on, a
// chunk recycled on the stream ack would put poison on B's wire. The stream
// would mask that — it discards the duplicate, and a later slice the
// poisoned parse swallowed would be re-sent on A — so the bytes each
// receiving conn delivered are checked too: whole frames, each slice
// exactly as sent.
func TestChunkOutlivesStreamAck(t *testing.T) {
	f := newFixture(t, Config{MFlows: 2, MNs: 2})
	var got []byte
	client, server := dialPair(t, f, &got)
	var raw [2][]byte
	for i, c := range server.conns {
		c.OnSpan(func(sp chunk.Span) {
			raw[i] = append(raw[i], sp.Bytes()...)
			server.feed(i, sp)
		})
	}
	var gates [2]*gateConn
	for i, c := range client.conns {
		gates[i] = &gateConn{Conn: c.(*transport.Conn), hold: true}
		client.conns[i] = gates[i]
	}
	first, second := pattern(64), bytes.Repeat([]byte{7}, 64)
	client.Send(first)
	a, sent := client.health.out.At(0).flow, client.health.out.At(0).sentAt
	b := 1 - a
	gates[b].open()
	client.Send(second) // the frame carver moves off S's chunk

	host := f.graph.Hosts()[0]
	f.eng.RunUntil(sent.Add(retransmitAfter - time.Millisecond))
	f.net.SetLinkDown(host, 0, true)
	f.eng.RunUntil(sent.Add(retransmitAfter))
	if s := client.health.out.At(0); s.retx != 1 || s.flow != b {
		t.Fatalf("S re-sent %d times, now on flow %d; want once, on flow %d", s.retx, s.flow, b)
	}
	f.eng.RunFor(2500 * time.Microsecond)
	f.net.SetLinkDown(host, 0, false)
	gates[a].open()
	for client.health.out.Len() > 0 && f.eng.Step() {
	}
	st := gates[b].Stats()
	retx := gates[b].Retransmits
	if client.health.out.Len() != 0 || st.InFlight == 0 {
		t.Fatalf("when the stream ack retired S: %d slices outstanding, flow B %+v; want none, and B's copy of S unacked", client.health.out.Len(), st)
	}
	f.eng.Run()
	if gates[b].Retransmits == retx || server.SlicesDup == 0 {
		t.Fatalf("flow B retransmits %d -> %d, %d duplicate slices: B never re-sent S after the ack retired it", retx, gates[b].Retransmits, server.SlicesDup)
	}
	if want := append(first, second...); !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes, want %d; first difference at %d", len(got), len(want), diffAt(got, want))
	}
	for i := range raw {
		checkFrames(t, i, raw[i], [][]byte{first, second})
	}
}

// checkFrames parses the bytes conn i delivered: whole frames only, every
// control frame of a known type, every slice numbered seq carrying exactly
// slices[seq].
func checkFrames(t *testing.T, i int, raw []byte, slices [][]byte) {
	t.Helper()
	for off := 0; off < len(raw); {
		if len(raw)-off < sliceHeaderLen || len(raw)-off < frameLen(raw[off:]) {
			t.Fatalf("conn %d: %d bytes from offset %d are not a whole frame", i, len(raw)-off, off)
		}
		f := raw[off : off+frameLen(raw[off:])]
		off += len(f)
		if n := binary.BigEndian.Uint16(f[4:6]); n&ctlFlag != 0 {
			if typ := f[sliceHeaderLen]; typ < ctlAck || typ > ctlProbeAck {
				t.Fatalf("conn %d: control frame of type %d at offset %d", i, typ, off-len(f))
			}
			continue
		}
		seq := binary.BigEndian.Uint32(f[0:4])
		if seq >= uint32(len(slices)) || !bytes.Equal(f[sliceHeaderLen:sliceHeaderLen+int(binary.BigEndian.Uint16(f[4:6]))], slices[seq]) {
			t.Fatalf("conn %d: slice %d at offset %d is not what was sent", i, seq, off-len(f))
		}
	}
}

// TestChunksQuiesceAfterFaultyRun: an echoed transfer over an F = 2 channel
// whose switch links duplicate, reorder and corrupt frames, with a tap
// cloning every frame at every switch, leaves every chunk back in the pool once
// both streams closed — no stream slice, conn queue entry, out-of-order
// segment or in-flight packet kept a reference.
func TestChunksQuiesceAfterFaultyRun(t *testing.T) {
	f := newFixture(t, Config{MFlows: 2, MNs: 2})
	const size = 200 << 10
	want := pattern(size)
	var back []byte
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { s.Send(b) })
		s.OnClose(s.Close)
	})
	var client *Stream
	NewClient(f.stacks[0], f.mc).Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		client = s
		s.OnData(func(b []byte) {
			if back = append(back, b...); len(back) == size {
				s.Close()
			}
		})
		for _, sw := range f.graph.Switches() {
			for port, p := range f.graph.Node(sw).Ports {
				if f.graph.Node(p.Peer).Kind == topo.KindSwitch {
					f.net.SetLinkFault(sw, port, netsim.FaultProfile{Dup: 0.05, Reorder: 0.2, Corrupt: 0.02})
				}
			}
		}
		s.Send(want)
	})
	taps := 0
	for _, sw := range f.graph.Switches() {
		f.net.AddTap(sw, func(netsim.TapEvent) { taps++ })
	}
	f.eng.Run()
	if !bytes.Equal(back, want) {
		t.Fatalf("echoed %d bytes, want %d intact", len(back), size)
	}
	if st := f.net.Stats; taps == 0 || st.Duplicated == 0 || st.Corrupted == 0 || client.Retransmits() == 0 {
		t.Fatalf("faults did not bite: %d taps, %d duplicated, %d corrupted, %d slice retransmits", taps, st.Duplicated, st.Corrupted, client.Retransmits())
	}
	if pl := f.net.ChunkPool(); pl.Gets != pl.Puts {
		t.Fatalf("%d chunks handed out, %d back in the pool", pl.Gets, pl.Puts)
	}
}

// TestMICSegmentsAliasStreamFrames pins the MIC-TCP copy ledger: the stream
// copies each payload byte into a slice frame, and that is the only copy
// before the receiver. The conn queues the frames by reference — it copies
// only the hello and the control frames — and a segment lying inside one
// queued span reaches the receiving conn as the sender's frame bytes
// themselves.
func TestMICSegmentsAliasStreamFrames(t *testing.T) {
	f := newFixture(t, Config{MFlows: 1, MNs: 2})
	var got []byte
	client, server := dialPair(t, f, &got)
	// Interpose on the receiving conn: is each delivered run of bytes
	// inside a frame the sender still holds?
	segments, aliased := 0, 0
	server.conns[0].OnSpan(func(sp chunk.Span) {
		segments++
		at := uintptr(unsafe.Pointer(&sp.Bytes()[0]))
		for i := 0; i < client.health.out.Len(); i++ {
			fr := client.health.out.At(i).frame.Bytes()
			if base := uintptr(unsafe.Pointer(&fr[0])); at >= base && at < base+uintptr(len(fr)) {
				aliased++
				break
			}
		}
		server.feed(0, sp)
	})
	want := pattern(256 << 10)
	client.Send(want)
	f.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes, want %d intact", len(got), len(want))
	}
	if aliased*10 < segments*9 {
		t.Fatalf("%d of %d delivered segments alias a frame of the sender's stream, want at least 90 %%", aliased, segments)
	}
	conn := client.conns[0].(*transport.Conn)
	ctl := conn.BytesCopied - helloLen
	if ctl < 0 || ctl%(sliceHeaderLen+ctlBodyLen) != 0 || ctl*100 > conn.BytesSentApp {
		t.Fatalf("the sender's conn copied %d of %d bytes; want the hello and whole control frames only", conn.BytesCopied, conn.BytesSentApp)
	}
}

// TestStreamReceivesByReference: over an F = 2 channel, every byte a
// stream receives reaches it as a span, and every chunk is back in the
// pool once both streams closed. Under MIC-TCP a span is the sender's frames
// where a segment lies in one, else the chunk the sending conn gathered a
// segment crossing two frames' chunks into (both conns did); under MIC-SSL
// it is the chunk the secure conn decrypted a record into.
func TestStreamReceivesByReference(t *testing.T) {
	for _, secure := range []bool{false, true} {
		f := newFixture(t, Config{MFlows: 2, MNs: 2})
		const size = 1 << 20
		want := pattern(size)
		var server, client *Stream
		Listen(f.stacks[15], 80, secure, func(s *Stream) {
			server = s
			s.OnData(func(b []byte) { s.Send(b) })
			s.OnClose(s.Close)
		})
		var back []byte
		c := NewClient(f.stacks[0], f.mc)
		c.Secure = secure
		c.Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			client = s
			s.OnData(func(b []byte) {
				if back = append(back, b...); len(back) == size {
					s.Close()
				}
			})
			s.Send(want)
		})
		f.eng.Run()
		if !bytes.Equal(back, want) {
			t.Fatalf("secure=%v: echoed %d bytes, want %d intact", secure, len(back), size)
		}
		if !secure {
			var gathered [2]int64
			for k, s := range []*Stream{client, server} {
				for _, c := range s.conns {
					gathered[k] += c.(*transport.Conn).BytesGather
				}
			}
			t.Logf("gathered %d bytes out of the client, %d out of the server", gathered[0], gathered[1])
			if gathered[0] == 0 || gathered[1] == 0 {
				t.Fatal("no segment crossed two chunks")
			}
		}
		if pl := f.net.ChunkPool(); pl.Gets != pl.Puts {
			t.Fatalf("secure=%v: %d chunks handed out, %d back in the pool", secure, pl.Gets, pl.Puts)
		}
	}
}

// heldBed dials two raw conns from host 0 to a Listener on host 15 as the
// two m-flows of one channel: conn 0 sends its hello and one slice, conn 1
// the first half of its hello only. Once the engine is idle the listener
// holds the slice's bytes, waiting for conn 1. It returns the listener,
// both ends of both conns and the slice's payload.
func heldBed(t *testing.T, f *fixture, onOpen func(*Stream)) (l *Listener, client, server [2]*transport.Conn, payload []byte) {
	t.Helper()
	l = Listen(f.stacks[15], 80, false, onOpen)
	n := 0
	f.stacks[15].Listen(81, func(c *transport.Conn) {
		server[n] = c
		n++
		l.accept(c)
	})
	payload = []byte("bytes that arrive before the channel's other m-flow")
	slice := make([]byte, sliceHeaderLen+len(payload))
	binary.BigEndian.PutUint16(slice[4:6], uint16(len(payload)))
	binary.BigEndian.PutUint16(slice[6:8], uint16(len(payload)))
	copy(slice[sliceHeaderLen:], payload)
	for i := range client {
		f.stacks[0].Dial(f.hostIP(15), 81, func(c *transport.Conn, err error) {
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			client[i] = c
			if i == 0 {
				c.Send(append(hello(7, 0, 2), slice...))
			} else {
				c.Send(hello(7, 1, 2)[:helloLen/2])
			}
		})
	}
	f.eng.Run()
	if n != 2 || len(l.pending) != 1 {
		t.Fatalf("%d conns accepted, %d channels pending; want 2 and 1", n, len(l.pending))
	}
	return l, client, server, payload
}

// TestListenerDropsAbandonedChannel: when a channel's first conn closes
// before its second finished its hello, the listener forgets the channel.
func TestListenerDropsAbandonedChannel(t *testing.T) {
	f := newFixture(t, Config{})
	l, client, _, _ := heldBed(t, f, func(*Stream) { t.Fatal("a stream opened without its second m-flow") })
	client[0].Close()
	f.eng.Run()
	if len(l.pending) != 0 {
		t.Fatalf("%d channels still pending after a conn of the only one closed", len(l.pending))
	}
}

// TestListenerReleasesHeldSpans: the bytes a listener holds for a channel
// whose other m-flow has not arrived, by reference, reach the stream
// intact once it does, and their chunks go back to the pool whether the
// stream opens or the channel is abandoned.
func TestListenerReleasesHeldSpans(t *testing.T) {
	for _, complete := range []bool{false, true} {
		f := newFixture(t, Config{})
		var s *Stream
		var got []byte
		_, client, server, payload := heldBed(t, f, func(st *Stream) {
			s = st
			s.OnData(func(b []byte) { got = append(got, b...) })
		})
		if complete {
			client[1].Send(hello(7, 1, 2)[helloLen/2:])
			f.eng.Run()
			if s == nil || !bytes.Equal(got, payload) {
				t.Fatalf("stream opened %v, delivered %q; want %q", s != nil, got, payload)
			}
			s.Close()
		} else {
			client[0].Close()
			f.eng.Run()
			for _, c := range server {
				c.Close()
			}
		}
		for _, c := range client {
			c.Close()
		}
		f.eng.Run()
		if pl := f.net.ChunkPool(); pl.Gets != pl.Puts {
			t.Fatalf("complete=%v: %d chunks handed out, %d back in the pool", complete, pl.Gets, pl.Puts)
		}
	}
}
