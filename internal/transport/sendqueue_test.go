package transport

import (
	"bytes"
	"testing"

	"mic/internal/chunk"
	"mic/internal/netsim"
	"mic/internal/packet"
)

// FuzzSendQueue is a differential fuzzer for the conn's send queue against
// a flat []byte model. Each 3-byte step of the script is one operation:
//
//	0  Send: copy a fresh write in (its buffer is overwritten at once)
//	1  SendSpan: hand over a span carved by a second owner, which drops its
//	   own reference now or keeps it for a later step 5
//	2  cut a segment at any offset and length (a first send, or a go-back-N
//	   rewind re-reading bytes already cut) into a pooled packet
//	3  ack: pop any prefix
//	4  release one in-flight packet, in any order
//	5  the second owner drops one reference it kept (a stream's ack)
//
// Both pools poison what they recycle. Every segment must carry a span (an
// alias of its entry, or of the chunk it was gathered into), equal the
// model's bytes when cut and still equal them when its packet is released —
// after any acks, drops and recycling in between — and once everything is
// released every chunk must be back in the pool.
func FuzzSendQueue(f *testing.F) {
	f.Add([]byte{0, 9, 0, 2, 0, 0, 3, 1, 0, 4, 0, 0})
	f.Add([]byte{1, 40, 0, 1, 40, 4, 2, 3, 7, 0, 2, 2, 2, 0, 1, 3, 0, 200, 5, 0, 0, 4, 1, 0, 4, 0, 0})
	f.Add([]byte{1, 255, 2, 0, 100, 3, 2, 9, 9, 1, 255, 6, 2, 200, 1, 3, 1, 0, 2, 0, 0, 4, 0, 1, 5, 0, 0, 3, 255, 255, 4, 0, 0})
	f.Add([]byte{0, 255, 7, 0, 255, 7, 2, 1, 200, 2, 4, 17, 3, 2, 0, 2, 0, 0, 0, 3, 3, 2, 1, 1, 4, 2, 0, 4, 0, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		chunks, packets := chunk.NewPool(), packet.NewPool()
		chunks.SetDebug(true)
		packets.SetDebug(true)
		q := newSendQueue(chunks)
		other := chunk.Carver{Pool: chunks}
		var model []byte
		type segment struct {
			p    *packet.Packet
			want []byte
		}
		var inflight []segment
		var kept []chunk.Span
		next := byte(1)
		fill := func(b []byte) {
			for i := range b {
				b[i] = next
				next = next*7 + 3
			}
		}
		for step := 0; len(script) >= 3; step++ {
			op, a, b := script[0]%6, int(script[1]), int(script[2])
			script = script[3:]
			switch op {
			case 0:
				w := make([]byte, a*8+b%8)
				fill(w)
				q.copyIn(w)
				model = append(model, w...)
				clear(w)
			case 1:
				s := other.Carve(1+a*4+b%4, []int{64, 1500, 32 << 10}[b%3])
				fill(s.Bytes())
				s.C.Retain() // the queue's reference, as SendSpan takes it
				q.push(s)
				model = append(model, s.Bytes()...)
				if b&4 != 0 {
					kept = append(kept, s)
				} else {
					s.C.Release()
				}
			case 2:
				if q.Len() == 0 {
					continue
				}
				off := (a*256 + b) % q.Len()
				n := 1 + (a^b*7)%min(MSS, q.Len()-off)
				p := packets.Get()
				q.load(p, off, n)
				if sp := p.PayloadSpan(); sp.C == nil || &sp.Bytes()[0] != &p.Payload[0] {
					t.Fatalf("step %d: segment [%d,+%d) carries no span", step, off, n)
				}
				if !bytes.Equal(p.Payload, model[off:off+n]) {
					t.Fatalf("step %d: segment [%d,+%d) differs from the queued bytes at %d", step, off, n, diffAt(p.Payload, model[off:off+n]))
				}
				inflight = append(inflight, segment{p, append([]byte(nil), p.Payload...)})
			case 3:
				k := (a*256 + b) % (q.Len() + 1)
				q.popFront(k)
				model = model[k:]
			case 4:
				if len(inflight) == 0 {
					continue
				}
				i := (a*256 + b) % len(inflight)
				if sg := inflight[i]; !bytes.Equal(sg.p.Payload, sg.want) {
					t.Fatalf("step %d: an in-flight segment changed before its release, first at byte %d", step, diffAt(sg.p.Payload, sg.want))
				}
				inflight[i].p.Release()
				inflight = append(inflight[:i], inflight[i+1:]...)
			case 5:
				if len(kept) == 0 {
					continue
				}
				i := (a*256 + b) % len(kept)
				kept[i].C.Release()
				kept = append(kept[:i], kept[i+1:]...)
			}
			if q.Len() != len(model) {
				t.Fatalf("step %d: queue holds %d bytes, model %d", step, q.Len(), len(model))
			}
		}
		for _, sg := range inflight {
			if !bytes.Equal(sg.p.Payload, sg.want) {
				t.Fatalf("an in-flight segment changed before its release, first at byte %d", diffAt(sg.p.Payload, sg.want))
			}
			sg.p.Release()
		}
		for _, s := range kept {
			s.C.Release()
		}
		q.reset()
		other.Drop()
		if chunks.Gets != chunks.Puts {
			t.Fatalf("%d chunks handed out, %d back in the pool", chunks.Gets, chunks.Puts)
		}
	})
}

func diffAt(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestSegmentAliasesItsSpan pins the copy ledger of a cut: a segment lying
// inside one queued span carries that span's bytes themselves (pointer
// identity) and holds a reference on its chunk until the packet is
// released; a segment crossing two spans is gathered into a span of the
// queue's own 4 KiB gather chunks, which the packet aliases the same way,
// so the receiver gets it as a span too; Clone copies either way.
func TestSegmentAliasesItsSpan(t *testing.T) {
	chunks, packets := chunk.NewPool(), packet.NewPool()
	w := chunk.Carver{Pool: chunks}
	q := newSendQueue(chunks)
	a := w.Carve(2000, 2000)
	b := w.Carve(2000, 2000) // a new chunk: b does not continue a
	fillPattern(a.Bytes(), 1)
	fillPattern(b.Bytes(), 2)
	q.push(a)
	q.push(b)

	p := packets.Get()
	q.load(p, 100, MSS)
	if &p.Payload[0] != &a.Bytes()[100] || p.PayloadSpan() != (chunk.Span{C: a.C, Off: a.Off + 100, N: MSS}) {
		t.Fatal("a segment inside one span does not alias it")
	}
	q.popFront(2000) // acked: the queue's reference on a's chunk goes
	if got := p.Payload[0]; got != a.Bytes()[100] {
		t.Fatal("the acked span's bytes changed under an in-flight packet")
	}
	clone := p.Clone()
	if &clone.Payload[0] == &p.Payload[0] || clone.PayloadSpan().C != nil {
		t.Fatal("Clone aliases the chunk")
	}
	p.Release()

	p = packets.Get()
	q.load(p, 500, MSS) // the front is b's first byte now
	if p.PayloadSpan() != (chunk.Span{C: b.C, Off: b.Off + 500, N: MSS}) || &p.Payload[0] != &b.Bytes()[500] {
		t.Fatal("a segment inside the second span does not alias it")
	}
	p.Release()
	q.reset()

	q = newSendQueue(chunks)
	c, gap, d := w.Carve(700, 2000), w.Carve(1, 2000), w.Carve(700, 2000)
	gap.C.Release() // d does not continue c
	fillPattern(c.Bytes(), 3)
	fillPattern(d.Bytes(), 4)
	q.push(c)
	q.push(d)
	p = packets.Get()
	q.load(p, 200, 1000)
	g := p.PayloadSpan()
	if g.C == nil || g.C == c.C || g.C == d.C || g.N != 1000 || &p.Payload[0] != &g.Bytes()[0] {
		t.Fatal("a segment crossing spans was not gathered into a span of the queue's own chunks")
	}
	if !bytes.Equal(p.Payload, append(append([]byte(nil), c.Bytes()[200:]...), d.Bytes()[:500]...)) {
		t.Fatal("the gathered segment differs from the spans it crosses")
	}
	q.reset() // the packet's reference keeps the gathered bytes
	if !bytes.Equal(p.Payload, append(append([]byte(nil), c.Bytes()[200:]...), d.Bytes()[:500]...)) {
		t.Fatal("the gathered segment changed when the queue let go of it")
	}
	p.Release()
	w.Drop()
	if chunks.Gets != chunks.Puts {
		t.Fatalf("%d chunks handed out, %d back in the pool", chunks.Gets, chunks.Puts)
	}
}

// TestBulkSendGathersNothing: one 4 MiB Send is copied into pooled chunks
// of whole segments, so no segment of it crosses two chunks and is
// gathered; the bytes arrive intact, and every chunk is back in the pool
// once both sides closed.
func TestBulkSendGathersNothing(t *testing.T) {
	r := newRig(t, 3, netsim.Config{})
	const size = 4 << 20
	want := pattern(size)
	var got []byte
	r.b.Listen(80, func(c *Conn) {
		c.OnData(func(b []byte) { got = append(got, b...) })
		c.OnClose(c.Close)
	})
	var client *Conn
	r.a.Dial(r.b.Host.IP, 80, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		client = c
		c.Send(want)
		c.Close()
	})
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes, want %d intact", len(got), size)
	}
	if client.BytesGather != 0 {
		t.Fatalf("%d bytes of one bulk Send were gathered across chunks", client.BytesGather)
	}
	if pl := r.net.ChunkPool(); pl.Gets != pl.Puts || pl.Gets < size/chunk.MaxPooled {
		t.Fatalf("%d chunks handed out, %d back in the pool; want at least %d, all back", pl.Gets, pl.Puts, size/chunk.MaxPooled)
	}
}

func fillPattern(b []byte, seed byte) {
	for i := range b {
		b[i] = byte(i)*31 + seed
	}
}

// TestSpanRoundTripAllocsNothing: on a warmed connection pair, a handed-over
// span of four segments, the packets carrying it (each aliasing the span),
// their delivery and their acks cost no allocation; the receiver is handed
// the sender's bytes themselves.
func TestSpanRoundTripAllocsNothing(t *testing.T) {
	r := newRig(t, 3, netsim.Config{})
	var span chunk.Span
	aliased, got := 0, 0
	r.b.Listen(7, func(c *Conn) {
		c.OnData(func(b []byte) {
			if s := span.Bytes(); &b[0] == &s[got%len(s)] {
				aliased++
			}
			got += len(b)
		})
	})
	var client *Conn
	r.a.Dial(r.b.Host.IP, 7, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		client = c
	})
	r.eng.Run()
	w := chunk.Carver{Pool: client.Chunks()}
	round := func() {
		span = w.Carve(4*MSS, 4*MSS)
		fillPattern(span.Bytes(), byte(got))
		client.SendSpan(span)
		span.C.Release()
		r.eng.Run()
	}
	for i := 0; i < 16; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("a 4-segment span round trip allocates %v times, want 0", allocs)
	}
	if want := 4 * MSS * (16 + 201); got != want || aliased != 4*(16+201) {
		t.Fatalf("received %d bytes in %d aliasing segments, want %d in %d", got, aliased, want, 4*(16+201))
	}
}

// TestSSLRoundTripAllocsNothing: a secure conn seals each record in one
// span of its own chunks and reuses one AEAD per direction, so a 64-byte
// request and its echo on a warmed pair allocate nothing.
func TestSSLRoundTripAllocsNothing(t *testing.T) {
	r := newRig(t, 3, netsim.Config{})
	r.b.ListenSSL(443, func(sc *SecureConn) { sc.OnData(func(b []byte) { sc.Send(b) }) })
	var client *SecureConn
	echoed := 0
	r.a.DialSSL(r.b.Host.IP, 443, func(sc *SecureConn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		client = sc
		sc.OnData(func(b []byte) { echoed += len(b) })
	})
	r.eng.Run()
	req := pattern(64)
	roundTrip := func() {
		client.Send(req)
		r.eng.Run()
	}
	for i := 0; i < 16; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("a 64-byte SSL round trip allocates %v times, want 0", allocs)
	}
	if echoed != 64*(16+201) {
		t.Fatalf("echoed %d bytes, want %d", echoed, 64*(16+201))
	}
}

// TestChunksQuiesceAfterFaultyTransfer: a bulk transfer each way through
// links that lose, duplicate, reorder and corrupt frames, with a tap
// cloning every frame, leaves no chunk referenced once both sides closed —
// no send queue, out-of-order segment or in-flight packet kept one.
func TestChunksQuiesceAfterFaultyTransfer(t *testing.T) {
	r := newRig(t, 3, netsim.Config{Seed: 3})
	for _, node := range r.graph.Nodes {
		for p := range node.Ports {
			r.net.SetLinkFault(node.ID, p, netsim.FaultProfile{Loss: 0.01, Dup: 0.02, Reorder: 0.2, Corrupt: 0.01})
		}
	}
	taps := 0
	r.net.AddTap(r.graph.Switches()[1], func(netsim.TapEvent) { taps++ })
	const size = 300 << 10
	want := pattern(size)
	var got, back []byte
	r.b.Listen(80, func(c *Conn) {
		c.OnData(func(b []byte) {
			if got = append(got, b...); len(got) == size {
				c.Send(want)
				c.Close()
			}
		})
	})
	r.a.Dial(r.b.Host.IP, 80, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.OnData(func(b []byte) { back = append(back, b...) })
		c.OnClose(func() { c.Close() })
		c.Send(want)
	})
	r.eng.Run()
	if !bytes.Equal(got, want) || !bytes.Equal(back, want) {
		t.Fatalf("delivered %d and %d bytes, want %d intact each way", len(got), len(back), size)
	}
	st := r.net.Stats
	if taps == 0 || st.Duplicated == 0 || st.Corrupted == 0 {
		t.Fatalf("faults did not bite: %d taps, %d duplicated, %d corrupted", taps, st.Duplicated, st.Corrupted)
	}
	if pl := r.net.ChunkPool(); pl.Gets != pl.Puts {
		t.Fatalf("%d chunks handed out, %d back in the pool", pl.Gets, pl.Puts)
	}
}

// TestChunksQuiesceAfterSSLClose: an SSL transfer each way through links
// that lose, duplicate and reorder frames, then the client sends half a
// record and closes. The server's record reader holds the cut record's
// pieces by reference when the FIN arrives; once both sides closed, every
// chunk is back in the pool.
func TestChunksQuiesceAfterSSLClose(t *testing.T) {
	r := newRig(t, 3, netsim.Config{Seed: 5})
	for _, node := range r.graph.Nodes {
		for p := range node.Ports {
			r.net.SetLinkFault(node.ID, p, netsim.FaultProfile{Loss: 0.01, Dup: 0.02, Reorder: 0.2})
		}
	}
	const size = 200 << 10
	want := pattern(size)
	var server *SecureConn
	got := 0
	r.b.ListenSSL(443, func(sc *SecureConn) {
		server = sc
		sc.OnData(func(b []byte) {
			if got += len(b); got == size {
				sc.Send(want)
			}
		})
		sc.OnClose(sc.Close)
	})
	var client *SecureConn
	var back []byte
	r.a.DialSSL(r.b.Host.IP, 443, func(sc *SecureConn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		client = sc
		sc.OnData(func(b []byte) { back = append(back, b...) })
		sc.Send(want)
	})
	r.eng.Run()
	if got != size || !bytes.Equal(back, want) {
		t.Fatalf("delivered %d and %d bytes, want %d each way", got, len(back), size)
	}
	half := frameRecord(recordTypeData, pattern(100))
	client.C.Send(half[:60])
	r.eng.Run()
	if server.records.have != 60 || len(server.records.part) == 0 {
		t.Fatalf("the server holds %d bytes of the cut record, want 60", server.records.have)
	}
	client.Close()
	r.eng.Run()
	if server.records.have != 0 {
		t.Fatal("the server's conn closed with a cut record still held")
	}
	if pl := r.net.ChunkPool(); pl.Gets != pl.Puts {
		t.Fatalf("%d chunks handed out, %d back in the pool", pl.Gets, pl.Puts)
	}
}
