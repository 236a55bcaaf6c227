package transport

import (
	"time"

	"mic/internal/addr"
	"mic/internal/chunk"
	"mic/internal/packet"
	"mic/internal/ring"
	"mic/internal/sim"
)

// Connection tuning. Values are calibrated for a data center fabric
// (microsecond RTTs, gigabit links).
const (
	initialCwnd   = 10 * MSS
	initialSsth   = 64 * 1024
	minRTO        = 1 * time.Millisecond
	initialRTO    = 10 * time.Millisecond
	maxRTO        = 500 * time.Millisecond
	maxSynRetries = 6
	dupAckThresh  = 3
	// giveUp is how long an established conn's retransmission timer keeps
	// expiring with no new data acknowledged before the conn tears itself
	// down: the R2 floor of RFC 1122 §4.2.3.5.
	giveUp = 100 * time.Second
)

type connState int

const (
	stateSynSent connState = iota
	stateSynRcvd
	stateEstablished
	stateClosed
)

// Conn is one reliable byte-stream connection.
type Conn struct {
	stack *Stack
	tuple packet.FiveTuple // local perspective: Src = local, Dst = remote
	state connState

	// Callbacks.
	onConnected func(*Conn, error)
	onAccept    func(*Conn)
	onData      func([]byte)
	onSpan      func(chunk.Span)
	onClose     func()

	// Send side.
	iss        uint32
	sndUna     uint32    // oldest unacknowledged sequence
	sndNxt     uint32    // next sequence to send
	sndMax     uint32    // highest sequence ever sent (go-back-N may rewind sndNxt)
	sendQ      sendQueue // bytes from sndUna (acked bytes are popped)
	bufSeq     uint32    // sequence number of the queue's front byte
	cwnd       int
	ssthresh   int
	dupAcks    int
	finQueued  bool
	finSent    bool
	finSeq     uint32
	synRetries int
	stalled    bool     // the timer expired and no new data was acknowledged since
	stalledAt  sim.Time // when the stall began

	// Receive side.
	rcvNxt       uint32
	ooo          oooQueue     // segments that overtook a gap, each holding a reference
	copies       chunk.Carver // the chunks a payload in no chunk is copied into (copyIn)
	remoteFinned bool
	err          error // why teardown closed the conn; nil after an orderly close

	// RTT estimation (RFC 6298 style).
	srtt, rttvar time.Duration
	rto          time.Duration
	sampleSeq    uint32
	sampleAt     sim.Time
	sampling     bool

	// Retransmission timer, bound to onTimeout.
	rtx sim.Timer

	// Counters.
	BytesSentApp int64 // accepted from the application
	BytesCopied  int64 // of those, copied in by Send (SendSpan's are referenced)
	BytesGather  int64 // sent in segments gathered across queued spans (a copy per transmission)
	BytesRecvApp int64 // delivered to the application
	Retransmits  int64
}

func newConn(s *Stack, tuple packet.FiveTuple, passive bool) *Conn {
	c := &Conn{
		stack:    s,
		tuple:    tuple,
		iss:      isn(tuple),
		cwnd:     initialCwnd,
		ssthresh: initialSsth,
		rto:      initialRTO,
		sendQ:    newSendQueue(s.chunks),
	}
	c.copies.Pool = s.chunks
	c.rtx.Bind(s.eng, c.onTimeout)
	c.sndUna = c.iss
	c.sndNxt = c.iss
	c.sndMax = c.iss
	c.bufSeq = c.iss + 1 // data starts after SYN
	if passive {
		c.state = stateSynRcvd
	} else {
		c.state = stateSynSent
	}
	return c
}

// isn derives a deterministic initial sequence number from the tuple so
// runs are reproducible.
func isn(t packet.FiveTuple) uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		h ^= v
		h *= 16777619
	}
	mix(uint32(t.SrcIP))
	mix(uint32(t.DstIP))
	mix(uint32(t.SrcPort)<<16 | uint32(t.DstPort))
	return h
}

// RemoteAddr returns the connection's remote endpoint as this host sees it
// — under MIC this is an m-address, not the peer's real identity.
func (c *Conn) RemoteAddr() (addr.IP, uint16) { return c.tuple.DstIP, c.tuple.DstPort }

// OnData registers the receive callback. Bytes that arrive in order while no
// callback is registered are acknowledged and dropped, so register inside
// the Listen/Dial callback, before control returns to the engine. The slice
// handed to fn is a pooled packet's payload — often the sender's chunk
// itself — so it is read-only and valid only during the call: copy what
// must outlive it.
func (c *Conn) OnData(fn func([]byte)) { c.onData = fn }

// OnSpan registers a receiver for every byte that arrives, in order, as a
// span of a chunk — the sender's (a peer conn's segment aliases a span of
// its queue, or of the chunk a crossing segment was gathered into) or this
// conn's own, where a payload in no chunk was copied once — so it can keep
// the bytes past the call by taking a reference on the span's chunk
// instead of copying. The span is read-only and its reference is the
// conn's, valid only during the call. A conn with an OnSpan receiver calls
// no OnData callback.
func (c *Conn) OnSpan(fn func(chunk.Span)) { c.onSpan = fn }

// OnClose registers a callback fired when the remote side closes, or when
// the conn is torn down (Err tells the two apart).
func (c *Conn) OnClose(fn func()) { c.onClose = fn }

// Err returns why the conn was torn down — a reset, a handshake that timed
// out — or nil while it is open and after an orderly close.
func (c *Conn) Err() error { return c.err }

// Send queues application data for reliable delivery, copying it into the
// conn's own chunks before it returns.
func (c *Conn) Send(data []byte) {
	if c.state == stateClosed || c.finQueued {
		return
	}
	c.BytesSentApp += int64(len(data))
	c.BytesCopied += int64(len(data))
	c.sendQ.copyIn(data)
	c.pump()
}

// SendSpan queues s for reliable delivery without copying it: the conn
// takes its own reference on s's chunk and drops it once s is acked. The
// bytes must not change from now on.
func (c *Conn) SendSpan(s chunk.Span) {
	if c.state == stateClosed || c.finQueued {
		return
	}
	c.BytesSentApp += int64(s.N)
	s.C.Retain()
	c.sendQ.push(s)
	c.pump()
}

// Chunks returns the chunk pool the conn's stack carves from, for a writer
// that builds the spans it hands to SendSpan.
func (c *Conn) Chunks() *chunk.Pool { return c.stack.chunks }

// Close flushes queued data then sends FIN.
func (c *Conn) Close() {
	if c.state == stateClosed || c.finQueued {
		return
	}
	c.finQueued = true
	c.pump()
}

// seqLE reports a <= b in sequence space.
func seqLE(a, b uint32) bool { return int32(b-a) >= 0 }

// seqLT reports a < b in sequence space.
func seqLT(a, b uint32) bool { return int32(b-a) > 0 }

// mkPacket builds a frame on a pooled packet carrying n bytes of the send
// queue from offset off (n == 0: no payload). The payload aliases the
// queued span that holds it, or the span it was gathered into when it
// crosses spans (sendQueue.load).
func (c *Conn) mkPacket(flags uint8, seq uint32, off, n int) *packet.Packet {
	p := c.stack.pool.Get()
	p.SrcMAC, p.DstMAC = c.stack.Host.MAC, addr.Broadcast
	p.SrcIP, p.DstIP = c.tuple.SrcIP, c.tuple.DstIP
	p.Proto, p.TTL = packet.ProtoTCP, 64
	p.SrcPort, p.DstPort = c.tuple.SrcPort, c.tuple.DstPort
	p.Seq, p.Ack, p.Flags, p.Window = seq, c.rcvNxt, flags, 65535
	if n > 0 && c.sendQ.load(p, off, n) {
		c.BytesGather += int64(n)
	}
	return p
}

func (c *Conn) sendSYN() {
	c.stack.emit(c.mkPacket(packet.FlagSYN, c.iss, 0, 0))
	c.sndNxt = c.iss + 1
	c.bumpMax()
	c.rtx.Reset(c.rto)
}

// bumpMax records the high-water mark of transmitted sequence space.
func (c *Conn) bumpMax() {
	if seqLT(c.sndMax, c.sndNxt) {
		c.sndMax = c.sndNxt
	}
}

func (c *Conn) sendSYNACK() {
	c.stack.emit(c.mkPacket(packet.FlagSYN|packet.FlagACK, c.iss, 0, 0))
	c.sndNxt = c.iss + 1
	c.bumpMax()
	c.rtx.Reset(c.rto)
}

func (c *Conn) sendACK() {
	c.stack.emit(c.mkPacket(packet.FlagACK, c.sndNxt, 0, 0))
}

// pump transmits as much pending data as the congestion window allows.
func (c *Conn) pump() {
	if c.state != stateEstablished {
		return
	}
	for {
		inflight := int(c.sndNxt - c.sndUna)
		if inflight < 0 {
			inflight = 0
		}
		sent := int(c.sndNxt - c.bufSeq) // bytes of sendQ already sent
		if sent < 0 {
			sent = 0
		}
		avail := c.sendQ.Len() - sent
		if avail > 0 && inflight < c.cwnd {
			n := avail
			if n > MSS {
				n = MSS
			}
			if n > c.cwnd-inflight {
				// Sender-side silly-window avoidance: never emit a runt
				// segment just to fill the last sliver of the window; wait
				// for an acknowledgement to open room for a full segment.
				if inflight > 0 {
					return
				}
				n = c.cwnd - inflight
			}
			c.stack.emit(c.mkPacket(packet.FlagACK|packet.FlagPSH, c.sndNxt, sent, n))
			if !c.sampling {
				c.sampling = true
				c.sampleSeq = c.sndNxt + uint32(n)
				c.sampleAt = c.stack.now()
			}
			c.sndNxt += uint32(n)
			c.bumpMax()
			c.rtx.Reset(c.rto)
			continue
		}
		// All data sent: emit FIN if requested and window permits.
		if c.finQueued && !c.finSent && avail == 0 {
			c.finSeq = c.sndNxt
			c.stack.emit(c.mkPacket(packet.FlagFIN|packet.FlagACK, c.sndNxt, 0, 0))
			c.sndNxt++
			c.bumpMax()
			c.finSent = true
			c.rtx.Reset(c.rto)
		}
		return
	}
}

// handle processes one arriving segment.
func (c *Conn) handle(p *packet.Packet) {
	if p.Flags&packet.FlagRST != 0 {
		c.teardown(errReset)
		return
	}
	switch c.state {
	case stateSynSent:
		if p.Flags&packet.FlagSYN != 0 && p.Flags&packet.FlagACK != 0 && p.Ack == c.iss+1 {
			c.sndUna = p.Ack
			c.rcvNxt = p.Seq + 1
			c.state = stateEstablished
			c.rtx.Stop()
			c.sendACK()
			if cb := c.onConnected; cb != nil {
				c.onConnected = nil
				cb(c, nil)
			}
			c.pump()
			return
		}
		if p.Flags&packet.FlagACK != 0 {
			// Unacceptable ACK in SYN-SENT (RFC 793): the peer holds state
			// from an earlier incarnation of this tuple — it answered our
			// SYN with a challenge ACK instead of a SYN-ACK. Reset that
			// stale incarnation; our retransmitted SYN then finds the
			// listener and the handshake restarts cleanly.
			c.stack.emit(c.mkPacket(packet.FlagRST, p.Ack, 0, 0))
		}
		return
	case stateSynRcvd:
		if p.Flags&packet.FlagSYN != 0 && p.Flags&packet.FlagACK == 0 {
			// (Possibly retransmitted) SYN: record ISN, answer SYN-ACK.
			c.rcvNxt = p.Seq + 1
			c.sendSYNACK()
			return
		}
		if p.Flags&packet.FlagACK != 0 && p.Ack == c.iss+1 {
			c.sndUna = p.Ack
			c.state = stateEstablished
			c.rtx.Stop()
			if cb := c.onAccept; cb != nil {
				c.onAccept = nil
				cb(c)
			}
			// Fall through: the ACK may carry data.
		} else {
			return
		}
	case stateClosed:
		return
	}

	// Established path.
	if p.Flags&packet.FlagSYN != 0 && p.Flags&packet.FlagACK == 0 {
		// A fresh SYN on an established tuple is a new incarnation knocking
		// (RFC 5961 §4) — under MIC this happens when a released fake source
		// address is recycled onto a new channel while this side still holds
		// the old conn. Answer a challenge ACK: a legitimate new dialer
		// replies RST, which tears this conn down and lets the retransmitted
		// SYN reach the listener.
		c.sendACK()
		return
	}
	if p.Flags&packet.FlagACK != 0 {
		c.processAck(p.Ack)
	}
	if len(p.Payload) > 0 {
		c.processData(p.Seq, p.Payload, p.PayloadSpan())
	}
	if p.Flags&packet.FlagFIN != 0 {
		finSeq := p.Seq + uint32(len(p.Payload))
		if finSeq == c.rcvNxt {
			c.rcvNxt++
			c.remoteFinned = true
			c.sendACK()
			if cb := c.onClose; cb != nil {
				c.onClose = nil
				cb()
			}
			c.maybeDrop()
		} else if seqLT(finSeq, c.rcvNxt) {
			c.sendACK() // duplicate FIN
		}
	}
	c.pump()
}

var errReset = &TransportError{"connection reset"}
var errTimeout = &TransportError{"connection timed out"}

// TransportError is the error type surfaced by the transport layer.
type TransportError struct{ msg string }

// Error implements the error interface.
func (e *TransportError) Error() string { return "transport: " + e.msg }

func (c *Conn) processAck(ack uint32) {
	if seqLT(c.sndUna, ack) && seqLE(ack, c.sndMax) {
		advanced := ack - c.sndUna
		c.sndUna = ack
		c.stalled = false
		if seqLT(c.sndNxt, ack) {
			// The ack covers data sent before a go-back-N rewind: skip it.
			c.sndNxt = ack
		}
		c.dupAcks = 0
		// Trim acknowledged bytes from the buffer.
		dataAck := ack
		if c.finSent && ack == c.finSeq+1 {
			dataAck = c.finSeq
		}
		if seqLT(c.bufSeq, dataAck) {
			trim := int(dataAck - c.bufSeq)
			if trim > c.sendQ.Len() {
				trim = c.sendQ.Len()
			}
			c.sendQ.popFront(trim)
			c.bufSeq += uint32(trim)
		}
		// RTT sample (Karn: sampling flag cleared on retransmit).
		if c.sampling && seqLE(c.sampleSeq, ack) {
			c.sampling = false
			c.updateRTT(time.Duration(c.stack.now() - c.sampleAt))
		}
		// Congestion control: slow start then AIMD.
		if c.cwnd < c.ssthresh {
			c.cwnd += int(advanced)
			if c.cwnd > c.ssthresh {
				c.cwnd = c.ssthresh
			}
		} else {
			c.cwnd += MSS * int(advanced) / c.cwnd
		}
		if c.sndUna == c.sndNxt {
			c.rtx.Stop()
			c.maybeDrop()
		} else {
			c.rtx.Reset(c.rto)
		}
	} else if ack == c.sndUna && c.sndUna != c.sndNxt {
		c.dupAcks++
		if c.dupAcks == dupAckThresh {
			c.fastRetransmit()
		}
	}
}

func (c *Conn) updateRTT(sample time.Duration) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		delta := c.srtt - sample
		if delta < 0 {
			delta = -delta
		}
		c.rttvar = (3*c.rttvar + delta) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

// processData accepts one segment's payload b; sp is the span of the chunk
// b lies in, its C nil if none. A payload in no chunk (a fabric duplicate
// or packet-out, which Clone copies out of its chunk, or a frame built by
// hand) is copied once into the conn's own chunks where it needs a span:
// for an OnSpan receiver, or to wait in ooo. A segment that overtook a gap
// waits in ooo as a span holding a reference. A waiting segment is
// delivered when rcvNxt reaches its first byte exactly, and dropped once
// rcvNxt passes it.
func (c *Conn) processData(seq uint32, b []byte, sp chunk.Span) {
	if seqLT(seq, c.rcvNxt) {
		// Fully or partially old. Trim the old prefix.
		if seqLE(c.rcvNxt, seq+uint32(len(b))) {
			k := int(c.rcvNxt - seq)
			b = b[k:]
			sp.Off, sp.N = sp.Off+k, sp.N-k
			seq = c.rcvNxt
		} else {
			c.sendACK()
			return
		}
	}
	if seq == c.rcvNxt {
		if sp.C == nil && c.onSpan != nil {
			sp = c.copyIn(b)
			c.deliver(b, sp)
			sp.C.Release()
		} else {
			c.deliver(b, sp)
		}
		// Drain contiguous out-of-order segments.
		for c.ooo.Len() > 0 {
			if seqLT(c.rcvNxt, c.ooo.At(0).seq) {
				break
			}
			next := c.ooo.Pop()
			if next.seq == c.rcvNxt {
				c.deliver(next.sp.Bytes(), next.sp)
			}
			next.sp.C.Release()
		}
	} else if k, ok := c.ooo.slot(seq); ok {
		if sp.C != nil {
			sp.C.Retain()
		} else {
			sp = c.copyIn(b)
		}
		c.ooo.insert(k, oooSegment{seq, sp})
	}
	c.sendACK()
}

// copyIn copies b into a span of the conn's own chunks, holding one
// reference of its own.
func (c *Conn) copyIn(b []byte) chunk.Span {
	sp := c.copies.Grow(len(b))
	copy(sp.Bytes(), b)
	return sp
}

// deliver hands the in-order bytes b to the receiver: as their span sp to
// an OnSpan receiver (processData has put them in a chunk), as bytes to
// OnData's callback otherwise.
func (c *Conn) deliver(b []byte, sp chunk.Span) {
	c.rcvNxt += uint32(len(b))
	c.BytesRecvApp += int64(len(b))
	switch {
	case c.onSpan != nil:
		c.onSpan(sp)
	case c.onData != nil:
		c.onData(b)
	}
}

func (c *Conn) fastRetransmit() {
	c.ssthresh = max(int(c.sndNxt-c.sndUna)/2, 2*MSS)
	c.cwnd = c.ssthresh + 3*MSS
	c.retransmitOldest()
}

func (c *Conn) retransmitOldest() {
	c.Retransmits++
	c.sampling = false
	switch {
	case c.state == stateSynSent:
		c.stack.emit(c.mkPacket(packet.FlagSYN, c.iss, 0, 0))
	case c.state == stateSynRcvd:
		c.stack.emit(c.mkPacket(packet.FlagSYN|packet.FlagACK, c.iss, 0, 0))
	case c.finSent && c.sndUna == c.finSeq:
		c.stack.emit(c.mkPacket(packet.FlagFIN|packet.FlagACK, c.finSeq, 0, 0))
	default:
		sent := int(c.sndUna - c.bufSeq)
		if sent < 0 || sent >= c.sendQ.Len() {
			return
		}
		n := min(MSS, c.sendQ.Len()-sent)
		c.stack.emit(c.mkPacket(packet.FlagACK|packet.FlagPSH, c.sndUna, sent, n))
	}
	c.rtx.Reset(c.rto)
}

// onTimeout runs when the retransmission timer's latest arming expires.
func (c *Conn) onTimeout() {
	if c.state == stateSynSent || c.state == stateSynRcvd {
		c.synRetries++
		if c.synRetries > maxSynRetries {
			c.teardown(errTimeout)
			return
		}
	}
	if c.sndUna == c.sndNxt {
		return // nothing outstanding
	}
	// Timeout: multiplicative backoff, then go-back-N recovery. Rewinding
	// sndNxt lets pump resend the whole flight; the receiver's out-of-order
	// buffer makes duplicates cheap, and one timeout repairs every hole.
	c.ssthresh = max(int(c.sndNxt-c.sndUna)/2, 2*MSS)
	c.cwnd = MSS
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	if c.state == stateEstablished {
		if !c.stalled {
			c.stalled, c.stalledAt = true, c.stack.now()
		} else if c.stack.now().Sub(c.stalledAt) >= giveUp {
			c.teardown(errTimeout)
			return
		}
		c.Retransmits++
		c.sampling = false
		if c.finSent && seqLE(c.sndUna, c.finSeq) {
			c.finSent = false
		}
		c.sndNxt = c.sndUna
		c.pump()
		if !c.rtx.Armed() {
			c.rtx.Reset(c.rto)
		}
		return
	}
	c.retransmitOldest()
}

// maybeDrop removes a fully closed connection from the demux table.
func (c *Conn) maybeDrop() {
	if c.remoteFinned && c.finSent && c.sndUna == c.sndNxt {
		c.state = stateClosed
		c.rtx.Stop()
		c.stack.drop(c)
		c.releaseBytes()
	}
}

// releaseBytes drops every chunk reference a closed conn holds: its send
// queue and its out-of-order segments, and the fill chunks of its copies.
func (c *Conn) releaseBytes() {
	c.sendQ.reset()
	for c.ooo.Len() > 0 {
		c.ooo.Pop().sp.C.Release()
	}
	c.copies.Drop()
}

func (c *Conn) teardown(err *TransportError) {
	if c.state == stateClosed {
		return
	}
	wasHandshaking := c.state == stateSynSent
	c.state = stateClosed
	c.err = err
	c.rtx.Stop()
	c.stack.drop(c)
	c.releaseBytes()
	if wasHandshaking && c.onConnected != nil {
		cb := c.onConnected
		c.onConnected = nil
		cb(nil, err)
		return
	}
	if cb := c.onClose; cb != nil {
		c.onClose = nil
		cb()
	}
}

// ConnStats is a read-only snapshot of the connection's sender state, for
// diagnostics and tests.
type ConnStats struct {
	State       string
	InFlight    int
	Unsent      int
	Cwnd        int
	Ssthresh    int
	RTO         time.Duration
	TimerArmed  bool
	Retransmits int64
}

// Stats snapshots the connection's sender state.
func (c *Conn) Stats() ConnStats {
	states := map[connState]string{
		stateSynSent: "syn-sent", stateSynRcvd: "syn-rcvd",
		stateEstablished: "established", stateClosed: "closed",
	}
	sent := int(c.sndNxt - c.bufSeq)
	if sent < 0 {
		sent = 0
	}
	unsent := c.sendQ.Len() - sent
	if unsent < 0 {
		unsent = 0
	}
	return ConnStats{
		State:       states[c.state],
		InFlight:    int(c.sndNxt - c.sndUna),
		Unsent:      unsent,
		Cwnd:        c.cwnd,
		Ssthresh:    c.ssthresh,
		RTO:         c.rto,
		TimerArmed:  c.rtx.Armed(),
		Retransmits: c.Retransmits,
	}
}

// oooQueue holds the segments that overtook a gap in sequence order, on a
// ring. Segments mostly arrive in sequence behind the gap, so an insert is
// usually a push at the back.
type oooQueue struct{ ring.Ring[oooSegment] }

// oooSegment is one waiting segment: its first sequence number and its
// payload, holding a reference on the span's chunk.
type oooSegment struct {
	seq uint32
	sp  chunk.Span
}

// slot returns where a segment starting at seq goes to keep the queue in
// sequence order, and false if a segment starting at seq already waits.
func (q *oooQueue) slot(seq uint32) (int, bool) {
	k := q.Len()
	for k > 0 && seqLT(seq, q.At(k-1).seq) {
		k--
	}
	return k, k == 0 || q.At(k-1).seq != seq
}

// insert puts s at position k (from slot), shifting the later entries
// back, and takes over the reference s holds.
func (q *oooQueue) insert(k int, s oooSegment) {
	q.Push(s)
	for i := q.Len() - 1; i > k; i-- {
		*q.At(i) = *q.At(i - 1)
	}
	*q.At(k) = s
}
