package mic

import (
	"encoding/binary"
	"time"

	"mic/internal/addr"
	"mic/internal/chunk"
	"mic/internal/sim"
	"mic/internal/transport"
)

// Wire framing of a mimic channel stream. Each m-flow connection opens with
// a fixed hello (so the responder can group the F connections of one
// channel), then carries length-prefixed frames. A frame is either a data
// slice or a control frame (top bit of the length field set). Slices are
// numbered in one shared sequence per direction; the initiator spreads them
// across m-flows so no single flow carries the real traffic size (Sec IV-C,
// multiple m-flows mechanism). Control frames carry the degraded-mode
// machinery: cumulative slice acks, and probes/probe-acks for per-m-flow
// RTT and liveness (health.go).
const (
	helloLen       = 10 // token(8) flowIdx(1) total(1)
	sliceHeaderLen = 8  // seq(4) len(2) padded(2)
	minSlice       = 256
	maxSlice       = 1400

	// ctlFlag marks a control frame in the length field. Data slices are
	// bounded far below it, so the bit is unambiguous.
	ctlFlag = 0x8000

	ctlBodyLen = 9 // type(1) a(4) b(4)

	ctlAck      = 1 // a = cumulative ack (next expected seq), b = slices received on this conn
	ctlProbe    = 2 // a = probe id
	ctlProbeAck = 3 // a = echoed probe id
)

// ackInterval decimates the stream-level ack clock: at most one ack per
// conn per interval, plus a trailing delayed ack so the tail of a burst is
// always acked. Reverse-direction packets are multicast-protected only at
// the far edge MN, so an adversary tapping the near edge can correlate
// every reply packet with certainty — keeping acks a small fraction of the
// data they shadow preserves the partial-multicast defense's effect.
const ackInterval = time.Millisecond

// slabChunk caps one chunk of slice-frame storage (~40 slices), a size the
// process-wide chunk store keeps: a bulk Send's chunks are the ones the
// last transfer released, where one chunk per write measured slower
// (fresh multi-megabyte spans zero slowly).
const slabChunk = 32 << 10

// recvChunk sizes the chunks a stream gathers the pieces of a frame cut
// across two chunks into (about three segments): a slice held from one
// pins little, and an unpinned one is carved again from its front. A
// larger frame gets a chunk of its own size.
const recvChunk = 4 << 10

// conn is one m-flow connection as a stream and a listener hold it: a
// *transport.Conn under MIC-TCP, a *transport.SecureConn under MIC-SSL.
// Frames go out by SendSpan (the conn queues the frame's span, or seals a
// record from it), every received byte comes in as a span (OnSpan), and
// Err tells a reset from an orderly close once OnClose has fired.
type conn interface {
	transport.ByteStream
	SendSpan(s chunk.Span)
	OnSpan(fn func(chunk.Span))
	Chunks() *chunk.Pool
	RemoteAddr() (addr.IP, uint16)
	Err() error
}

// sendCtl sends one control frame on conn i. The frame is built in the
// stream's scratch array, which Send copies before it returns.
func (s *Stream) sendCtl(i int, typ byte, a, b uint32) {
	f := s.ctl[:]
	binary.BigEndian.PutUint16(f[4:6], ctlFlag|ctlBodyLen)
	binary.BigEndian.PutUint16(f[6:8], ctlBodyLen)
	f[sliceHeaderLen] = typ
	binary.BigEndian.PutUint32(f[sliceHeaderLen+1:], a)
	binary.BigEndian.PutUint32(f[sliceHeaderLen+5:], b)
	s.conns[i].Send(f)
}

// Stream is the application-facing byte pipe of a mimic channel: one
// logical connection multiplexed over the channel's m-flows. Under the
// degraded-mode data plane each direction additionally acks slices,
// monitors every m-flow's health, re-sends slices whose m-flow stalled,
// and rebalances the slicing weights away from sick m-flows.
type Stream struct {
	conns []conn
	rng   *sim.RNG
	eng   *sim.Engine

	// Outgoing.
	seqOut uint32
	// frames carves slice frames from the network's chunks: frames[0]
	// those that wait for window room, frames[1+i] those Send hands
	// straight to conn i. Each frame
	// holds a reference on its chunk until no Send can re-transmit it:
	// right after the conn took it (health disabled), or when its
	// cumulative ack retires it from the outstanding set (health enabled).
	// The conns, their in-flight packets and the peer's out-of-order
	// buffer hold references of their own.
	frames []chunk.Carver
	ctl    [sliceHeaderLen + ctlBodyLen]byte // sendCtl's scratch frame

	// Incoming. Received bytes are the chunk spans the conn hands over (the
	// sender's frames, the chunk a segment crossing two of them was gathered
	// into, a secure conn's plaintext). A frame is handled where it lies;
	// cut[i] keeps, by reference, the head of the frame a segment boundary
	// cut on conn i until the bytes that complete it arrive, gathered into
	// a span carved from recv when they do not continue it in place. A
	// slice arriving in sequence goes straight to onData; reasm holds
	// references to the others (overtook a gap, or arrived before a
	// receiver was registered).
	recv     chunk.Carver
	cut      []cutFrame
	reasm    reassembly
	seqIn    uint32
	slicesIn []int64 // per-conn slices received (reported back in acks)
	lastAck  []sim.Time
	ack      []sim.Timer // per-conn delayed ack, bound once
	onData   func([]byte)

	onClose     func()
	onError     func(error)
	onFinalize  func() // client-library hook: unregister from the channel map
	connClosed  []bool
	closedConns int
	closed      bool
	failed      error

	// health drives monitoring, retransmission and rebalancing; nil when
	// HealthConfig.Disabled (the pre-degraded-mode behaviour, kept as an
	// ablation). Receive-side duties (acks, probe answers) stay on either
	// way so this endpoint never blinds its peer.
	health *healthMonitor

	// Counters.
	BytesSent  int64
	BytesRecv  int64
	SlicesOut  []int64 // per m-flow first-transmission slice counts (traffic-split evidence)
	SlicesRetx int64   // slices re-sent over another m-flow
	SlicesDup  int64   // duplicate slices discarded by the receiver
}

// newFrame returns an n-byte frame for flow (-1: a frame that waits for
// window room) holding a reference on its chunk, carved by the flow's own
// carver. A new chunk is sized for the rest bytes the current Send has yet
// to slice (headers add at most sliceHeaderLen per minSlice) or, when that
// is more, for as many frames of n bytes as are in flight and queued, up
// to slabChunk. So the frames of a stream that sends a slice at a time
// while many are in flight (an echo's replies) lie one behind another in
// their flow's chunk, join in the conn's send queue and go out in segments
// that cross no chunk, while one with a frame or two in flight (an RPC's)
// keeps a small chunk. Once acked, a frame's chunk is carved again or
// recycled. Callers overwrite header and payload.
func (s *Stream) newFrame(flow, n, rest int) chunk.Span {
	size := n + rest + rest*sliceHeaderLen/minSlice + sliceHeaderLen
	if m := s.health; m != nil {
		size = max(size, (m.out.Len()+m.queued)*n)
	}
	return s.frames[flow+1].Carve(n, min(slabChunk, size))
}

// pickFlow returns the m-flow the next slice goes out on, drawn as the
// send path would draw it once the slice is queued, or -1 when the slice
// must wait: the backlog is not empty, or no flow has window room.
func (s *Stream) pickFlow() int {
	switch {
	case s.health == nil:
		return s.rng.Intn(len(s.conns))
	case s.health.sendQ.Len() > 0:
		return -1
	}
	return s.health.pickWindowedFlow()
}

// joinRun extends *run over frame when frame lies right behind it in the
// same chunk, so a queue of frames sliced one after another holds one
// entry. A run holds one reference per frame it covers.
func joinRun(run *chunk.Span, frame chunk.Span) bool {
	if run.C != frame.C || run.Off+run.N != frame.Off {
		return false
	}
	run.N += frame.N
	return true
}

// newStream wires s onto its connections; conns must all be established.
// When the last of them closes, the stream closes (OnClose), or fails with
// the conn's error if a reset tore it down.
func newStream(conns []conn, rng *sim.RNG, eng *sim.Engine, hc HealthConfig) *Stream {
	s := &Stream{
		conns:      conns,
		rng:        rng,
		eng:        eng,
		cut:        make([]cutFrame, len(conns)),
		slicesIn:   make([]int64, len(conns)),
		lastAck:    make([]sim.Time, len(conns)),
		ack:        make([]sim.Timer, len(conns)),
		connClosed: make([]bool, len(conns)),
		SlicesOut:  make([]int64, len(conns)),
	}
	s.frames = make([]chunk.Carver, len(conns)+1)
	for i := range s.frames {
		s.frames[i].Pool = conns[0].Chunks()
	}
	s.recv.Pool = conns[0].Chunks()
	if !hc.Disabled {
		s.health = newHealthMonitor(s)
	}
	for i, c := range conns {
		i, c := i, c
		s.ack[i].Bind(eng, func() { s.delayedAck(i) })
		c.OnSpan(func(sp chunk.Span) { s.feed(i, sp) })
		c.OnClose(func() {
			s.connClosed[i] = true
			if s.health != nil {
				s.health.flows[i].state = FlowClosed
			}
			if s.closedConns++; s.closedConns < len(s.conns) {
				return
			}
			if err := c.Err(); err != nil {
				s.fail(err)
				return
			}
			if cb := s.onClose; cb != nil {
				s.onClose = nil
				cb()
			}
		})
	}
	return s
}

// FlowCount returns the number of m-flows carrying this stream.
func (s *Stream) FlowCount() int { return len(s.conns) }

// Remotes returns the peer address of each underlying m-flow connection as
// this endpoint sees it. Under MIC these are m-addresses: the initiator
// sees entry addresses, the responder sees fake final sources — never the
// other party's real address.
func (s *Stream) Remotes() []addr.IP {
	out := make([]addr.IP, len(s.conns))
	for i, c := range s.conns {
		out[i], _ = c.RemoteAddr()
	}
	return out
}

// Send slices data and spreads the slices across the m-flows, weighted by
// flow health (uniformly when the health machinery is disabled). data is
// copied into slice frames before Send returns. Slicing is eager even when
// the window is full: slice sizes and flow picks interleave on one RNG while
// the window has room, so deferring either would move the draw sequence.
// The frames are what the conns queue and the packets carry: a payload byte
// is copied once on its way to the wire, here.
func (s *Stream) Send(data []byte) {
	if s.closed || s.failed != nil {
		return
	}
	s.BytesSent += int64(len(data))
	for len(data) > 0 {
		n := min(minSlice+s.rng.Intn(maxSlice-minSlice+1), len(data))
		flow := s.pickFlow()
		frame := s.newFrame(flow, sliceHeaderLen+n, len(data)-n)
		body := frame.Bytes()
		binary.BigEndian.PutUint32(body[0:4], s.seqOut)
		binary.BigEndian.PutUint16(body[4:6], uint16(n))
		binary.BigEndian.PutUint16(body[6:8], uint16(n)) // padded: none
		copy(body[sliceHeaderLen:], data[:n])
		s.seqOut++
		switch {
		case flow < 0:
			// Windowed path: the monitor releases slices as acks open
			// window room, picking the flow at release time.
			s.health.enqueue(frame)
		case s.health != nil:
			s.health.release(frame, flow)
			s.health.arm()
		default:
			s.SlicesOut[flow]++
			s.conns[flow].SendSpan(frame)
			frame.C.Release()
		}
		data = data[n:]
	}
}

// OnData registers the receive callback and flushes anything reassembled
// while none was registered. The slice handed to fn lies in a chunk the
// stream or its conn holds a reference on — the sender's frame itself, or
// the chunk a frame cut across two was gathered into — and is valid only
// during the call (Conn.OnData's contract), and is read-only: it may alias
// the sender's chunk. fn may Send it — Send copies before it returns.
//
// A stream with no receiver registered holds what arrives but never advances
// its cumulative ack, so its peer keeps retransmitting until one is: an
// endpoint that will not read must still register a callback that discards,
// or an engine driven by Run never drains.
func (s *Stream) OnData(fn func([]byte)) {
	s.onData = fn
	s.drain()
}

// OnClose registers a callback fired once every underlying connection has
// closed, unless a reset tore the last one down: that fails the stream.
func (s *Stream) OnClose(fn func()) { s.onClose = fn }

// fail marks the stream terminally dead and tears it down.
func (s *Stream) fail(err error) {
	if s.done() {
		return
	}
	s.failed = err
	s.teardown()
	if cb := s.onError; cb != nil {
		s.onError = nil
		cb(err)
	}
}

// Close closes all m-flow connections.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.teardown()
}

// teardown is what Close and fail share: stop the health machinery, drop
// the frames and what was received, unregister, close every conn.
func (s *Stream) teardown() {
	if s.health != nil {
		s.health.disarm()
	}
	for i := range s.frames {
		s.frames[i].Drop()
	}
	s.dropReceived()
	if fin := s.onFinalize; fin != nil {
		s.onFinalize = nil
		fin()
	}
	for _, c := range s.conns {
		c.Close()
	}
}

// dropReceived releases every reference the receive path holds — held
// slices, the heads of cut frames, the chunk copies are carved from — once
// the stream is closed or failed. A closed stream reads nothing more.
func (s *Stream) dropReceived() {
	s.reasm.reset()
	for i := range s.cut {
		if c := &s.cut[i]; c.sp.C != nil {
			c.sp.C.Release()
			*c = cutFrame{}
		}
	}
	s.recv.Drop()
}

// done reports whether the stream was closed or failed.
func (s *Stream) done() bool { return s.closed || s.failed != nil }

// feed accepts the bytes in from connection i — valid only during the
// call, under the caller's reference — handles every frame that completes
// in them, in order, where it lies, and acks on conn i if they brought a
// slice: the cumulative ack frees the sender's retransmit state, and its
// arrival path proves this m-flow alive in the reverse direction.
func (s *Stream) feed(i int, in chunk.Span) {
	if s.take(i, in) {
		s.maybeAck(i)
	}
}

// replay feeds the spans a listener held for conn i before the stream
// existed, in order, dropping the listener's reference on each, and acks
// once, as one feed of their bytes would.
func (s *Stream) replay(i int, held []chunk.Span) {
	got := false
	for _, sp := range held {
		got = s.take(i, sp) || got
		sp.C.Release()
	}
	if got && !s.done() {
		s.maybeAck(i)
	}
}

// take is feed without the ack: it reports whether in brought a data slice
// on a conn the stream acks on (a bare test stream has none). A frame that
// in's end cuts is kept by reference (cutFrame) until the bytes that
// complete it arrive.
func (s *Stream) take(i int, in chunk.Span) bool {
	if s.done() {
		return false
	}
	gotSlices := false
	if s.cut[i].have > 0 {
		var k int
		k, gotSlices = s.complete(i, in)
		if s.done() {
			return false
		}
		in.Off += k
		in.N -= k
	}
	b := in.Bytes()
	for len(b) >= sliceHeaderLen {
		n := frameLen(b)
		if len(b) < n {
			break
		}
		gotSlices = s.frame(i, chunk.Span{C: in.C, Off: in.Off + in.N - len(b), N: n}) || gotSlices
		if s.done() {
			return false
		}
		b = b[n:]
	}
	if len(b) > 0 { // the head of a frame the segment's end cut
		in.C.Retain()
		s.cut[i] = cutFrame{sp: chunk.Span{C: in.C, Off: in.Off + in.N - len(b), N: len(b)}, have: len(b)}
	}
	return gotSlices && i < len(s.conns)
}

// cutFrame is the head of a frame a segment boundary cut: its first have
// bytes, at the front of sp, whose chunk it holds a reference on. sp is the
// bytes a conn handed over (have == sp.N) for as long as each next piece
// continues them in the same chunk (joinRun); a piece that does not is
// gathered with them into a span carved from the stream's own chunks,
// sized for the whole frame once its header is known.
type cutFrame struct {
	sp   chunk.Span
	have int
}

// complete moves the bytes the cut frame on conn i still lacks from the
// front of in into it and, if that completes it, handles it. It returns how
// many bytes of in it took and whether the frame was a data slice.
func (s *Stream) complete(i int, in chunk.Span) (int, bool) {
	c := &s.cut[i]
	head := c.sp.Bytes()[:c.have]
	n := 0 // the frame's length, once its header is known
	if c.have >= sliceHeaderLen {
		n = frameLen(head)
	} else if c.have+in.N >= sliceHeaderLen { // the cut fell inside the header
		var hdr [sliceHeaderLen]byte
		copy(hdr[copy(hdr[:], head):], in.Bytes())
		n = frameLen(hdr[:])
	}
	k := in.N
	if n > 0 {
		k = min(n-c.have, in.N)
	}
	piece := chunk.Span{C: in.C, Off: in.Off, N: k}
	switch {
	case c.have == c.sp.N && joinRun(&c.sp, piece):
	case c.sp.N-c.have >= k: // gathered already, with room for the piece
		copy(c.sp.Bytes()[c.have:], piece.Bytes())
	default:
		g := s.recv.Carve(max(n, c.have+k), recvChunk)
		copy(g.Bytes(), head)
		copy(g.Bytes()[c.have:], piece.Bytes())
		c.sp.C.Release()
		c.sp = g
	}
	if c.have += k; c.have < n || n == 0 {
		return k, false
	}
	f := chunk.Span{C: c.sp.C, Off: c.sp.Off, N: n}
	*c = cutFrame{}
	slice := s.frame(i, f)
	f.C.Release()
	return k, slice
}

// frameLen returns the length of the frame whose header is hdr.
func frameLen(hdr []byte) int {
	rawLen := binary.BigEndian.Uint16(hdr[4:6])
	if rawLen&ctlFlag != 0 {
		return sliceHeaderLen + int(rawLen&^ctlFlag)
	}
	// padded < n tolerates unpadded frames.
	return sliceHeaderLen + max(int(rawLen), int(binary.BigEndian.Uint16(hdr[6:8])))
}

// frame handles one whole frame f that arrived on connection i and reports
// whether it was a data slice. f is valid only during the call; a slice
// that must wait takes a reference of its own.
func (s *Stream) frame(i int, f chunk.Span) bool {
	b := f.Bytes()
	rawLen := binary.BigEndian.Uint16(b[4:6])
	if rawLen&ctlFlag != 0 {
		s.handleCtl(i, b[sliceHeaderLen:])
		return false
	}
	seq := binary.BigEndian.Uint32(b[0:4])
	payload := chunk.Span{C: f.C, Off: f.Off + sliceHeaderLen, N: int(rawLen)}
	if i < len(s.slicesIn) {
		s.slicesIn[i]++
	}
	switch {
	case seq == s.seqIn && s.onData != nil:
		// The common case: deliver straight from where the frame lies, then
		// see whether this slice closed a gap in front of buffered ones.
		s.seqIn++
		s.BytesRecv += int64(payload.N)
		s.onData(payload.Bytes())
		s.drain()
	case seqLT32(seq, s.seqIn) || !s.reasm.hold(s.seqIn, seq, payload):
		// Already delivered or already buffered: a retransmitted slice's
		// original copy finally crawling in over a repaired m-flow.
		s.SlicesDup++
	}
	return true
}

// maybeAck sends the cumulative ack on conn i, rate-limited to one per
// ackInterval with a trailing delayed ack (so the final slices of a burst
// are always acked and the sender's watchdog can disarm).
func (s *Stream) maybeAck(i int) {
	if s.eng == nil {
		s.sendAck(i)
		return
	}
	if s.ack[i].Armed() {
		return // a delayed ack is already scheduled; it will carry this seq
	}
	now := s.eng.Now()
	if now.Sub(s.lastAck[i]) >= ackInterval {
		s.lastAck[i] = now
		s.sendAck(i)
		return
	}
	s.ack[i].ResetAt(s.lastAck[i].Add(ackInterval))
}

// delayedAck is the trailing ack maybeAck scheduled on conn i.
func (s *Stream) delayedAck(i int) {
	if s.closed || s.failed != nil || s.connClosed[i] {
		return
	}
	s.lastAck[i] = s.eng.Now()
	s.sendAck(i)
}

func (s *Stream) sendAck(i int) {
	s.sendCtl(i, ctlAck, s.seqIn, uint32(s.slicesIn[i]))
}

// handleCtl dispatches one control frame that arrived on connection i.
func (s *Stream) handleCtl(i int, body []byte) {
	if len(body) < ctlBodyLen {
		return
	}
	a := binary.BigEndian.Uint32(body[1:5])
	b := binary.BigEndian.Uint32(body[5:9])
	switch body[0] {
	case ctlAck:
		if s.health != nil {
			s.health.onAck(i, a, int64(b))
		}
	case ctlProbe:
		if !s.closed && s.failed == nil {
			s.sendCtl(i, ctlProbeAck, a, 0)
		}
	case ctlProbeAck:
		if s.health != nil {
			s.health.onProbeAck(i, a)
		}
	}
}

// drain delivers the buffered slices that have become contiguous. A slice's
// reference is dropped once onData has returned.
func (s *Stream) drain() {
	if s.onData == nil {
		return
	}
	for s.reasm.held > 0 {
		h := s.reasm.take(s.seqIn)
		if h.C == nil {
			return
		}
		s.seqIn++
		s.BytesRecv += int64(h.N)
		s.onData(h.Bytes())
		h.C.Release()
	}
}

// reassembly holds the slices that overtook a gap, or arrived before a
// receiver was registered, until they become contiguous: a ring of slots
// indexed by sequence number, each holding a reference on the span of its
// slice's payload — the sender's frame, or the stream's copy — so once the
// ring has grown to its peak, holding allocates nothing and copies nothing.
type reassembly struct {
	// ring holds slice seq at seq&(len(ring)-1), for seqIn <= seq <
	// seqIn+len(ring); its length is zero or a power of two, doubled when
	// a slice lands beyond it. The sender's windows bound how far ahead.
	ring []heldSlice
	held int // occupied slots
}

// heldSlice is one ring slot: a chunk span in two thirds of chunk.Span's
// size (a chunk is far below 2 GiB). c is nil while the slot is empty.
type heldSlice struct {
	c      *chunk.Chunk
	off, n int32
}

// hold keeps payload in slot seq, taking a reference on its chunk, unless
// that slot is already occupied.
func (r *reassembly) hold(seqIn, seq uint32, payload chunk.Span) bool {
	if d := seq - seqIn; int64(d) >= int64(len(r.ring)) {
		r.grow(seqIn, d)
	}
	h := &r.ring[seq&uint32(len(r.ring)-1)]
	if h.c != nil {
		return false
	}
	payload.C.Retain()
	*h = heldSlice{payload.C, int32(payload.Off), int32(payload.N)}
	r.held++
	return true
}

// grow doubles the ring until slot seqIn+d fits, keeping every held slice
// at its sequence number.
func (r *reassembly) grow(seqIn, d uint32) {
	n := max(len(r.ring), 16)
	for uint32(n) <= d {
		n *= 2
	}
	ring := make([]heldSlice, n)
	for k := range r.ring {
		seq := seqIn + uint32(k)
		ring[seq&uint32(n-1)] = r.ring[seq&uint32(len(r.ring)-1)]
	}
	r.ring = ring
}

// take empties slot seq and returns its span, whose reference passes to
// the caller; its C is nil if nothing was held. Only called while something
// is held, so the ring exists.
func (r *reassembly) take(seq uint32) chunk.Span {
	h := &r.ring[seq&uint32(len(r.ring)-1)]
	if h.c == nil {
		return chunk.Span{}
	}
	v := chunk.Span{C: h.c, Off: int(h.off), N: int(h.n)}
	*h = heldSlice{}
	r.held--
	return v
}

// reset drops every held slice.
func (r *reassembly) reset() {
	for k := range r.ring {
		if h := &r.ring[k]; h.c != nil {
			h.c.Release()
			*h = heldSlice{}
		}
	}
	r.held = 0
}
