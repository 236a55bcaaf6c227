package mic

import (
	"encoding/binary"
	"time"

	"mic/internal/addr"
	"mic/internal/bytequeue"
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

// slabChunk caps one allocation of slice-frame storage (~40 slices). One
// slab per write measured slower: fresh multi-megabyte spans zero slowly.
// The receiver's reassembly chunks share the size.
const slabChunk = 32 << 10

// sendCtl sends one control frame on conn i. The frame is built in the
// stream's scratch array: every conn's Send copies before it returns.
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
	conns []transport.ByteStream
	rng   *sim.RNG
	eng   *sim.Engine

	// Outgoing.
	seqOut uint32
	// uniform, when non-zero, pads every slice body to exactly this many
	// bytes so all data packets on the wire share one size — a defense
	// against packet-size fingerprinting (an extension beyond the paper).
	uniform int
	// frameFree recycles slice frame buffers. A frame becomes reusable
	// once no Send can re-transmit it: immediately after the conn copies
	// it (health disabled), or when its cumulative ack retires it from
	// the outstanding set (health enabled). slab is the chunk frames are
	// carved from when the freelist has none; slab[:carved] is handed out.
	frameFree [][]byte
	slab      []byte
	carved    int
	ctl       [sliceHeaderLen + ctlBodyLen]byte // sendCtl's scratch frame

	// Incoming. A frame is handled where it lies in the bytes a conn
	// delivered; parse[i] holds only the frame a segment boundary cut, until
	// the bytes that complete it arrive. A slice arriving in sequence goes
	// straight to onData; reasm holds copies of the others (overtook a gap,
	// or arrived before a receiver was registered).
	parse    []bytequeue.Queue
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

// newFrame returns an n-byte frame buffer: a recycled one of sufficient
// capacity, else carved from the slab, which is replenished with a chunk
// sized for the rest bytes the current Send has yet to slice (headers add
// at most sliceHeaderLen per minSlice) — so a small Send allocates exactly
// its frame. Callers overwrite header and payload and clear any padding.
func (s *Stream) newFrame(n, rest int) []byte {
	if k := len(s.frameFree); k > 0 {
		b := s.frameFree[k-1]
		s.frameFree = s.frameFree[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	if len(s.slab)-s.carved < n {
		s.slab, s.carved = make([]byte, max(n, min(slabChunk, n+rest+rest*sliceHeaderLen/minSlice+sliceHeaderLen))), 0
	}
	b := s.slab[s.carved : s.carved+n : s.carved+n]
	s.carved += n
	return b
}

// joinRun extends *run over frame when frame was carved from the slab right
// behind it, so a queue of frames sliced one after another holds one entry.
// Both stay capped at their own end: a run never reaches a neighbour.
func (s *Stream) joinRun(run *[]byte, frame []byte) bool {
	at := s.carved - len(frame)
	start := at - len(*run)
	if start < 0 || &s.slab[at] != &frame[0] || &s.slab[start] != &(*run)[0] {
		return false
	}
	*run = s.slab[start:s.carved:s.carved]
	return true
}

// recycleFrame returns a frame to the freelist. Only frames that no code
// path can still read or re-send may be recycled; every conn's Send copies
// synchronously, so a frame is safe once it has left the outstanding set.
func (s *Stream) recycleFrame(b []byte) {
	if cap(b) > 0 && len(s.frameFree) < 64 {
		s.frameFree = append(s.frameFree, b)
	}
}

// newStream wires s onto its connections; conns must all be established.
func newStream(conns []transport.ByteStream, rng *sim.RNG, eng *sim.Engine, hc HealthConfig) *Stream {
	s := &Stream{
		conns:      conns,
		rng:        rng,
		eng:        eng,
		parse:      make([]bytequeue.Queue, len(conns)),
		slicesIn:   make([]int64, len(conns)),
		lastAck:    make([]sim.Time, len(conns)),
		ack:        make([]sim.Timer, len(conns)),
		connClosed: make([]bool, len(conns)),
		SlicesOut:  make([]int64, len(conns)),
	}
	if !hc.Disabled {
		s.health = newHealthMonitor(s)
	}
	for i, c := range conns {
		i, c := i, c
		s.ack[i].Bind(eng, func() { s.delayedAck(i) })
		c.OnData(func(b []byte) { s.feed(i, b) })
		c.OnClose(func() {
			s.connClosed[i] = true
			if s.health != nil {
				s.health.flows[i].state = FlowClosed
			}
			s.closedConns++
			if s.closedConns == len(s.conns) && s.onClose != nil {
				cb := s.onClose
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
	out := make([]addr.IP, 0, len(s.conns))
	for _, c := range s.conns {
		if ra, ok := c.(interface{ RemoteAddr() (addr.IP, uint16) }); ok {
			ip, _ := ra.RemoteAddr()
			out = append(out, ip)
		}
	}
	return out
}

// Send slices data and spreads the slices across the m-flows, weighted by
// flow health (uniformly when the health machinery is disabled). data is
// copied into slice frames before Send returns. Slicing is eager even when
// the window is full: slice sizes and flow picks interleave on one RNG while
// the window has room, so deferring either would move the draw sequence.
func (s *Stream) Send(data []byte) {
	if s.closed || s.failed != nil {
		return
	}
	s.BytesSent += int64(len(data))
	for len(data) > 0 {
		var n, padded int
		if s.uniform > 0 {
			padded = s.uniform
			n = min(len(data), padded)
		} else {
			n = minSlice
			if span := maxSlice - minSlice; span > 0 {
				n += s.rng.Intn(span + 1)
			}
			if n > len(data) {
				n = len(data)
			}
			padded = n
		}
		body := s.newFrame(sliceHeaderLen+padded, len(data)-n)
		binary.BigEndian.PutUint32(body[0:4], s.seqOut)
		binary.BigEndian.PutUint16(body[4:6], uint16(n))
		binary.BigEndian.PutUint16(body[6:8], uint16(padded))
		copy(body[sliceHeaderLen:], data[:n])
		// Recycled frames carry stale bytes; the padding must not leak them
		// onto the wire.
		clear(body[sliceHeaderLen+n:])
		s.seqOut++
		if s.health != nil {
			// Windowed path: the monitor releases slices as acks open
			// window room, picking the flow at release time.
			s.health.enqueue(body)
		} else {
			flow := s.rng.Intn(len(s.conns))
			s.SlicesOut[flow]++
			s.conns[flow].Send(body)
			s.recycleFrame(body)
		}
		data = data[n:]
	}
}

// OnData registers the receive callback and flushes anything reassembled
// while none was registered. The slice handed to fn aliases the bytes the
// conn delivered (the packet payload), the conn's parser (a slice a segment
// boundary cut) or a reassembly chunk, and is valid only during the call
// (Conn.OnData's contract); fn may Send it — Send copies before it returns.
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
// closed.
func (s *Stream) OnClose(fn func()) { s.onClose = fn }

// fail marks the stream terminally dead and closes its connections.
func (s *Stream) fail(err error) {
	if s.closed || s.failed != nil {
		return
	}
	s.failed = err
	if s.health != nil {
		s.health.disarm()
	}
	if fin := s.onFinalize; fin != nil {
		s.onFinalize = nil
		fin()
	}
	for _, c := range s.conns {
		c.Close()
	}
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
	if s.health != nil {
		s.health.disarm()
	}
	if fin := s.onFinalize; fin != nil {
		s.onFinalize = nil
		fin()
	}
	for _, c := range s.conns {
		c.Close()
	}
}

// feed accepts raw bytes from connection i and handles every frame that
// completes in them, in order. A frame lying wholly inside b is handled in
// place; only one a segment boundary cut passes through parse[i], which
// takes just the bytes that complete it.
func (s *Stream) feed(i int, b []byte) {
	q := &s.parse[i]
	gotSlices := false
	if q.Len() > 0 {
		if k := sliceHeaderLen - q.Len(); k > 0 { // the cut fell inside the header
			k = min(k, len(b))
			q.Append(b[:k])
			b = b[k:]
		}
		if q.Len() >= sliceHeaderLen {
			n := frameLen(q.Front(sliceHeaderLen))
			k := min(n-q.Len(), len(b))
			q.Append(b[:k])
			b = b[k:]
			if q.Len() == n {
				gotSlices = s.frame(i, q.Front(n))
				q.PopFront(n)
			}
		}
	}
	for len(b) >= sliceHeaderLen {
		n := frameLen(b)
		if len(b) < n {
			break
		}
		gotSlices = s.frame(i, b[:n]) || gotSlices
		b = b[n:]
	}
	q.Append(b) // the head of a frame the segment's end cut; often empty
	if gotSlices && !s.closed && s.failed == nil && i < len(s.conns) {
		// Ack on the conn the data arrived on: the cumulative ack frees the
		// sender's retransmit state, and its arrival path proves this m-flow
		// alive in the reverse direction.
		s.maybeAck(i)
	}
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
// whether it was a data slice.
func (s *Stream) frame(i int, f []byte) bool {
	rawLen := binary.BigEndian.Uint16(f[4:6])
	if rawLen&ctlFlag != 0 {
		s.handleCtl(i, f[sliceHeaderLen:])
		return false
	}
	seq := binary.BigEndian.Uint32(f[0:4])
	payload := f[sliceHeaderLen : sliceHeaderLen+int(rawLen)]
	if i < len(s.slicesIn) {
		s.slicesIn[i]++
	}
	switch {
	case seq == s.seqIn && s.onData != nil:
		// The common case: deliver straight from where the frame lies, then
		// see whether this slice closed a gap in front of buffered ones.
		s.seqIn++
		s.BytesRecv += int64(len(payload))
		s.onData(payload)
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
// chunk is released once onData has returned.
func (s *Stream) drain() {
	if s.onData == nil {
		return
	}
	for s.reasm.held > 0 {
		h := s.reasm.take(s.seqIn)
		if h.chunk == nil {
			return
		}
		s.seqIn++
		s.BytesRecv += int64(len(h.b))
		s.onData(h.b)
		s.reasm.release(h.chunk)
	}
}

// reassembly holds the slices that overtook a gap, or arrived before a
// receiver was registered, until they become contiguous. It is a ring of
// slots indexed by sequence number over copies packed into recycled chunks,
// so once it has held its peak it allocates nothing.
type reassembly struct {
	// ring holds slice seq at seq&(len(ring)-1), for seqIn <= seq <
	// seqIn+len(ring); its length is zero or a power of two, doubled when
	// a slice lands beyond it. The sender's windows bound how far ahead.
	ring []heldSlice
	held int // occupied slots

	fill *reasmChunk   // the chunk copies go into; nil until the first
	free []*reasmChunk // emptied slabChunk-sized chunks
}

// heldSlice is one ring slot; chunk is nil while the slot is empty.
type heldSlice struct {
	b     []byte
	chunk *reasmChunk
}

// reasmChunk is storage for held slices: buf[:used] is handed out, live of
// those slices are not yet delivered, and the chunk is empty again at zero.
type reasmChunk struct {
	buf  []byte
	used int
	live int
}

// hold copies payload into slot seq, unless that slot is already occupied.
func (r *reassembly) hold(seqIn, seq uint32, payload []byte) bool {
	if d := seq - seqIn; int64(d) >= int64(len(r.ring)) {
		r.grow(seqIn, d)
	}
	h := &r.ring[seq&uint32(len(r.ring)-1)]
	if h.chunk != nil {
		return false
	}
	c := r.fill
	n := len(payload)
	switch {
	case n > slabChunk:
		c = &reasmChunk{buf: make([]byte, n)} // its own, dropped once delivered
	case c == nil || len(c.buf)-c.used < n:
		if k := len(r.free); k > 0 {
			c = r.free[k-1]
			r.free = r.free[:k-1]
		} else {
			c = &reasmChunk{buf: make([]byte, slabChunk)}
		}
		r.fill = c
	}
	h.b = c.buf[c.used : c.used+n : c.used+n]
	h.chunk = c
	copy(h.b, payload)
	c.used += n
	c.live++
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

// take empties and returns slot seq; its chunk is nil if nothing was held.
// Only called while something is held, so the ring exists.
func (r *reassembly) take(seq uint32) heldSlice {
	h := &r.ring[seq&uint32(len(r.ring)-1)]
	v := *h
	if v.chunk != nil {
		*h = heldSlice{}
		r.held--
	}
	return v
}

// release marks one slice of c delivered. An emptied chunk is reused from
// its start: in place while it is the fill chunk, from the free list
// otherwise (unless it was made for one oversized slice).
func (r *reassembly) release(c *reasmChunk) {
	if c.live--; c.live > 0 {
		return
	}
	c.used = 0
	if c != r.fill && len(c.buf) == slabChunk {
		r.free = append(r.free, c)
	}
}
