package transport

import (
	"mic/internal/chunk"
	"mic/internal/packet"
)

// sendQueue holds a conn's bytes from sndUna on — sent but unacknowledged,
// then unsent — as a FIFO of chunk spans, each entry holding one reference
// on its chunk. Bytes arrive two ways: copied in (Send, into the conn's own
// chunks) or handed over by reference (SendSpan: a MIC stream's slice
// frames, a secure conn's records), and a span that continues the tail
// entry in the same chunk extends it. A segment lying inside one entry
// aliases it (the packet takes its own reference); one that crosses
// entries is gathered into a span of the conn's gather chunks, which the
// packet aliases the same way. So every segment reaches the receiver as a
// span, and an acked span's chunk outlives the queue entry for as long as
// an in-flight packet, a retransmission the stream queued elsewhere or a
// receiver's out-of-order buffer still holds it.
type sendQueue struct {
	spans  []chunk.Span // live entries are spans[head:]
	head   int
	n      int          // bytes queued
	own    chunk.Carver // the chunks copied-in bytes go into
	gather chunk.Carver // the chunks a segment crossing entries is gathered into
}

// smallChunk sizes the chunks a conn gathers a segment crossing queued
// spans into and a secure conn decrypts a record into: two full segments,
// or a few MIC frames, each. One size class for both, so a chunk one
// endpoint released is taken again by the next carve on any conn of any
// network; a larger record gets a chunk of its size's class.
const smallChunk = 4 << 10

// newSendQueue returns an empty queue whose chunks come from p.
func newSendQueue(p *chunk.Pool) sendQueue {
	return sendQueue{own: chunk.Carver{Pool: p}, gather: chunk.Carver{Pool: p}}
}

// Len returns the number of queued bytes.
func (q *sendQueue) Len() int { return q.n }

// bulkPiece is the most of one write copyIn puts in one chunk: the whole
// segments that fit in the largest chunk the store keeps. A bulk write that
// starts on a segment boundary is cut where its segments are, so none of
// them crosses two chunks and is gathered.
const bulkPiece = chunk.MaxPooled / MSS * MSS

// copyIn appends a copy of b.
func (q *sendQueue) copyIn(b []byte) {
	for len(b) > 0 {
		n := min(len(b), bulkPiece)
		s := q.own.Grow(n)
		copy(s.Bytes(), b[:n])
		q.push(s)
		b = b[n:]
	}
}

// push appends s, taking over the reference that covers it.
func (q *sendQueue) push(s chunk.Span) {
	q.n += s.N
	if k := len(q.spans); k > q.head {
		if t := &q.spans[k-1]; t.C == s.C && t.Off+t.N == s.Off {
			t.N += s.N
			s.C.Release() // the tail entry's reference covers it now
			return
		}
	}
	if len(q.spans) == cap(q.spans) && 2*q.head >= len(q.spans) {
		k := copy(q.spans, q.spans[q.head:])
		clear(q.spans[k:])
		q.spans, q.head = q.spans[:k], 0
	}
	q.spans = append(q.spans, s)
}

// popFront drops the first n bytes, releasing the entries they empty. It
// panics if n exceeds Len.
func (q *sendQueue) popFront(n int) {
	if n < 0 || n > q.n {
		panic("transport: sendQueue.popFront out of range")
	}
	q.n -= n
	for n > 0 {
		s := &q.spans[q.head]
		if n < s.N {
			s.Off += n
			s.N -= n
			return
		}
		n -= s.N
		s.C.Release()
		*s = chunk.Span{}
		q.head++
	}
	if q.head == len(q.spans) {
		q.spans, q.head = q.spans[:0], 0
	}
}

// load sets p's payload to the n queued bytes from offset off: an alias of
// the entry holding them all, or else of a span of the gather chunks the
// bytes are copied into from the entries they cross. It panics if the
// range is not queued. It reports whether the bytes were gathered.
func (q *sendQueue) load(p *packet.Packet, off, n int) bool {
	if off < 0 || n <= 0 || off+n > q.n {
		panic("transport: sendQueue.load out of range")
	}
	i := q.head
	for off >= q.spans[i].N {
		off -= q.spans[i].N
		i++
	}
	if s := q.spans[i]; off+n <= s.N {
		p.SetPayloadSpan(chunk.Span{C: s.C, Off: s.Off + off, N: n})
		return false
	}
	g := q.gather.Carve(n, smallChunk)
	buf := g.Bytes()
	for k := 0; k < n; i, off = i+1, 0 {
		k += copy(buf[k:], q.spans[i].Bytes()[off:])
	}
	p.SetPayloadSpan(g)
	g.C.Release() // the packet's reference covers it now
	return true
}

// reset drops every entry and the conn's fill chunks: the conn is gone.
func (q *sendQueue) reset() {
	q.popFront(q.n)
	q.own.Drop()
	q.gather.Drop()
}
