// Package bytequeue provides a FIFO byte buffer: a ring with amortized
// O(1) append and pop-front that moves a live byte only to grow.
//
// The naive pattern it replaces — `buf = append(buf, b...)` to push and
// `buf = buf[n:]` to consume — discards the consumed capacity, so a
// long-lived stream buffer re-grows on nearly every append. The ring
// reuses consumed space where it lies, so the live bytes may wrap around
// the end of the storage: they read as at most two spans (Spans); a
// parser, whose live run is a partial frame, asks for a contiguous frame
// (Front).
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package bytequeue

// Queue is a FIFO of bytes. The zero value is an empty queue ready to
// use.
type Queue struct {
	buf  []byte // ring storage; len(buf) is the capacity
	head int    // index of the front byte
	n    int    // live bytes
}

// Len returns the number of unconsumed bytes.
func (q *Queue) Len() int { return q.n }

// at maps an offset from the front to an index into buf.
func (q *Queue) at(off int) int {
	if i := q.head + off; i < len(q.buf) {
		return i
	}
	return q.head + off - len(q.buf)
}

// Append pushes b onto the back of the queue. Storage doubles, or fits
// exactly when one write outgrows that: a single multi-megabyte write is
// not rounded up to the next power of two.
func (q *Queue) Append(b []byte) {
	if q.n+len(b) > len(q.buf) {
		q.relocate(max(2*len(q.buf), q.n+len(b)))
	}
	k := copy(q.buf[q.at(q.n):], b)
	copy(q.buf, b[k:])
	q.n += len(b)
}

// relocate moves the live bytes to the front of a fresh array of size c.
func (q *Queue) relocate(c int) {
	nb := make([]byte, c)
	a, b := q.Spans(0, q.n)
	copy(nb[copy(nb, a):], b)
	q.buf, q.head = nb, 0
}

// PopFront consumes n bytes from the front. It panics if n exceeds Len
// or is negative.
func (q *Queue) PopFront(n int) {
	if n < 0 || n > q.n {
		panic("bytequeue: PopFront out of range")
	}
	q.head = q.at(n)
	if q.n -= n; q.n == 0 {
		q.head = 0 // an idle queue restarts unwrapped
	}
}

// Spans returns the n live bytes that start off bytes behind the front, in
// order, as two slices; the second is empty unless the range wraps. They
// alias the queue's storage and are valid only until its next method call
// (other than Len). It panics if the range is not live.
func (q *Queue) Spans(off, n int) (a, b []byte) {
	if off < 0 || n < 0 || off+n > q.n {
		panic("bytequeue: Spans out of range")
	}
	start := q.at(off)
	if end := start + n; end > len(q.buf) {
		return q.buf[start:], q.buf[:end-len(q.buf)]
	}
	return q.buf[start : start+n], nil
}

// Front returns the first n live bytes as one slice, with Spans' lifetime.
// When they wrap, the whole live run is first made contiguous — in place
// if the free space can hold the part before the wrap, in a fresh array
// otherwise — so use it where the live run is short, Spans where it is long.
func (q *Queue) Front(n int) []byte {
	a, b := q.Spans(0, n)
	if len(b) == 0 {
		return a
	}
	if lead := len(q.buf) - q.head; q.n <= q.head {
		copy(q.buf[lead:], q.buf[:q.n-lead])
		copy(q.buf, q.buf[q.head:])
		q.head = 0
	} else {
		q.relocate(2 * len(q.buf))
	}
	return q.buf[:n]
}
