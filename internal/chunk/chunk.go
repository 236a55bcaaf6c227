// Package chunk is the ownership of payload bytes between the endpoints of
// a transfer: reference-counted byte arrays, recycled through one
// process-wide store, and spans of them.
//
// Span is the one representation of payload bytes between a writer and a
// reader. A byte written into a chunk is copied nowhere else on its way to
// the reader: a MIC stream carves its slice frames from chunks, a conn's
// send queue holds spans of the chunks it was handed (or copied into), and
// a packet whose segment lies inside one span keeps that span; a segment
// crossing two spans is gathered into a span of the sending conn's own
// small chunks, which the packet keeps the same way. On the receiving side
// the conn hands the packet's span on — in order, or after it waited in
// the conn's out-of-order ring — and the receiver keeps what it must by
// reference: a MIC stream the head of a frame a segment boundary cut and
// every slice that must wait for a gap, a secure conn the pieces of a cut
// record, whose MAC it checks where they lie before decrypting them into a
// span of its own chunks that it hands up the same way. Only bytes in no
// chunk (a fabric duplicate or packet-out, which Clone copies out of its
// chunk; a payload built by hand) are copied, once, into chunks of the
// receiving conn or of whoever must keep them. Each holder takes a reference and drops it when
// done — the stream when the slice is acked or delivered, the conn when
// the span is acked or delivered, the packet when it is released at its
// sink — and the chunk returns to the store only when the last reference
// goes. A leaked
// reference costs only reuse (the garbage collector still frees the
// chunk); a reference dropped too early is a use-after-free, which the
// pool's debug mode turns into poisoned bytes.
//
// Bytes handed over are read-only from then on: no holder writes into a
// span it did not carve.
//
// Released chunks go to one process-wide store, a sync.Pool per
// power-of-two size class, so the chunks one network released serve the
// next network, on any goroutine: the next benchmark iteration, the next
// trial. A Pool is a network's view of the store — its counters and its
// debug flag — and, like its chunks while they are held, is not safe for
// concurrent use: each Network owns one, matching the engine's
// single-threaded event loop. A chunk's identity and its stale bytes never
// reach an output: every holder overwrites what it carves before handing
// it on, so which chunk the store returns cannot change a run.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package chunk

import (
	"fmt"
	"math/bits"
	"sync"
)

// Chunk is one reference-counted byte array.
type Chunk struct {
	buf      []byte
	refs     int32
	poisoned bool  // filled with poison on its last Release; Get checks it
	pool     *Pool // the pool that handed it out, whose Puts its Release counts
}

// Retain adds a reference.
func (c *Chunk) Retain() {
	if c.refs <= 0 {
		panic("chunk: Retain of a recycled chunk")
	}
	c.refs++
}

// Release drops a reference; the last one hands the chunk back to its pool.
// It panics on a chunk that has no reference left.
func (c *Chunk) Release() {
	if c.refs--; c.refs <= 0 {
		c.recycle()
	}
}

// recycle hands a chunk whose last reference was just dropped back to its
// pool. It stays out of line so that Release, called for every packet and
// queue entry, inlines.
//
//go:noinline
func (c *Chunk) recycle() {
	if c.refs < 0 {
		panic("chunk: Release of a recycled chunk")
	}
	c.pool.put(c)
}

// Span is n bytes of a chunk from offset off. A Span value does not itself
// hold a reference: whoever keeps one says which reference covers it.
type Span struct {
	C      *Chunk
	Off, N int
}

// Bytes returns the span's bytes, capped at its own end so an append can
// never reach the bytes behind it.
func (s Span) Bytes() []byte { return s.C.buf[s.Off : s.Off+s.N : s.Off+s.N] }

// Pool hands out chunks from the process-wide store and counts them.
type Pool struct {
	debug bool

	// Stats, exported for tests asserting reuse and quiescence (a quiescent
	// network has Gets == Puts).
	Gets uint64 // chunks handed out
	News uint64 // Gets that had to allocate
	Puts uint64 // chunks whose last reference was dropped
}

// NewPool returns a pool with zero counts.
func NewPool() *Pool { return &Pool{} }

// MaxPooled bounds the chunks the store keeps, 1<<maxClass bytes: larger
// ones (a chunk asked for one write of more than 64 KiB) go to the garbage
// collector when released.
const (
	maxClass  = 16
	MaxPooled = 1 << maxClass
)

// store holds the released chunks of every pool, one sync.Pool per size
// class: class k holds chunks of exactly 1<<k bytes. The garbage collector
// bounds it.
var store [maxClass + 1]sync.Pool

// poison fills a recycled chunk in debug mode; Get verifies it is intact.
const poison = 0xA5

// SetDebug toggles use-after-free detection: a chunk whose last reference
// is dropped is filled with poison, so a holder that kept reading it past
// its reference sees poison instead of its bytes, and the Get that takes
// it from the store — on any pool — panics if the poison was disturbed
// meanwhile. Meant for tests; the checks are O(chunk) per cycle.
func (p *Pool) SetDebug(on bool) { p.debug = on }

// Get returns a chunk of at least n bytes holding one reference. Up to
// 64 KiB, n is rounded up to a power of two and the chunk comes from that
// class of the store when it has one; a larger one is allocated at exactly
// n bytes. A recycled chunk's bytes are stale; the caller overwrites what
// it hands out.
func (p *Pool) Get(n int) *Chunk {
	p.Gets++
	var c *Chunk
	if k := bits.Len(uint(n - 1)); k <= maxClass {
		n = 1 << k
		c, _ = store[k].Get().(*Chunk)
	}
	if c == nil {
		p.News++
		c = &Chunk{buf: make([]byte, n)}
	} else if c.poisoned {
		for i, b := range c.buf {
			if b != poison {
				panic(fmt.Sprintf("chunk: byte %d of a recycled %d-byte chunk was written after its last Release", i, len(c.buf)))
			}
		}
		c.poisoned = false
	}
	c.refs, c.pool = 1, p
	return c
}

func (p *Pool) put(c *Chunk) {
	p.Puts++
	if c.poisoned = p.debug; p.debug {
		fillPoison(c.buf)
	}
	if n := len(c.buf); n > 0 && n <= MaxPooled {
		store[bits.Len(uint(n))-1].Put(c)
	}
}

// fillPoison overwrites b with the debug poison byte.
func fillPoison(b []byte) {
	for i := range b {
		b[i] = poison
	}
}

// Carver hands out fresh spans of one owner's chunks: a stream's slice
// frames, a conn's copied-in bytes and gathered segments, a secure conn's
// sealed and opened records. It
// holds a reference on the chunk it carves from (the fill chunk), and
// carves that chunk again from its start whenever that reference is the
// only one left — every span it handed out has been dropped by every
// holder. The zero value needs Pool set before the first Carve.
type Carver struct {
	Pool *Pool
	fill *Chunk
	used int
}

// Carve returns a span of n fresh bytes holding one reference of its own.
// When the fill chunk has no room it is dropped for a new one of size
// bytes (at least n), the caller's sizing policy.
func (w *Carver) Carve(n, size int) Span {
	if w.fill != nil && w.fill.refs == 1 && w.used > 0 {
		if w.Pool.debug {
			fillPoison(w.fill.buf[:w.used])
		}
		w.used = 0
	}
	if w.fill == nil || len(w.fill.buf)-w.used < n {
		w.Drop()
		w.fill = w.Pool.Get(max(n, size))
	}
	s := Span{C: w.fill, Off: w.used, N: n}
	w.used += n
	w.fill.refs++
	return s
}

// fillLen returns the size of the chunk being carved, zero if none.
func (w *Carver) fillLen() int {
	if w.fill == nil {
		return 0
	}
	return len(w.fill.buf)
}

// Drop releases the fill chunk; the next Carve starts a new one.
func (w *Carver) Drop() {
	if w.fill != nil {
		w.fill.Release()
		w.fill, w.used = nil, 0
	}
}

// growFrom is the first chunk Grow makes for a writer whose writes are
// small.
const growFrom = 64

// Grow carves n bytes for a writer of unknown volume — a conn's copied-in
// writes, a secure conn's records: a new fill chunk doubles the last one
// (the first is growFrom bytes, rounded up to n's class) up to the largest
// size the store keeps. A writer cuts a larger write into pieces that fit.
func (w *Carver) Grow(n int) Span { return w.Carve(n, min(max(2*w.fillLen(), growFrom), MaxPooled)) }
