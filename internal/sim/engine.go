// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in the order they were scheduled, so a
// run is a pure function of its inputs and RNG seeds. All network, protocol
// and adversary code in this repository executes inside a single Engine;
// parallelism is obtained by running independent engines (one per trial) on
// separate goroutines, never by sharing one engine.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Duration mirrors time.Duration so call sites can use familiar literals
// (e.g. 5*sim.Microsecond) without importing package time.
type Duration = time.Duration

// Convenience re-exports of common units.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// MaxTime is the largest representable virtual timestamp.
const MaxTime = Time(math.MaxInt64)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the timestamp as a duration from the epoch.
func (t Time) String() string { return Duration(t).String() }

type event struct {
	at  Time
	seq uint64 // schedule order; breaks ties deterministically
	do  func()
	t   *Timer // the timer this is an arming of; nil for At
}

// before is the queue order: earliest timestamp first, scheduling order as
// the tiebreak. seq is unique, so the order is total — which is what makes
// the engine deterministic regardless of the queue's internal layout.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a hand-rolled 4-ary min-heap of value-typed events: the
// engine's far tier, holding whatever the calendar in front of it cannot
// (events beyond its horizon, and the overflow of full buckets). It avoids
// container/heap's interface dispatch and per-event boxing: events live
// inline in the slice and sift moves use a hole instead of pairwise swaps.
// A 4-ary layout halves the tree depth of a binary heap, trading cheap
// in-cache-line sibling scans for expensive level hops. Every move of a
// timer's arming is recorded on the timer, so that cancelling it can remove
// it in one sift. On its own it is a complete queue, which is how the tests
// use it: as the oracle the two-tier engine is compared against.
type eventQueue []event

const heapArity = 4

// set stores ev at h[i] and, for a timer's arming, tells the timer.
func (h eventQueue) set(i int, ev event) {
	h[i] = ev
	if ev.t != nil {
		ev.t.pos = ^i
	}
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

func (q *eventQueue) pop() event {
	top := (*q)[0]
	q.remove(0)
	return top
}

// remove deletes the event at index i: the last event fills the hole and
// sifts whichever way restores the order.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure to the GC
	h = h[:n]
	*q = h
	if i == n {
		return
	}
	if i > 0 && last.before(&h[(i-1)/heapArity]) {
		h.up(i, last)
	} else {
		h.down(i, last)
	}
}

// up sifts ev from the hole at i toward the root.
func (h eventQueue) up(i int, ev event) {
	for i > 0 {
		p := (i - 1) / heapArity
		if !ev.before(&h[p]) {
			break
		}
		h.set(i, h[p])
		i = p
	}
	h.set(i, ev)
}

// down sifts ev from the hole at i toward the leaves.
func (h eventQueue) down(i int, ev event) {
	n := len(h)
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		end := min(c+heapArity, n)
		m := c
		for k := c + 1; k < end; k++ {
			if h[k].before(&h[m]) {
				m = k
			}
		}
		if !h[m].before(&ev) {
			break
		}
		h.set(i, h[m])
		i = m
	}
	h.set(i, ev)
}

// Calendar geometry. The near tier is a ring of fixed-width time buckets
// starting at the bucket of the current instant; an event further ahead
// than the ring reaches goes to the heap. The values are sized on the
// packet path, whose events land one link, switch or host latency ahead
// (5-15 us): a 256 ns bucket rarely holds two of them, and a 1 ms horizon
// leaves only protocol timers to the heap. They are constants because the
// firing order does not depend on them — only the speed does.
const (
	bucketShift = 8    // log2 of the bucket width in ns
	ringBuckets = 4096 // buckets in the ring; x 256 ns = 1.05 ms horizon
	bucketCap   = 8    // a bucket already holding this many events spills to the heap
	ringMask    = ringBuckets - 1
	ringWords   = ringBuckets / 64
)

// calendar is the engine's near tier. Slot b&ringMask holds the events of
// absolute bucket b = at>>bucketShift. Only buckets within ringBuckets of
// the current instant's are admitted and no pending event lies before the
// current instant, so all events of a slot share one absolute bucket and the
// first occupied slot at or after the current one, in ring order, holds the
// tier's earliest event. A two-level bitmap finds that slot with two
// TrailingZeros64.
//
// The events themselves live in one pool of nodes that grows with the
// pending count, not with the ring, and a fired event's node goes on a free
// list. A slot is a circular list threaded through the pool by index, in
// (at, seq) order, and the slot keeps its last node, whose successor is its
// first: an event later than the slot's last (the usual case, seq only
// growing) is appended in constant time, and the slot's earliest event is
// its first, with no scan. What the ring costs up front is the index
// arrays, about 21 KB, none of it pointers the GC must scan.
type calendar struct {
	n       int                // events held
	summary uint64             // bit w set iff occ[w] != 0
	occ     [ringWords]uint64  // bit s set iff fill[s] > 0
	fill    [ringBuckets]uint8 // events in slot s
	last    [ringBuckets]int32 // slot s's last node; 0 for none
	nodes   []node             // node 0 is never used, so index 0 means none
	free    int32              // first node of the free list; 0 for none
}

// node is one pooled calendar entry: an event and the next node of its slot
// (the slot's first, after its last) or of the free list.
type node struct {
	ev   event
	next int32
}

// The summary word has one bit per occ word.
const _ = uint(64 - ringWords)

func newCalendar() *calendar { return &calendar{nodes: make([]node, 1, 64)} }

// add stores ev in slot s and reports whether there was room.
func (c *calendar) add(s uint64, ev event) bool {
	f := c.fill[s]
	if f == bucketCap {
		return false
	}
	i := c.free
	if i != 0 {
		c.free = c.nodes[i].next
	} else {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, node{})
	}
	c.nodes[i].ev = ev
	if ev.t != nil {
		ev.t.pos = int(i)
	}
	last := c.last[s]
	switch {
	case last == 0:
		c.nodes[i].next = i
		c.last[s] = i
		c.occ[s>>6] |= 1 << (s & 63)
		c.summary |= 1 << (s >> 6)
	case !ev.before(&c.nodes[last].ev):
		c.nodes[i].next = c.nodes[last].next
		c.nodes[last].next = i
		c.last[s] = i
	default:
		// ev goes before the last node: after the last node that precedes
		// it, starting from the last itself, which precedes the first.
		p := last
		for q := c.nodes[p].next; !ev.before(&c.nodes[q].ev); q = c.nodes[q].next {
			p = q
		}
		c.nodes[i].next = c.nodes[p].next
		c.nodes[p].next = i
	}
	c.fill[s] = f + 1
	c.n++
	return true
}

// first returns the first occupied slot at or after from in ring order.
// The calendar must not be empty.
func (c *calendar) first(from uint64) uint64 {
	w := from >> 6
	if m := c.occ[w] >> (from & 63); m != 0 {
		return from + uint64(bits.TrailingZeros64(m))
	}
	// Words after w, then wrap: words before it, and last w itself, whose
	// remaining bits are all below from.
	if m := c.summary &^ (1<<(w+1) - 1); m != 0 {
		w = uint64(bits.TrailingZeros64(m))
	} else {
		w = uint64(bits.TrailingZeros64(c.summary))
	}
	return w<<6 + uint64(bits.TrailingZeros64(c.occ[w]))
}

// earliest returns slot s's earliest event, its first. The slot must not be
// empty.
func (c *calendar) earliest(s uint64) *event {
	return &c.nodes[c.nodes[c.last[s]].next].ev
}

// pop removes slot s's earliest event and frees its node.
func (c *calendar) pop(s uint64) { c.unlink(s, c.last[s]) }

// remove unlinks node i, which is queued, from its slot and frees it. The
// slot's list is walked from its last node to i's predecessor: at most
// bucketCap steps.
func (c *calendar) remove(i int32) {
	s := uint64(c.nodes[i].ev.at) >> bucketShift & ringMask
	p := c.last[s]
	for c.nodes[p].next != i {
		p = c.nodes[p].next
	}
	c.unlink(s, p)
}

// unlink removes the node after p from slot s's list and frees it.
func (c *calendar) unlink(s uint64, p int32) {
	i := c.nodes[p].next
	switch {
	case i == p:
		c.last[s] = 0
		c.occ[s>>6] &^= 1 << (s & 63)
		if c.occ[s>>6] == 0 {
			c.summary &^= 1 << (s >> 6)
		}
	case i == c.last[s]:
		c.last[s] = p
		fallthrough
	default:
		c.nodes[p].next = c.nodes[i].next
	}
	c.nodes[i] = node{next: c.free} // release the closure to the GC
	c.free = i
	c.fill[s]--
	c.n--
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use. An Engine must not be accessed from multiple goroutines.
//
// Its queue has two tiers, the calendar for the near future and the heap
// for the rest. Which tier holds an event is a matter of speed only: the
// next event to fire is the smaller of the two tiers' minima under the one
// (at, seq) order, so the firing order is that of a single sorted queue.
// A Timer's cancelled arming leaves the queue at once; every other event
// keeps its place.
type Engine struct {
	now     Time
	latest  Time      // the latest instant anything was scheduled for
	cal     *calendar // allocated on first use, so the zero Engine stays small
	heap    eventQueue
	seq     uint64 // last sequence number handed out
	firing  uint64 // see FiringSeq
	stopped bool
	ran     uint64
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have fired so far. A Timer's cancelled
// arming never fires, so it is not counted.
func (e *Engine) Processed() uint64 { return e.ran }

// Pending reports how many events are waiting in the queue: live ones only,
// since a Timer's cancelled arming leaves the queue.
func (e *Engine) Pending() int {
	if e.cal == nil {
		return len(e.heap)
	}
	return e.cal.n + len(e.heap)
}

// LastSeq returns the sequence number most recently handed out by At or
// After. Everything scheduled from now on is ordered after it among events
// of one instant.
func (e *Engine) LastSeq() uint64 { return e.seq }

// FiringSeq returns the sequence number of the event being fired, or of the
// last one fired when called between events. Together with Now it is the
// engine's position in the (at, seq) order: every event ordered at or
// before (Now, FiringSeq) has fired or was a cancelled Timer arming, and no
// other has. A model can therefore
// decide whether something it would have scheduled at sequence position s
// for instant t has happened yet — (t, s) before (Now, FiringSeq) — without
// spending an event on it. When Run drains the queue or RunUntil reaches
// its deadline, nothing scheduled so far is left at or before Now, and
// FiringSeq is LastSeq.
func (e *Engine) FiringSeq() uint64 { return e.firing }

// At schedules do to run at virtual time t. Scheduling in the past panics:
// it always indicates a protocol bug, and silently reordering time would
// invalidate every measurement downstream.
func (e *Engine) At(t Time, do func()) { e.schedule(event{at: t, do: do}) }

// schedule queues ev under the next sequence number.
func (e *Engine) schedule(ev event) {
	t := ev.at
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev.seq = e.seq
	e.latest = max(e.latest, t)
	if b := uint64(t) >> bucketShift; b-uint64(e.now)>>bucketShift < ringBuckets {
		if e.cal == nil {
			e.cal = newCalendar()
		}
		if e.cal.add(b&ringMask, ev) {
			return
		}
	}
	e.heap.push(ev)
}

// After schedules do to run d from now. Negative d is clamped to zero.
func (e *Engine) After(d Duration, do func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), do)
}

// cancel removes t's pending arming from the queue.
func (e *Engine) cancel(t *Timer) {
	if p := t.pos; p > 0 {
		e.cal.remove(int32(p))
	} else {
		e.heap.remove(^p)
	}
	t.pos = 0
}

// Stop makes Run and RunUntil return after the currently firing event.
func (e *Engine) Stop() { e.stopped = true }

// inHeap is the slot next reports for the heap's root.
const inHeap = ringBuckets

// next locates the earliest queued event: the smaller of the two tiers'
// minima. It returns nil when nothing is queued; otherwise s places the
// event in the calendar, or is inHeap.
func (e *Engine) next() (ev *event, s uint64) {
	if len(e.heap) > 0 {
		ev, s = &e.heap[0], inHeap
	}
	c := e.cal
	if c == nil || c.n == 0 {
		return ev, s
	}
	cs := c.first(uint64(e.now) >> bucketShift & ringMask)
	if cev := c.earliest(cs); ev == nil || cev.before(ev) {
		return cev, cs
	}
	return ev, s
}

// fireBy fires the next event if it is due at or before deadline, and
// reports whether one fired.
func (e *Engine) fireBy(deadline Time) bool {
	next, s := e.next()
	if next == nil || next.at > deadline {
		return false
	}
	ev := *next
	if s == inHeap {
		e.heap.pop()
	} else {
		e.cal.pop(s)
	}
	if ev.t != nil {
		ev.t.pos = 0
	}
	e.now = ev.at
	e.firing = ev.seq
	e.ran++
	ev.do()
	return true
}

// Step fires the next event, if any, and reports whether one fired.
func (e *Engine) Step() bool { return e.fireBy(MaxTime) }

// Run fires events until the queue drains or Stop is called. When it
// drains, the clock moves to the latest instant anything was scheduled for:
// where it would stand had every cancelled Timer arming been popped.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped {
		if !e.Step() {
			e.now = max(e.now, e.latest)
			e.firing = e.seq
			return
		}
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to deadline and returns. If a handler calls Stop while events due
// by the deadline are still queued, the clock stays at the last event
// fired: moving it past them would make the next Run step time backwards.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && e.fireBy(deadline) {
	}
	if next, _ := e.next(); e.now <= deadline && (next == nil || next.at > deadline) {
		e.now = deadline
		e.firing = e.seq
	}
}

// RunFor is shorthand for RunUntil(Now().Add(d)).
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }
