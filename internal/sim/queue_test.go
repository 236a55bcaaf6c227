package sim

import (
	"fmt"
	"testing"
)

// scheduler is the part of Engine the queue tests drive, so that one
// program can run against the engine and against the oracle below.
type scheduler interface {
	Now() Time
	At(Time, func())
	After(Duration, func())
	Step() bool
	Run()
	RunUntil(Time)
	Stop()
	Pending() int
	// bind binds t (nil: a new timer) to handler fn, disarmed.
	bind(t timer, fn func()) timer
}

// timer is the part of Timer the queue tests drive.
type timer interface {
	Reset(Duration)
	ResetAt(Time)
	Stop()
	Armed() bool
}

// engineScheduler drives an Engine and its Timers.
type engineScheduler struct{ *Engine }

func (e engineScheduler) bind(t timer, fn func()) timer {
	tm, _ := t.(*Timer)
	if tm == nil {
		tm = new(Timer)
	}
	tm.Bind(e.Engine, fn)
	return tm
}

// heapEngine is the oracle: the scheduling rules of Engine over the 4-ary
// heap alone, with no calendar in front, and timers modelled naively. A
// cancelled timer arming stays in its heap, marked dead by its timer's
// generation counter; the oracle then acts as if it had been removed: Step
// discards it unfired and without moving the clock, RunUntil and Run look
// past it, and Pending does not count it.
type heapEngine struct {
	now, latest Time
	q           eventQueue
	seq         uint64
	stopped     bool
	live        map[uint64]func() bool // a timer arming's liveness, by seq
}

func (o *heapEngine) Now() Time { return o.now }

func (o *heapEngine) At(t Time, do func()) {
	if t < o.now {
		panic("oracle: scheduling in the past")
	}
	o.seq++
	o.latest = max(o.latest, t)
	o.q.push(event{at: t, seq: o.seq, do: do})
}

func (o *heapEngine) After(d Duration, do func()) { o.At(o.now.Add(d), do) }

func (o *heapEngine) Stop() { o.stopped = true }

// dead reports whether ev is a cancelled timer arming. Cancellation is
// final: a timer's generation only grows.
func (o *heapEngine) dead(ev *event) bool {
	live, ok := o.live[ev.seq]
	return ok && !live()
}

// prune discards the dead armings at the top of the heap.
func (o *heapEngine) prune() {
	for len(o.q) > 0 && o.dead(&o.q[0]) {
		delete(o.live, o.q.pop().seq)
	}
}

func (o *heapEngine) Step() bool {
	if o.prune(); len(o.q) == 0 {
		return false
	}
	ev := o.q.pop()
	delete(o.live, ev.seq)
	o.now = ev.at
	ev.do()
	return true
}

func (o *heapEngine) Run() {
	o.stopped = false
	for !o.stopped {
		if !o.Step() {
			o.now = max(o.now, o.latest)
			return
		}
	}
}

func (o *heapEngine) Pending() int {
	n := 0
	for i := range o.q {
		if !o.dead(&o.q[i]) {
			n++
		}
	}
	return n
}

func (o *heapEngine) bind(t timer, fn func()) timer {
	m, _ := t.(*modelTimer)
	if m == nil {
		m = &modelTimer{o: o}
	}
	m.fn, m.armed = fn, false
	m.gen++
	return m
}

// modelTimer is the naive model of a Timer: every arming schedules its own
// event, and a generation counter lets only the latest arming that was not
// stopped run the handler, at that arming's (at, seq).
type modelTimer struct {
	o     *heapEngine
	fn    func()
	gen   int
	armed bool
}

func (m *modelTimer) Reset(d Duration) { m.ResetAt(m.o.now.Add(max(d, 0))) }

func (m *modelTimer) ResetAt(at Time) {
	m.gen++
	gen := m.gen
	m.armed = true
	m.o.At(at, func() {
		m.armed = false
		m.fn()
	})
	if m.o.live == nil {
		m.o.live = make(map[uint64]func() bool)
	}
	m.o.live[m.o.seq] = func() bool { return gen == m.gen && m.armed }
}

func (m *modelTimer) Stop() { m.armed = false }

func (m *modelTimer) Armed() bool { return m.armed }

func (o *heapEngine) RunUntil(deadline Time) {
	o.stopped = false
	for o.prune(); !o.stopped && len(o.q) > 0 && o.q[0].at <= deadline; o.prune() {
		o.Step()
	}
	if o.now < deadline && (len(o.q) == 0 || o.q[0].at > deadline) {
		o.now = deadline
	}
}

const horizon = Duration(ringBuckets << bucketShift)

// delay maps two program bytes to a scheduling distance. The classes cover
// what the calendar treats differently: the firing instant itself, the same
// bucket, the near future, either side of the horizon, and far beyond it.
func delay(class, x byte) Duration {
	switch class % 6 {
	case 0:
		return 0
	case 1:
		return Duration(x) // within one bucket width
	case 2:
		return Duration(x) << bucketShift // up to 256 buckets ahead, bucket-aligned steps
	case 3:
		return horizon - Duration(x) - 1 // last buckets of the ring
	case 4:
		return horizon + Duration(x) // first instants past the ring
	default:
		return horizon*Duration(x%5+1) + Duration(x)
	}
}

// maxProgramEvents bounds what one program schedules, so that handlers
// scheduling handlers terminate.
const (
	maxProgramEvents = 4096
	programTimers    = 4
)

// runProgram interprets prog against s and returns a log of every event and
// timer handler fired (its id and the instant it observed) and of the clock,
// the timers' armed states and the pending count after every operation, and
// of the clock Run drains to. Two schedulers agree iff their logs are equal.
func runProgram(s scheduler, prog []byte) []string {
	var log []string
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	var timers [programTimers]timer
	binds := 0
	bind := func(i int) {
		binds++
		b, rearm := binds, binds%3 == 0
		timers[i] = s.bind(timers[i], func() {
			log = append(log, fmt.Sprintf("timer %d.%d @%d", i, b, s.Now()))
			// Every third binding re-arms its timer once, from its own
			// handler.
			if rearm {
				rearm = false
				timers[i].Reset(delay(byte(b), byte(b)))
			}
		})
	}
	for i := range timers {
		bind(i)
	}
	armed := func() string {
		m := 0
		for i, t := range timers {
			if t.Armed() {
				m |= 1 << i
			}
		}
		return fmt.Sprintf("armed %04b", m)
	}
	ids := 0
	var schedule func(d Duration, after bool, kids []byte)
	schedule = func(d Duration, after bool, kids []byte) {
		if ids == maxProgramEvents {
			return
		}
		ids++
		id := ids
		do := func() {
			log = append(log, fmt.Sprintf("fire %d @%d", id, s.Now()))
			// Scheduling from inside a handler: each pair of bytes left
			// to this event is one child, or one timer operation.
			for len(kids) >= 2 {
				c, x := kids[0], kids[1]
				kids = kids[2:]
				switch c % 16 {
				case 15:
					s.Stop()
				case 14:
					timers[x%programTimers].Reset(delay(c>>4, x))
				case 13:
					timers[x%programTimers].Stop()
				default:
					schedule(delay(c, x), x&1 == 0, kids)
				}
			}
		}
		if after {
			s.After(d, do)
		} else {
			s.At(s.Now().Add(d), do)
		}
	}
	for len(prog) > 0 {
		switch op := next(); op % 16 {
		case 0, 1: // one event
			schedule(delay(next(), next()), op%16 == 0, nil)
		case 2: // a burst into one bucket, enough to overflow it
			c, x := next(), next()
			for i := 0; i < bucketCap+3; i++ {
				schedule(delay(c, x)+Duration(i%3), false, nil)
			}
		case 3: // an event that schedules from inside its handler
			n := int(next()%4) * 2
			if n > len(prog) {
				n = len(prog)
			}
			kids := prog[:n]
			prog = prog[n:]
			schedule(delay(next(), next()), false, kids)
		case 4, 5:
			for i := int(next() % 8); i >= 0; i-- {
				s.Step()
			}
		case 6:
			s.RunUntil(s.Now().Add(delay(next(), next())))
		case 7:
			s.RunUntil(s.Now().Add(horizon * Duration(next()%4)))
		case 8, 12: // rebind a timer: disarmed, with a new handler
			bind(int(next() % programTimers))
		case 9, 13:
			i := int(next() % programTimers)
			timers[i].Reset(delay(next(), next()))
		case 10, 14:
			i := int(next() % programTimers)
			timers[i].ResetAt(s.Now().Add(delay(next(), next())))
		case 11, 15:
			timers[next()%programTimers].Stop()
		}
		log = append(log, fmt.Sprintf("now %d %s pending %d", s.Now(), armed(), s.Pending()))
	}
	for s.Run(); s.Pending() > 0; s.Run() { // a handler may stop a run
	}
	return append(log, fmt.Sprintf("end %d %s", s.Now(), armed()))
}

// checkProgram runs prog on the two-tier engine and on the oracle.
func checkProgram(t *testing.T, prog []byte) {
	t.Helper()
	e := New()
	got, want := runProgram(engineScheduler{e}, prog), runProgram(&heapEngine{}, prog)
	if e.Pending() != 0 {
		t.Fatalf("engine drained with Pending() = %d", e.Pending())
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("program %v: log diverges at entry %d:\n engine %v\n oracle %v", prog, i, tail(got, i), tail(want, i))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("program %v: engine logged %d entries, oracle %d", prog, len(got), len(want))
	}
}

func tail(log []string, i int) []string {
	lo, hi := max(i-3, 0), min(i+2, len(log))
	if lo > hi {
		return nil
	}
	return log[lo:hi]
}

// queueCorpus holds the shapes the calendar must get right, as programs.
var queueCorpus = [][]byte{
	// Same-instant ties split across the tiers: a burst overflows one
	// bucket into the heap, more events join the same instant afterwards.
	{2, 0, 0, 2, 0, 0, 1, 0, 0, 4, 7, 1, 0, 0, 4, 7},
	// Either side of the horizon, then a run up to and across it.
	{1, 3, 0, 1, 4, 0, 1, 3, 255, 1, 4, 255, 6, 3, 0, 6, 4, 0},
	// Only a far event: firing it moves the clock several ring lengths at
	// once, and what is scheduled next wraps around the ring's end.
	{1, 5, 200, 4, 0, 1, 3, 10, 1, 2, 250, 1, 3, 200, 1, 1, 9, 2, 3, 17, 4, 7},
	// Full buckets next to each other, drained one step at a time while
	// more arrive at the firing instant.
	{2, 1, 200, 2, 2, 1, 2, 1, 100, 4, 2, 0, 0, 0, 4, 7, 2, 0, 0, 4, 7, 4, 7},
	// Handlers scheduling at their own instant, into their own bucket, and
	// past the horizon; one of them stops the run it fires in.
	{3, 3, 0, 0, 1, 7, 4, 9, 2, 5, 3, 2, 15, 0, 2, 8, 2, 4, 1, 2, 9, 7, 2, 6, 2, 200, 7, 3},
	// RunUntil landing exactly on an event, between events, and beyond all.
	{1, 2, 4, 1, 2, 8, 6, 2, 4, 6, 2, 2, 6, 2, 1, 7, 1},
	// Timers (the third of the four initial bindings re-arms itself once):
	// timer 0 reset near, further, then past the horizon; timer 1 armed for
	// the instant of an event scheduled after it; timer 2 armed and stopped;
	// timer 3 armed and rebound. After a run, timer 2 is armed again and an
	// event's handler resets timer 1 at its own instant and stops timer 2.
	{9, 0, 2, 9, 9, 0, 2, 200, 9, 0, 4, 3, 10, 1, 2, 4, 1, 2, 4, 9, 2, 3, 5, 11, 2,
		9, 3, 1, 7, 8, 3, 4, 7, 9, 2, 2, 100, 3, 2, 14, 1, 13, 2, 2, 4, 4, 7, 4, 7},
	// Timer 2's handler re-arms it; a reset moves that arming nearer, and an
	// event's handler resets it once more, at the event's own instant.
	{9, 2, 1, 9, 4, 0, 9, 2, 2, 5, 3, 2, 14, 2, 1, 2, 2, 50, 4, 7, 7, 2},
	// Removal from a calendar slot: timer 0's arming as the slot's only
	// node, stopped; as its first node (events at 20 and 30 ns after it),
	// stopped; as its last (events at 10 and 20 ns before it), re-armed
	// within the slot; as a middle node, stopped.
	{9, 0, 1, 50, 11, 0, 4, 7},
	{9, 0, 1, 10, 1, 1, 20, 1, 1, 30, 11, 0, 4, 7},
	{1, 1, 10, 1, 1, 20, 9, 0, 1, 30, 9, 0, 1, 15, 4, 7},
	{1, 1, 10, 9, 0, 1, 20, 1, 1, 30, 11, 0, 4, 7},
	// Removal from the heap: timer 0's arming past the horizon as the
	// heap's root, stopped; as its last element, re-armed into the calendar.
	{9, 0, 4, 0, 1, 4, 10, 1, 4, 20, 11, 0, 7, 2},
	{1, 4, 0, 1, 4, 10, 9, 0, 4, 20, 9, 0, 1, 5, 7, 2},
	// An arming that spilled from a full bucket to the heap, stopped; then
	// one re-armed from the heap into the same bucket once it has room.
	{2, 1, 10, 9, 0, 1, 12, 11, 0, 4, 7, 4, 7},
	{2, 1, 10, 9, 1, 1, 11, 4, 3, 9, 1, 1, 11, 4, 7, 4, 7},
	// Armed when Bind is called: timer 0 in the calendar, timer 1 in the
	// heap; the new handlers run only when armed again.
	{9, 0, 1, 10, 9, 1, 4, 5, 8, 0, 12, 1, 7, 2, 9, 0, 1, 10, 4, 7},
}

func TestEventQueueMatchesHeap(t *testing.T) {
	for _, prog := range queueCorpus {
		checkProgram(t, prog)
	}
	r := NewRNG(12)
	for i := 0; i < 300; i++ {
		prog := make([]byte, 16+r.Intn(600))
		for j := range prog {
			prog[j] = byte(r.Uint64())
		}
		checkProgram(t, prog)
	}
}

func FuzzEventQueue(f *testing.F) {
	for _, prog := range queueCorpus {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip()
		}
		checkProgram(t, prog)
	})
}

// TestRunUntilStopKeepsClock is the regression test for RunUntil moving the
// clock to its deadline after Stop left earlier events queued: the next Run
// then stepped time backwards.
func TestRunUntilStopKeepsClock(t *testing.T) {
	e := New()
	var seen []Time
	e.At(1, func() { seen = append(seen, e.Now()); e.Stop() })
	e.At(2, func() { seen = append(seen, e.Now()) })
	e.At(3, func() { seen = append(seen, e.Now()) })
	e.RunUntil(10)
	if e.Now() != 1 {
		t.Fatalf("Now() = %v after Stop with events queued behind the deadline, want 1", e.Now())
	}
	last := e.Now()
	e.At(e.Now(), func() {})
	e.Run()
	for _, at := range append(seen, e.Now()) {
		if at < last {
			t.Fatalf("clock moved backwards: observed %v", seen)
		}
		last = at
	}
	if len(seen) != 3 || e.Now() != 3 {
		t.Fatalf("observed %v, Now() = %v; want events at 1, 2, 3", seen, e.Now())
	}

	// A Stop by the last event due still lets the clock reach the deadline.
	e = New()
	e.At(5, e.Stop)
	e.At(20, func() {})
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Fatalf("Now() = %v after Stop with nothing left before the deadline, want 10", e.Now())
	}
}

// TestEngineSeqPosition pins what FiringSeq and LastSeq report: netsim's
// link accounting decides from them whether a frame has left a queue.
func TestEngineSeqPosition(t *testing.T) {
	e := New()
	var inA, inB [2]uint64
	e.At(10, func() { inA = [2]uint64{e.FiringSeq(), e.LastSeq()} }) // seq 1
	e.At(10, func() {                                                // seq 2
		e.After(0, func() {}) // seq 4
		inB = [2]uint64{e.FiringSeq(), e.LastSeq()}
	})
	e.At(30, func() {}) // seq 3
	e.RunUntil(20)
	if inA != [2]uint64{1, 3} || inB != [2]uint64{2, 4} {
		t.Fatalf("(FiringSeq, LastSeq) inside handlers = %v, %v; want [1 3], [2 4]", inA, inB)
	}
	if e.FiringSeq() != 4 || e.LastSeq() != 4 {
		t.Fatalf("after RunUntil moved the clock: FiringSeq %d, LastSeq %d; want 4, 4", e.FiringSeq(), e.LastSeq())
	}
	e.At(30, func() {}) // seq 5
	e.Step()
	if e.FiringSeq() != 3 {
		t.Fatalf("FiringSeq() = %d between the events of one instant, want 3", e.FiringSeq())
	}
	e.RunUntil(30)
	if e.Now() != 30 || e.FiringSeq() != 5 {
		t.Fatalf("after RunUntil fired the last event due: Now %v, FiringSeq %d; want 30, 5", e.Now(), e.FiringSeq())
	}
	e.At(40, func() { e.At(40, func() {}) }) // seq 6 schedules seq 7
	e.Run()
	if e.FiringSeq() != 7 || e.LastSeq() != 7 {
		t.Fatalf("after Run drained the queue: FiringSeq %d, LastSeq %d; want 7, 7", e.FiringSeq(), e.LastSeq())
	}
}
