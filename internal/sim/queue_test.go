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
	RunUntil(Time)
	Stop()
}

// heapEngine is the oracle: the scheduling rules of Engine over the 4-ary
// heap alone, with no calendar in front.
type heapEngine struct {
	now     Time
	q       eventQueue
	seq     uint64
	stopped bool
}

func (o *heapEngine) Now() Time { return o.now }

func (o *heapEngine) At(t Time, do func()) {
	if t < o.now {
		panic("oracle: scheduling in the past")
	}
	o.seq++
	o.q.push(event{at: t, seq: o.seq, do: do})
}

func (o *heapEngine) After(d Duration, do func()) { o.At(o.now.Add(d), do) }

func (o *heapEngine) Stop() { o.stopped = true }

func (o *heapEngine) Step() bool {
	if len(o.q) == 0 {
		return false
	}
	ev := o.q.pop()
	o.now = ev.at
	ev.do()
	return true
}

func (o *heapEngine) RunUntil(deadline Time) {
	o.stopped = false
	for !o.stopped && len(o.q) > 0 && o.q[0].at <= deadline {
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
const maxProgramEvents = 4096

// runProgram interprets prog against s and returns a log of every event
// fired (its id and the instant it observed) and of the clock after every
// operation. Two schedulers agree iff their logs are equal.
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
			// to this event is one child.
			for len(kids) >= 2 {
				c, x := kids[0], kids[1]
				kids = kids[2:]
				if c%16 == 15 {
					s.Stop()
					continue
				}
				schedule(delay(c, x), x&1 == 0, kids)
			}
		}
		if after {
			s.After(d, do)
		} else {
			s.At(s.Now().Add(d), do)
		}
	}
	for len(prog) > 0 {
		switch op := next(); op % 8 {
		case 0, 1: // one event
			schedule(delay(next(), next()), op%8 == 0, nil)
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
		}
		log = append(log, fmt.Sprintf("now %d", s.Now()))
	}
	for s.Step() {
	}
	return append(log, fmt.Sprintf("end %d", s.Now()))
}

// checkProgram runs prog on the two-tier engine and on the oracle.
func checkProgram(t *testing.T, prog []byte) {
	t.Helper()
	e := New()
	got, want := runProgram(e, prog), runProgram(&heapEngine{}, prog)
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
