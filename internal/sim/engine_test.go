package sim

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: got[%d] = %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.After(7*Nanosecond, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 63 {
		t.Fatalf("Now() = %d, want 63", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	fired := 0
	for i := Time(10); i <= 100; i += 10 {
		e.At(i, func() { fired++ })
	}
	e.RunUntil(50)
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", e.Now())
	}
	e.RunUntil(200)
	if fired != 10 {
		t.Fatalf("fired = %d, want 10", fired)
	}
	if e.Now() != 200 {
		t.Fatalf("Now() = %v after drain, want 200", e.Now())
	}
}

func TestEngineRunUntilDoesNotOvershoot(t *testing.T) {
	e := New()
	ran := false
	e.At(100, func() { ran = true })
	e.RunUntil(99)
	if ran {
		t.Fatal("event after deadline fired")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

func TestEngineStop(t *testing.T) {
	e := New()
	fired := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() {
			fired++
			if fired == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	e.Run() // resumes
	if fired != 10 {
		t.Fatalf("fired after resume = %d, want 10", fired)
	}
}

func TestEngineNegativeAfterClamped(t *testing.T) {
	e := New()
	e.At(10, func() {
		e.After(-5, func() {})
	})
	e.Run() // must not panic
}

func TestEngineProcessed(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 5 {
		t.Fatalf("Processed() = %d, want 5", e.Processed())
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(0).Add(3 * time.Second)
	if tm != 3e9 {
		t.Fatalf("Add = %d", tm)
	}
	if tm.Sub(Time(1e9)) != 2*time.Second {
		t.Fatalf("Sub = %v", tm.Sub(Time(1e9)))
	}
	if tm.Seconds() != 3 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/1000", same)
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	root := NewRNG(7)
	s1 := root.Stream("alpha")
	root2 := NewRNG(7)
	s2 := root2.Stream("alpha")
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatal("same-label streams diverged")
		}
	}
	s3 := NewRNG(7).Stream("beta")
	s4 := NewRNG(7).Stream("alpha")
	if s3.Uint64() == s4.Uint64() {
		t.Fatal("distinct labels produced identical first draw")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPick(t *testing.T) {
	r := NewRNG(9)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(r, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick never chose some elements: %v", seen)
	}
}

// TestTimerResetAllocsNothing: once bound, a timer is armed, re-armed,
// stopped and fired without allocating, in the calendar and in the heap.
func TestTimerResetAllocsNothing(t *testing.T) {
	e := New()
	var tm Timer
	fired := 0
	tm.Bind(e, func() { fired++ })
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(5 * time.Millisecond) // past the calendar's horizon
		tm.Reset(time.Microsecond)     // supersedes it
		tm.ResetAt(e.Now().Add(2 * time.Microsecond))
		tm.Stop()
		tm.Reset(3 * time.Microsecond)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("a timer's arm/re-arm/stop/fire cycle allocates %v times, want 0", allocs)
	}
	if fired != 1001 || tm.Armed() {
		t.Fatalf("handler ran %d times over 1001 cycles, Armed() = %v; want one run per cycle, disarmed", fired, tm.Armed())
	}
}

// TestTimerBindAllocsNothing: binding, and rebinding, a timer allocates
// nothing; the handler is the caller's.
func TestTimerBindAllocsNothing(t *testing.T) {
	e := New()
	var tm Timer
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Bind(e, fn)
		tm.Reset(time.Microsecond)
		tm.Bind(e, fn)
	})
	if allocs != 0 {
		t.Fatalf("Bind allocates %v times, want 0", allocs)
	}
}

// TestBindRemovesPendingArming: rebinding an armed timer takes its arming out
// of the queue, in either tier, so neither the old handler nor the new one
// runs at the old instant.
func TestBindRemovesPendingArming(t *testing.T) {
	for _, d := range []Duration{time.Microsecond, 5 * time.Millisecond} { // calendar, heap
		e := New()
		var tm Timer
		var ran []string
		tm.Bind(e, func() { ran = append(ran, "old") })
		tm.Reset(d)
		e.At(Time(2*d), func() {})
		if e.Pending() != 2 {
			t.Fatalf("armed at %v: Pending() = %d, want 2", d, e.Pending())
		}
		tm.Bind(e, func() { ran = append(ran, "new") })
		if tm.Armed() || e.Pending() != 1 {
			t.Fatalf("rebound at %v: Armed() = %v, Pending() = %d; want false, 1", d, tm.Armed(), e.Pending())
		}
		e.Run()
		if len(ran) != 0 || e.Processed() != 1 {
			t.Fatalf("rebound at %v: handlers ran %v, %d events fired; want none, 1", d, ran, e.Processed())
		}
	}
}

// TestRunEndsWhereCancelledArmingWouldFire: cancelled armings never fire,
// yet Run drains to the instant the last of them was due, as it did when a
// cancelled arming still popped as a no-op; RunUntil's deadline rule is
// unchanged.
func TestRunEndsWhereCancelledArmingWouldFire(t *testing.T) {
	e := New()
	var near, far Timer
	fired := 0
	near.Bind(e, func() { fired++ })
	far.Bind(e, func() { fired++ })
	near.Reset(100 * time.Microsecond)
	far.Reset(5 * time.Millisecond) // past the calendar's horizon
	e.At(10, func() {})
	e.At(20, func() { near.Stop(); far.Reset(3 * time.Millisecond) })
	e.At(30, func() { far.Stop() })
	e.RunUntil(Time(time.Millisecond))
	if e.Now() != Time(time.Millisecond) || e.Pending() != 0 {
		t.Fatalf("RunUntil(1ms): Now() = %v, Pending() = %d; want 1ms, 0", e.Now(), e.Pending())
	}
	e.Run()
	if want := Time(5 * time.Millisecond); e.Now() != want || e.FiringSeq() != e.LastSeq() {
		t.Fatalf("Run drained to %v (FiringSeq %d, LastSeq %d), want %v, where the last cancelled arming was due", e.Now(), e.FiringSeq(), e.LastSeq(), want)
	}
	if fired != 0 || e.Processed() != 3 {
		t.Fatalf("handlers ran %d times, %d events fired; want 0, 3: cancelled armings are not events", fired, e.Processed())
	}
	e.At(e.Now().Add(time.Microsecond), func() {})
	e.Run()
	if e.Now() != Time(5*time.Millisecond+time.Microsecond) {
		t.Fatalf("next Run ended at %v, want 5.001ms", e.Now())
	}
}

// TestHeapRemoveKeepsOrder removes timer armings from the heap alone at
// random positions, root and last included, and checks that every timer
// knows where its arming is and that the rest pops in (at, seq) order.
func TestHeapRemoveKeepsOrder(t *testing.T) {
	r := NewRNG(3)
	for round := 0; round < 200; round++ {
		var q eventQueue
		timers := make([]Timer, 1+r.Intn(40))
		for i := range timers {
			q.push(event{at: Time(r.Intn(20)), seq: uint64(i + 1), t: &timers[i]})
		}
		for _, i := range r.Perm(len(timers))[:r.Intn(len(timers)+1)] {
			q.remove(^timers[i].pos)
			timers[i].pos = 0
			for j := range q {
				if q[j].t.pos != ^j {
					t.Fatalf("round %d: the arming at heap index %d records %d", round, j, q[j].t.pos)
				}
			}
		}
		var last *event
		for len(q) > 0 {
			ev := q.pop()
			if last != nil && ev.before(last) {
				t.Fatalf("round %d: popped (%v, %d) after (%v, %d)", round, ev.at, ev.seq, last.at, last.seq)
			}
			last = &ev
		}
	}
}

// TestNewEngineFootprint: what an engine allocates up front is its
// calendar's index, and what it allocates later follows the pending count,
// not the ring's size.
func TestNewEngineFootprint(t *testing.T) {
	if size := unsafe.Sizeof(calendar{}); size > 32<<10 {
		t.Fatalf("calendar is %d bytes, want at most 32 KiB", size)
	}
	nop := func() {}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := New()
	for i := 0; i < 10_000; i++ {
		e.After(Duration(i%8)*time.Microsecond, nop)
		if e.Pending() == 8 {
			e.Step()
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("New plus 10k At/Step cycles at <= 8 pending allocated %d bytes, want at most 64 KiB", got)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < 1000 {
				e.After(Nanosecond, tick)
			}
		}
		e.After(0, tick)
		e.Run()
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// Stop makes Run and RunUntil return after the currently firing event.
func (e *Engine) Stop() { e.stopped = true }
