package ring

import "testing"

// TestFIFOAcrossWrapAndGrowth pushes and pops so the front wraps round the
// ring before it grows, and checks order, the sizes it grows through, and
// that a popped slot is zeroed.
func TestFIFOAcrossWrapAndGrowth(t *testing.T) {
	var q Ring[*int]
	vals := make([]int, 40)
	next, want := 0, 0
	push := func(k int) {
		for range k {
			vals[next] = next
			q.Push(&vals[next])
			next++
		}
	}
	pop := func(k int) {
		for range k {
			if got := *q.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	push(3)
	pop(2) // head at 2 of 4
	push(3)
	if len(q.buf) != MinSize || q.Len() != 4 {
		t.Fatalf("ring of %d slots holds %d, want %d slots full", len(q.buf), q.Len(), MinSize)
	}
	push(1) // full: grows while the front is wrapped
	if len(q.buf) != 2*MinSize {
		t.Fatalf("grew to %d slots, want %d", len(q.buf), 2*MinSize)
	}
	for i := range q.Len() {
		if got := **q.At(i); got != want+i {
			t.Fatalf("entry %d = %d after growth, want %d", i, got, want+i)
		}
	}
	push(20)
	pop(q.Len())
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds %d after every pop", i, *p)
		}
	}
	if next != want {
		t.Fatalf("pushed %d, popped %d", next, want)
	}
}

// TestSteadyStateAllocFree checks a ring that cycles below its size
// allocates nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	var q Ring[int]
	for i := range MinSize {
		q.Push(i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		q.Push(q.Pop())
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per push/pop, want 0", allocs)
	}
}
