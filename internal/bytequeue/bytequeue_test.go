package bytequeue

import (
	"bytes"
	"testing"
)

// contents returns the live bytes in order.
func contents(q *Queue) []byte {
	a, b := q.Spans(0, q.Len())
	return append(append([]byte(nil), a...), b...)
}

func TestFIFOOrder(t *testing.T) {
	var q Queue
	q.Append([]byte("hello "))
	q.Append([]byte("world"))
	if got := string(contents(&q)); got != "hello world" {
		t.Fatalf("contents = %q", got)
	}
	q.PopFront(6)
	if got := string(q.Front(5)); got != "world" {
		t.Fatalf("after PopFront: %q", got)
	}
	q.Append([]byte("!"))
	if got := string(contents(&q)); got != "world!" {
		t.Fatalf("after Append: %q", got)
	}
	q.PopFront(q.Len())
	if q.Len() != 0 {
		t.Fatalf("Len() = %d after draining", q.Len())
	}
}

// TestPopFrontOutOfRangePanics: PopFront, and the two accessors, refuse a
// range beyond the live bytes.
func TestPopFrontOutOfRangePanics(t *testing.T) {
	for name, f := range map[string]func(q *Queue){
		"PopFront": func(q *Queue) { q.PopFront(3) },
		"Spans":    func(q *Queue) { q.Spans(1, 2) },
		"Front":    func(q *Queue) { q.Front(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s past the live bytes did not panic", name)
				}
			}()
			var q Queue
			q.Append([]byte("ab"))
			f(&q)
		}()
	}
}

// TestSteadyStateAllocFree is the point of the package: pushing a bounded
// window through the queue must not allocate once capacity has been
// established, even though consumption happens at the front — and, being a
// ring, must not move the window either: the storage stays put.
func TestSteadyStateAllocFree(t *testing.T) {
	var q Queue
	chunk := bytes.Repeat([]byte{0xAB}, 1460)
	// Establish capacity for the in-flight window.
	for i := 0; i < 8; i++ {
		q.Append(chunk)
	}
	store := &q.buf[0]
	allocs := testing.AllocsPerRun(1000, func() {
		q.PopFront(len(chunk))
		q.Append(chunk)
		q.Spans(q.Len()-len(chunk), len(chunk))
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append/PopFront allocated %v times, want 0", allocs)
	}
	if &q.buf[0] != store {
		t.Fatal("the ring's storage was replaced in steady state")
	}
}

// TestLargeAppendFitsExactly: one write that outgrows doubling gets storage
// of its own size, not the next power of two — a 4 MiB Send on a fresh conn
// must cost 4 MiB.
func TestLargeAppendFitsExactly(t *testing.T) {
	var q Queue
	q.Append(make([]byte, 10))
	q.Append(make([]byte, 4<<20))
	if got, want := len(q.buf), 10+4<<20; got != want {
		t.Fatalf("storage %d bytes after a 4 MiB append, want %d", got, want)
	}
}

// TestWrapPreservesContent drives the queue through many append/consume
// cycles with odd sizes so the live bytes wrap at unaligned offsets,
// checking the byte stream survives intact through Spans and Front.
func TestWrapPreservesContent(t *testing.T) {
	var q Queue
	next := byte(0) // next value to push
	want := byte(0) // next value expected at the front
	push := func(n int) {
		b := make([]byte, n)
		for i := range b {
			b[i] = next
			next++
		}
		q.Append(b)
	}
	pop := func(n int, front bool) {
		a, b := q.Spans(0, n)
		if front {
			a, b = q.Front(n), nil
		}
		for i, c := range append(append([]byte(nil), a...), b...) {
			if c != want {
				t.Fatalf("byte %d: got %d, want %d", i, c, want)
			}
			want++
		}
		q.PopFront(n)
	}
	push(100)
	wrapped := 0
	for i := 0; i < 500; i++ {
		if _, b := q.Spans(0, 37); len(b) > 0 {
			wrapped++
		}
		pop(37, i%3 == 0)
		push(41)
	}
	if wrapped == 0 {
		t.Fatal("the live bytes never wrapped; the test exercises nothing")
	}
	pop(q.Len(), false)
}

// FuzzQueue checks the ring against a plain []byte model: after every step
// the two spans concatenated are the model, and Front is its prefix.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 10, 1, 4, 0, 9, 2, 7, 1, 15})
	f.Add([]byte{0, 200, 1, 150, 0, 120, 2, 170, 0, 255, 1, 255, 2, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		var q Queue
		var model []byte
		v := byte(0)
		for ; len(script) >= 2; script = script[2:] {
			op, n := script[0]%3, int(script[1])
			switch op {
			case 0:
				b := make([]byte, n)
				for i := range b {
					b[i] = v
					v++
				}
				q.Append(b)
				model = append(model, b...)
			case 1:
				n = min(n, len(model))
				q.PopFront(n)
				model = model[n:]
			case 2:
				n = min(n, len(model))
				if got := q.Front(n); !bytes.Equal(got, model[:n]) {
					t.Fatalf("Front(%d) = %v, model %v", n, got, model[:n])
				}
			}
			if q.Len() != len(model) || !bytes.Equal(contents(&q), model) {
				t.Fatalf("after op %d/%d: queue %v, model %v", op, n, contents(&q), model)
			}
			if off := len(model) / 3; off > 0 {
				a, b := q.Spans(off, len(model)-off)
				if got := append(append([]byte(nil), a...), b...); !bytes.Equal(got, model[off:]) {
					t.Fatalf("Spans(%d, %d) = %v, model %v", off, len(model)-off, got, model[off:])
				}
			}
		}
	})
}
