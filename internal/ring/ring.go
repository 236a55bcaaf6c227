// Package ring is a FIFO queue on a power-of-two ring: it starts at
// MinSize slots and doubles when a push finds it full, so a bounded window
// cycles through one array and no entry is moved but to grow. Entries are
// indexed from the front, and popping zeroes the slot, so a ring of spans
// or pointers keeps nothing alive past its entries.
package ring

// Ring is a FIFO queue; the zero value is empty and ready to use.
type Ring[T any] struct {
	buf     []T // entry i is buf[(head+i)&(len(buf)-1)], i < n
	head, n int
}

// MinSize is a ring's first size: a queue that holds a few entries at a
// time never grows it.
const MinSize = 4

// Len returns the number of entries.
func (q *Ring[T]) Len() int { return q.n }

// At returns entry i, counted from the front; i must be below Len.
func (q *Ring[T]) At(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// Push appends v at the back.
func (q *Ring[T]) Push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(2*len(q.buf), MinSize))
		for i := range q.n {
			buf[i] = *q.At(i)
		}
		q.buf, q.head = buf, 0
	}
	*q.At(q.n) = v
	q.n++
}

// Pop removes the front entry and returns it; the ring must not be empty.
func (q *Ring[T]) Pop() T {
	f := q.At(0)
	v := *f
	var zero T
	*f = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
