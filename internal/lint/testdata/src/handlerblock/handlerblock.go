// Package handlerblock is a miclint test fixture: blocking operations
// reachable from event-handler registrations, non-blocking patterns, and a
// reviewed suppression. The Engine/Host types mirror the simulator's
// registration surface by method name.
package handlerblock

import "sync"

type Engine struct{}

func (e *Engine) At(t int, do func())    {}
func (e *Engine) After(d int, do func()) {}

type Host struct{}

// Timer mirrors sim.Timer: its handler is registered once, by Bind, and
// every later Reset schedules it.
type Timer struct{}

func (t *Timer) Bind(e *Engine, fn func()) {}
func (t *Timer) Reset(d int)               {}

func (h *Host) SetHandler(fn func(port int)) {}

func direct(e *Engine, ch chan int, wg *sync.WaitGroup) {
	e.After(5, func() {
		ch <- 1 // want `channel send can block`
	})
	e.After(5, func() {
		<-ch // want `channel receive can block`
	})
	e.After(5, func() {
		wg.Wait() // want `sync.WaitGroup.Wait blocks`
	})
	e.After(5, func() {
		select { // want `select without a default case`
		case v := <-ch:
			_ = v
		}
	})
}

// nonBlocking is exempt: select with a default case never parks.
func nonBlocking(e *Engine, ch chan int) {
	e.After(5, func() {
		select {
		case v := <-ch:
			_ = v
		default:
		}
	})
}

var done chan int

// helper blocks; it is flagged because register passes it to At.
func helper() {
	done <- 1 // want `channel send can block`
}

func register(e *Engine) {
	e.At(3, helper)
}

// onPacket: a host's packet handler is a root like an engine callback.
func onPacket(h *Host, ch chan int) {
	h.SetHandler(func(port int) {
		ch <- port // want `channel send can block`
	})
}

// suppressed carries a reviewed lint:ignore.
func suppressed(e *Engine, ch chan int) {
	e.After(1, func() {
		// lint:ignore handlerblock channel is buffered to the worst-case burst size
		ch <- 2
	})
}

// unregistered is exempt: the function is never installed as a handler.
func unregistered(ch chan int) {
	ch <- 9
}

// record is a pooled event record: its callback is bound once, when the
// record is made, and every later registration passes the field.
type record struct {
	fn   func()
	done chan int
}

type recordPool struct {
	free []*record
}

func (rp *recordPool) schedule(e *Engine, done chan int) {
	var r *record
	if n := len(rp.free); n > 0 {
		r, rp.free = rp.free[n-1], rp.free[:n-1]
	} else {
		r = &record{}
		r.fn = r.fire
	}
	r.done = done
	e.At(7, r.fn)
}

// fire is a handler only through record.fn; so is what it calls.
func (r *record) fire() {
	r.finish()
}

func (r *record) finish() {
	r.done <- 1 // want `channel send can block`
}

// literalRecord binds the callback in a composite literal.
func literalRecord(e *Engine, ch chan int) {
	r := &record{fn: func() {
		<-ch // want `channel receive can block`
	}}
	e.After(1, r.fn)
}

// unscheduled is exempt: the field is assigned but never registered.
type unscheduled struct {
	cb func()
}

func (u *unscheduled) bind(ch chan int) {
	u.cb = func() { ch <- 3 }
}

// delivery is a pooled record with three callbacks, bound together in one
// assignment and registered from different steps of the record's own life:
// the first send registers arrival and timer, arrival registers the
// acknowledgement, the timer registers the next attempt.
type delivery struct {
	arriveFn, ackFn, timeoutFn func()

	done     chan int
	resolved bool
	wg       *sync.WaitGroup
}

func newDelivery(done chan int, wg *sync.WaitGroup) *delivery {
	m := &delivery{done: done, wg: wg}
	m.arriveFn, m.ackFn, m.timeoutFn = m.arrive, m.ack, m.timeout
	return m
}

func (m *delivery) try(e *Engine) {
	e.After(1, m.arriveFn)
	e.After(4, m.timeoutFn)
}

func (m *delivery) arrive() {
	var e Engine
	e.After(1, m.ackFn)
}

// ack is a handler only through delivery.ackFn, itself registered only from
// another handler; so is what it calls.
func (m *delivery) ack() {
	m.resolved = true
	m.complete()
}

func (m *delivery) complete() {
	m.done <- 1 // want `channel send can block`
}

func (m *delivery) timeout() {
	if m.resolved {
		return
	}
	m.wg.Wait() // want `sync.WaitGroup.Wait blocks`
	var e Engine
	m.try(&e)
}

// conn owns a timer embedded by value, bound once to a method; the method
// is a handler although no At or After names it.
type conn struct {
	rto  Timer
	acks chan int
}

func newConn(e *Engine) *conn {
	c := &conn{acks: make(chan int)}
	c.rto.Bind(e, c.onTimeout)
	return c
}

func (c *conn) onTimeout() {
	<-c.acks // want `channel receive can block`
	c.rto.Reset(10)
}

// timerLiteral binds a function literal.
func timerLiteral(e *Engine, t *Timer, ch chan int) {
	t.Bind(e, func() {
		<-ch // want `channel receive can block`
	})
}
