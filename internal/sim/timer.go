package sim

// Timer is a re-armable one-shot timer, embedded by value in its owner and
// bound once to an engine and a handler. Arming it schedules an ordinary
// event through At, so every arming takes exactly the (at, seq) place that
// an At call would. The timer remembers the sequence number of its latest
// arming, and the bound fire function runs the handler only when the event
// firing is that arming: an earlier arming, superseded by a Reset or
// cancelled by Stop, still pops at its instant, as a no-op. Nothing is
// removed from the queue, so a Timer schedules exactly the events that one
// closure per arming, checked against a generation counter, would; unlike
// those closures, re-arming allocates nothing.
//
// A bound Timer must not be copied: its fire function refers to it.
type Timer struct {
	eng  *Engine
	fn   func()
	fire func() // t.run, bound once
	seq  uint64 // the live arming's sequence number; 0 when none is pending
}

// Bind attaches t to engine e and handler fn, disarmed. It is the timer's
// only allocation: bind once, when the owner is made.
func (t *Timer) Bind(e *Engine, fn func()) {
	t.eng, t.fn, t.seq = e, fn, 0
	t.fire = t.run
}

// Reset arms t to fire d from now, superseding any pending arming. Negative
// d is clamped to zero, as After does.
func (t *Timer) Reset(d Duration) {
	if d < 0 {
		d = 0
	}
	t.ResetAt(t.eng.now.Add(d))
}

// ResetAt arms t to fire at instant at, superseding any pending arming.
func (t *Timer) ResetAt(at Time) {
	t.eng.At(at, t.fire)
	t.seq = t.eng.LastSeq()
}

// Stop cancels the pending arming, if any; its event fires as a no-op.
func (t *Timer) Stop() { t.seq = 0 }

// Armed reports whether an arming is pending that will run the handler.
// It is false inside the handler until the handler re-arms.
func (t *Timer) Armed() bool { return t.seq != 0 }

func (t *Timer) run() {
	if t.seq != t.eng.FiringSeq() {
		return
	}
	t.seq = 0
	t.fn()
}
