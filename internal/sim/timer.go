package sim

// Timer is a re-armable one-shot timer, embedded by value in its owner and
// bound once to an engine and a handler. Arming it schedules one event, which
// takes exactly the (at, seq) place that an At call would and runs the
// handler directly. Re-arming or stopping it removes the pending arming from
// the queue, so a superseded or cancelled wait is never popped: it costs no
// event, and Processed and Pending do not count it. The one trace it leaves
// is the clock Run ends on (see Run). Neither arming nor binding allocates.
//
// A Timer must not be copied once bound: the queue refers to it while it is
// armed. go vet's copylocks check reports copies.
type Timer struct {
	_   noCopy
	eng *Engine
	fn  func()
	pos int // the pending arming's place: a calendar node (> 0), ^ its heap index (< 0), or 0 when none
}

// noCopy makes go vet's copylocks check report a copied Timer.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Bind attaches t to engine e and handler fn, disarmed: a pending arming is
// removed, so it never runs either handler.
func (t *Timer) Bind(e *Engine, fn func()) {
	t.Stop()
	t.eng, t.fn = e, fn
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
	t.Stop()
	t.eng.schedule(event{at: at, do: t.fn, t: t})
}

// Stop cancels the pending arming, if any, removing it from the queue.
func (t *Timer) Stop() {
	if t.pos != 0 {
		t.eng.cancel(t)
	}
}

// Armed reports whether an arming is pending. It is false inside the handler
// until the handler re-arms.
func (t *Timer) Armed() bool { return t.pos != 0 }
