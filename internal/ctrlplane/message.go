package ctrlplane

import (
	"slices"
	"time"

	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// msgKind names what a reliable southbound message asks of the switch.
type msgKind uint8

const (
	msgInstall msgKind = iota // one install's mods of one cookie addressed to one switch
	msgDelete
	msgBarrier
	msgHello
	msgDump
)

// msg is one reliable southbound message: what to apply at the switch, the
// retransmission state, what the switch answered and whom to tell — held in
// one pooled record per message instead of a tree of closures per attempt.
//
// newMsg takes a record from the channel's free list; a barrier whose
// predecessors are still in flight, or a message held behind its owner's,
// waits in its switch's waiters list until the last of those resolves and
// resolve sends it. Each attempt schedules its arrival and arms the ack
// timer, and the arrival schedules the acknowledgement. Every timer wait
// exceeds one round trip (ackTimeout, maxBackoff), so an attempt's arrival
// and acknowledgement have fired by the time its timer is due: the timer is
// the only event that can still name the record once it resolves. The
// record therefore returns to the free list as soon as it resolves
// (acknowledged or abandoned) or is silenced by Channel.Down, its timer
// stopped, which takes the pending arming out of the engine's queue.
// arrive and ack are bound as method values, and the timer to timeout, once,
// when the record is first made.
type msg struct {
	ch              *Channel
	arriveFn, ackFn func()
	timer           sim.Timer // the attempt's ack timeout
	msgState
}

// msgState is what one use of a msg record carries; release zeroes it and
// leaves the bound parts above in place.
type msgState struct {
	kind msgKind
	sw   *netsim.Switch

	// Payload, by kind.
	cookie uint64 // of the rules carried, or deleted (msgDelete); 0 for none
	mods   []Mod  // msgInstall: the caller's mods from the message's first on; those addressed to sw with cookie apply
	nmods  int    // msgInstall: entries and groups carried

	// What the switch did, recorded on arrival and classified on completion
	// (retransmits re-run apply and would double-count otherwise).
	applied bool                // msgInstall: the first arrival applied everything
	stale   bool                // refused for a stale fencing epoch
	n       int                 // msgDelete: entries removed, -1 until a pass lands; msgInstall: entries refused
	entries []*flowtable.Entry  // msgDump
	groups  []flowtable.GroupID // msgDump

	// Delivery state. seq is the message's place in its switch's issue order
	// (a barrier's, in send order). A waiting barrier has not been sent: until
	// it is, seq is the place it waits behind and pending counts the messages
	// up to there that are unresolved; a held message counts in pending those
	// it waits for.
	seq     uint64
	attempt int
	backoff time.Duration
	reqLost bool  // this attempt's request-direction loss draw
	ackLost bool  // this attempt's acknowledgement-direction loss draw
	pending int32 // waiting in waiters only

	// Completion: at most one is set.
	onOK    func(ok bool)
	onCount func(node topo.NodeID, removed int)
	onDump  func(entries []*flowtable.Entry, groups []flowtable.GroupID, ok bool)
	inst    *install // msgInstall, and a msgBarrier closing a switch of a fenced install
}

// install is the completion state one install's messages share: each
// message adds its failed mods, and the install's closing messages — its
// barriers if fenced, else its install messages — count down; the last one
// reports.
type install struct {
	fenced    bool // InstallBatched: each switch is closed by a barrier
	remaining int  // closing messages still out
	failed    int
	onAll     func(failed int)
}

func (c *Channel) newInstall(onAll func(failed int), fenced bool) *install {
	var in *install
	if last := len(c.instFree) - 1; last >= 0 {
		in = c.instFree[last]
		c.instFree = c.instFree[:last]
	} else {
		in = new(install)
	}
	in.onAll, in.fenced = onAll, fenced
	return in
}

// installDone counts one of the install's closing messages; the last returns
// the record to the free list and reports.
func (c *Channel) installDone(in *install) {
	in.remaining--
	if in.remaining > 0 {
		return
	}
	onAll, failed := in.onAll, in.failed
	*in = install{}
	c.instFree = append(c.instFree, in)
	if onAll != nil {
		onAll(failed)
	}
}

// newMsg takes a record from the free list, or makes one and binds its steps.
func (c *Channel) newMsg(kind msgKind, sw *netsim.Switch) *msg {
	var m *msg
	if last := len(c.msgFree) - 1; last >= 0 {
		m = c.msgFree[last]
		c.msgFree = c.msgFree[:last]
	} else {
		m = &msg{ch: c}
		m.arriveFn, m.ackFn = m.arrive, m.ack
		m.timer.Bind(c.Eng, m.timeout)
	}
	m.kind, m.sw = kind, sw
	return m
}

// release returns m, its timer disarmed, to the free list. The record stays
// bound.
func (c *Channel) release(m *msg) {
	m.msgState = msgState{}
	c.msgFree = append(c.msgFree, m)
}

// issue takes m's place in its switch's order and sends it, or, if it
// carries rules of an owner, holds it back while an earlier message to the
// switch that it must apply after is unresolved (ordered).
func (c *Channel) issue(m *msg) {
	s := &c.sw[m.sw.ID]
	s.inflight++
	s.seq++
	m.seq = s.seq
	if cookieOwner(m.cookie) == 0 {
		m.send()
		return
	}
	for _, u := range s.owned {
		if ordered(u.cookie, u.del, m) {
			m.pending++
		}
	}
	for _, w := range s.waiters {
		if ordered(w.cookie, w.kind == msgDelete, m) {
			m.pending++
		}
	}
	if m.pending > 0 {
		s.waiters = append(s.waiters, m)
		return
	}
	s.owned = append(s.owned, ownedMsg{m.seq, m.cookie, m.kind == msgDelete})
	m.send()
}

// barrier sends m now if nothing issued to its switch is unresolved.
// Otherwise it parks m behind exactly the messages unresolved at this instant
// — those with sequence numbers up to the last one issued — and nothing
// issued afterwards can hold it back.
func (c *Channel) barrier(m *msg) {
	c.Barriers++
	s := &c.sw[m.sw.ID]
	if s.inflight == 0 {
		c.issue(m)
		return
	}
	m.seq, m.pending = s.seq, int32(s.inflight)
	s.waiters = append(s.waiters, m)
}

// resolve closes m's transaction with its switch and sends the waiters whose
// last predecessor it was.
func (c *Channel) resolve(m *msg, ok bool) {
	s := &c.sw[m.sw.ID]
	s.inflight--
	if ok {
		c.Acked++
	} else {
		c.GiveUps++
		s.failed++
	}
	if cookieOwner(m.cookie) != 0 {
		i := slices.IndexFunc(s.owned, func(u ownedMsg) bool { return u.seq == m.seq })
		s.owned[i] = s.owned[len(s.owned)-1]
		s.owned = s.owned[:len(s.owned)-1]
	}
	// A barrier counted m if it waits behind m's place. A held message
	// counted m if it must apply after m: m was issued first, since a held
	// message m had to apply after would still hold m back too.
	for _, w := range s.waiters {
		if w.kind == msgBarrier && w.seq >= m.seq || ordered(m.cookie, m.kind == msgDelete, w) {
			w.pending--
		}
	}
	// Sending changes no count (a message sent here is counted until it
	// resolves) and only schedules events, so nothing joins the waiters.
	n := 0
	for _, w := range s.waiters {
		switch {
		case w.pending > 0:
			s.waiters[n] = w
			n++
		case w.kind == msgBarrier:
			c.issue(w)
		default:
			s.owned = append(s.owned, ownedMsg{w.seq, w.cookie, w.kind == msgDelete})
			w.send()
		}
	}
	clear(s.waiters[n:])
	s.waiters = s.waiters[:n]
}

// ordered reports whether b, issued to a switch after a message carrying
// rules of cookie (a delete if del), must apply after it: they carry rules of
// one owner and are neither both deletes nor both installs of one cookie.
func ordered(cookie uint64, del bool, b *msg) bool {
	if o := cookieOwner(cookie); o == 0 || o != cookieOwner(b.cookie) {
		return false
	}
	return del != (b.kind == msgDelete) || !del && cookie != b.cookie
}

// send reliably delivers m: applied switch-side (idempotently) on every
// arrival, completed with true after an acknowledgement returns or with false
// when the retry budget is exhausted.
func (m *msg) send() {
	m.backoff = m.ch.ackTimeout()
	m.try()
}

func (m *msg) try() {
	c := m.ch
	// A crashed controller sends nothing more and hears nothing back: the
	// message loop goes silent without resolving, exactly as a process
	// kill would leave a TCP transaction dangling.
	if c.Down {
		c.release(m)
		return
	}
	m.attempt++
	if m.attempt > 1 {
		c.Retransmits++
	}
	m.reqLost = c.lost()
	c.Eng.After(c.Latency, m.arriveFn)
	wait := min(m.backoff, c.maxBackoff())
	m.backoff *= 2
	m.timer.Reset(wait)
}

func (m *msg) arrive() {
	c := m.ch
	// A dead switch neither applies nor acknowledges: the message
	// vanishes exactly like a loss, which is what makes the liveness
	// prober and the give-up path necessary. A management-network
	// partition black-holes the direction it cuts the same way.
	if m.reqLost || m.sw.Down || !c.reaches(c.home(), netsim.MgmtSwitch(m.sw.ID)) {
		return
	}
	m.apply()
	m.ackLost = c.lost()
	c.Eng.After(c.Latency, m.ackFn)
}

func (m *msg) ack() {
	c := m.ch
	if m.ackLost || c.Down || !c.reaches(netsim.MgmtSwitch(m.sw.ID), c.home()) {
		return
	}
	m.timer.Stop()
	c.resolve(m, true)
	m.complete(true)
	c.release(m)
}

func (m *msg) timeout() {
	c := m.ch
	if c.Down {
		c.release(m)
		return
	}
	c.Timeouts++
	if m.attempt < c.attempts() {
		m.try()
		return
	}
	c.resolve(m, false)
	m.complete(false)
	c.release(m)
}

// apply is the message's effect at the switch.
func (m *msg) apply() {
	c, sw := m.ch, m.sw
	if m.kind == msgDump {
		m.entries = append(m.entries[:0], sw.Table.Entries()...)
		m.groups = sw.Table.GroupIDs()
		return
	}
	// Retransmitted installs are duplicates of an already-applied message
	// (the first arrival applied everything); re-applying would double-count
	// table refusals.
	if m.kind == msgInstall {
		if m.applied {
			return
		}
		m.applied = true
	}
	if !sw.AcceptFenced(c.Epoch) {
		m.stale = true // one refusal marks the message for good
		return
	}
	switch m.kind {
	case msgDelete:
		removed := sw.Table.DeleteByCookie(m.cookie)
		// Retransmitted deletes find nothing; report the first pass's count.
		if m.n < 0 {
			m.n = removed
		}
	case msgInstall:
		for _, mod := range m.mods {
			if mod.Switch != sw || mod.Entry.Cookie != m.cookie {
				continue
			}
			if mod.Group != nil {
				sw.Table.SetGroup(mod.Group)
			}
			if err := sw.Table.TryInsert(mod.Entry, c.Eng.Now()); err != nil {
				m.n++
				c.TableFulls++
			}
		}
	}
}

// complete classifies the outcome and tells the sender. ok is false when the
// message was abandoned unacknowledged; an answered refusal (stale epoch,
// table full) arrives with ok true and is downgraded here.
func (m *msg) complete(ok bool) {
	c := m.ch
	switch m.kind {
	case msgDelete:
		if m.stale {
			c.StaleRejects++
		}
		if m.onCount == nil {
			return
		}
		if !ok || m.stale {
			m.onCount(m.sw.ID, -1)
			return
		}
		m.onCount(m.sw.ID, m.n)
	case msgDump:
		if m.onDump != nil {
			m.onDump(m.entries, m.groups, ok)
		}
	case msgInstall:
		switch {
		case m.stale:
			c.StaleRejects++
			m.inst.failed += m.nmods
		case !ok:
			m.inst.failed += m.nmods
		default:
			m.inst.failed += m.n
		}
		if !m.inst.fenced {
			c.installDone(m.inst)
		}
	default: // msgBarrier, msgHello
		if m.stale {
			c.StaleRejects++
			ok = false
		}
		switch {
		case m.inst != nil:
			c.installDone(m.inst)
		case m.onOK != nil:
			m.onOK(ok)
		}
	}
}
