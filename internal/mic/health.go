package mic

import (
	"encoding/binary"
	"time"

	"mic/internal/chunk"
	"mic/internal/ring"
	"mic/internal/sim"
)

// This file is the stream's degraded-mode data plane: per-m-flow health
// monitoring, slice retransmission over surviving m-flows, and dynamic
// rebalancing of the slicing weights. It is the endpoint twin of the MC's
// self-healing layer (heal.go): the MC repairs *paths*, this layer keeps
// *bytes* flowing while paths are sick and unwedges reassembly when a
// repair lands. The paper's multiple-m-flows mechanism (Sec IV-C) only
// protects anonymity if traffic keeps moving when individual m-flows
// degrade — a stalled slice must never wedge the stream.

// FlowState classifies one m-flow's health as seen by this endpoint.
type FlowState int

// Flow health states. Healthy flows carry full slicing weight; Degraded
// flows are mostly avoided; Dead flows get nothing until they answer a
// probe again; Closed flows had their transport connection torn down.
const (
	FlowHealthy FlowState = iota
	FlowDegraded
	FlowDead
	FlowClosed
)

// String names the flow state.
func (s FlowState) String() string {
	switch s {
	case FlowHealthy:
		return "healthy"
	case FlowDegraded:
		return "degraded"
	case FlowDead:
		return "dead"
	case FlowClosed:
		return "closed"
	}
	return "unknown"
}

// Slicing weights per state. Degraded keeps a trickle flowing so recovery
// is observable without probes; Dead and Closed get nothing.
const (
	weightHealthy  = 100
	weightDegraded = 5
)

// The health machinery's timing, calibrated for the simulated fabric (µs
// RTTs, ms-scale transport RTOs and MC repairs). No caller varies it.
const (
	// healthInterval is the watchdog tick. Each tick classifies flows,
	// probes quiet ones and retransmits overdue slices.
	healthInterval = 2 * time.Millisecond

	// degradedAfter and deadAfter are the silence thresholds (time since
	// the flow last delivered an ack, probe-ack or data) that demote a flow
	// to degraded / dead. degradedAfter doubles as the penalty window a
	// flow stays degraded after causing a slice retransmission — the
	// high-loss signal for flows that are lossy but never fully silent.
	degradedAfter = 10 * time.Millisecond
	deadAfter     = 40 * time.Millisecond

	// retransmitAfter is the age at which an unacknowledged slice is re-sent
	// over the healthiest other m-flow. Scaled up automatically to 4x the
	// slowest healthy flow's SRTT when that is larger, and doubled per
	// retransmission of the same slice.
	retransmitAfter = 12 * time.Millisecond

	// windowSlices caps the unacknowledged slices in flight per m-flow.
	// Send queues the excess and releases it as acks arrive, so one large
	// write cannot flood the transport buffers — a slice's age then
	// measures wire time rather than queue depth, keeping retransmitAfter
	// meaningful, and the backlog is assigned to flows at release time so
	// rebalancing applies to queued bytes too. Sized so F flows' combined
	// windows drain well inside retransmitAfter. It does not let one flow
	// alone sustain line rate on the simulated 1 Gbps fabric under the ~1ms
	// stream ack clock: fig 9a's F = 1 transfer is window-bound at ~5 %
	// below TCP, and lifting the window to 1024 closes that gap but slows
	// bulk8_mic, where 8 flows contend (EXPERIMENTS, ROADMAP item 14).
	windowSlices = 256
)

// HealthConfig is the one switch on the per-m-flow health machinery; the
// zero value enables it.
type HealthConfig struct {
	// Disabled turns off the active machinery — monitoring, probing, slice
	// retransmission and rebalancing — reverting Send to uniform flow picks.
	// Receive-side duties (acking slices, answering probes) stay on, so a
	// disabled endpoint never blinds its peer. Ablation knob.
	Disabled bool
}

// FlowHealth is a read-only snapshot of one m-flow's health, for tests,
// harnesses and micsim.
type FlowHealth struct {
	State       FlowState
	SRTT        time.Duration // smoothed probe RTT (0 until first sample)
	Weight      int           // current slicing weight
	SlicesOut   int64         // slices first-sent on this flow
	SlicesAcked int64         // slices the peer reports received on this flow
	Retx        int64         // slices retransmitted away from this flow
}

// flowHealth is the live per-m-flow state.
type flowHealth struct {
	state     FlowState
	srtt      time.Duration
	lastHeard sim.Time            // last ack / probe-ack / data on this conn
	probes    map[uint32]sim.Time // outstanding probe id -> sent time
	acked     int64               // peer-reported slices received on this conn
	retx      int64               // slices retransmitted away from this flow

	// suspectUntil holds the flow at degraded while it keeps failing to
	// deliver slices in time. A lossy-but-chatty flow never goes silent, so
	// silence alone cannot demote it; every overdue slice it was
	// responsible for extends this penalty window instead.
	suspectUntil sim.Time
}

// outSlice tracks one sent-but-unacked slice for retransmission.
type outSlice struct {
	frame  chunk.Span // full wire frame (header + padded body): resend verbatim
	flow   int        // flow currently responsible for delivering it
	sentAt sim.Time
	retx   int
}

// healthMonitor owns the active machinery of one stream endpoint.
type healthMonitor struct {
	s *Stream

	flows []flowHealth
	// out is the outstanding set: slices are numbered and released in order,
	// so it is one consecutive run of sequence numbers, retired from the
	// front by the cumulative ack and walked in sequence order by the watchdog.
	out  ring.Ring[outSlice]
	sent []int64 // slices (first-tx + retx) transmitted per conn
	// sendQ holds the sliced frames waiting for window room as runs: frames
	// carved one after another from one chunk are one entry. queued counts
	// the frames.
	sendQ  ring.Ring[chunk.Span]
	queued int

	nextProbe uint32
	probation int // extra ticks to keep running after a repair notification

	timer sim.Timer // the watchdog, bound once

	// Retransmits counts slices re-sent over another m-flow.
	Retransmits int64
}

func newHealthMonitor(s *Stream) *healthMonitor {
	m := &healthMonitor{
		s:     s,
		flows: make([]flowHealth, len(s.conns)),
		sent:  make([]int64, len(s.conns)),
	}
	m.timer.Bind(s.eng, m.tick)
	now := s.eng.Now()
	for i := range m.flows {
		m.flows[i].lastHeard = now
		m.flows[i].probes = make(map[uint32]sim.Time)
	}
	return m
}

// Health snapshots every m-flow's state. With the machinery disabled it
// reports all open flows as healthy.
func (s *Stream) Health() []FlowHealth {
	out := make([]FlowHealth, len(s.conns))
	for i := range out {
		out[i] = FlowHealth{State: FlowHealthy, Weight: weightHealthy, SlicesOut: s.SlicesOut[i]}
		if s.connClosed[i] {
			out[i].State = FlowClosed
			out[i].Weight = 0
		}
	}
	if s.health == nil {
		return out
	}
	for i := range out {
		f := &s.health.flows[i]
		out[i].State = f.state
		out[i].SRTT = f.srtt
		out[i].Weight = s.health.weight(i)
		out[i].SlicesAcked = f.acked
		out[i].Retx = f.retx
	}
	return out
}

// Retransmits reports how many slices were re-sent over another m-flow.
func (s *Stream) Retransmits() int64 {
	if s.health == nil {
		return 0
	}
	return s.health.Retransmits
}

// weight returns flow i's current slicing weight.
func (m *healthMonitor) weight(i int) int {
	if m.s.connClosed[i] {
		return 0
	}
	switch m.flows[i].state {
	case FlowHealthy:
		return weightHealthy
	case FlowDegraded:
		return weightDegraded
	}
	return 0
}

// bestEffortFlow returns the open flow heard from most recently, excluding
// `not` when any alternative exists.
func (m *healthMonitor) bestEffortFlow(not int) int {
	best := -1
	for i := range m.flows {
		if m.s.connClosed[i] || i == not {
			continue
		}
		if best < 0 || m.flows[i].lastHeard > m.flows[best].lastHeard {
			best = i
		}
	}
	if best < 0 {
		if not >= 0 && !m.s.connClosed[not] {
			return not
		}
		return 0 // everything closed; the send becomes a no-op downstream
	}
	return best
}

// enqueue admits one freshly sliced frame to the send path: transmitted
// immediately if some m-flow has window room, queued until acks open a
// window otherwise.
func (m *healthMonitor) enqueue(frame chunk.Span) {
	if k := m.sendQ.Len(); k == 0 || !joinRun(m.sendQ.At(k-1), frame) {
		m.sendQ.Push(frame)
	}
	m.queued++
	m.pump()
	m.arm()
}

// pump transmits queued slices while window room lasts. Each slice is
// assigned to an m-flow at release time, not at Send time, so the choice
// reflects current health — rebalancing moves the queued backlog away
// from a flow the moment it turns sick, not just future writes. A frame
// split off the front run takes one of the run's references along.
func (m *healthMonitor) pump() {
	for m.sendQ.Len() > 0 {
		flow := m.pickWindowedFlow()
		if flow < 0 {
			return
		}
		run := m.sendQ.At(0)
		frame := *run
		if k := frameLen(frame.Bytes()); k < frame.N {
			frame.N = k
			run.Off, run.N = run.Off+k, run.N-k
		} else {
			m.sendQ.Pop()
		}
		m.queued--
		m.s.SlicesOut[flow]++
		m.out.Push(outSlice{frame: frame, flow: flow, sentAt: m.s.eng.Now()})
		m.sent[flow]++
		m.s.conns[flow].SendSpan(frame)
	}
}

// windowRoom reports whether flow i may carry another slice. In-flight is
// estimated per conn — slices transmitted minus slices the peer reports
// received on that conn — NOT from the cumulative ack: one slice crawling
// over a sick flow must not freeze the healthy flows' windows behind the
// shared in-order delivery point (head-of-line blocking across m-flows).
func (m *healthMonitor) windowRoom(i int) bool {
	return m.sent[i]-m.flows[i].acked < windowSlices
}

// pickWindowedFlow selects the m-flow for the next queued slice: a
// weighted draw among flows with window room, the best-effort flow when
// every weighted one is sick or full, and -1 (wait for acks, probes or
// repair) when even that flow has no room.
func (m *healthMonitor) pickWindowedFlow() int {
	total := 0
	for i := range m.flows {
		if m.windowRoom(i) {
			total += m.weight(i)
		}
	}
	if total > 0 {
		n := m.s.rng.Intn(total)
		for i := range m.flows {
			if !m.windowRoom(i) {
				continue
			}
			n -= m.weight(i)
			if n < 0 {
				return i
			}
		}
	}
	best := m.bestEffortFlow(-1)
	if m.s.connClosed[best] || !m.windowRoom(best) {
		return -1
	}
	return best
}

// onHeard marks flow i alive right now. An ack or probe-ack instantly
// restores a degraded or dead flow to healthy — recovery is one round
// trip, not one watchdog cycle — unless the flow is still inside its
// retransmission penalty window (chatty but lossy).
func (m *healthMonitor) onHeard(i int) {
	f := &m.flows[i]
	now := m.s.eng.Now()
	f.lastHeard = now
	if (f.state == FlowDegraded || f.state == FlowDead) && now >= f.suspectUntil {
		f.state = FlowHealthy
	}
}

// onAck processes a cumulative ack that arrived on flow i.
func (m *healthMonitor) onAck(i int, cumAck uint32, connRecv int64) {
	m.onHeard(i)
	m.flows[i].acked = connRecv
	for m.out.Len() > 0 && seqLT32(binary.BigEndian.Uint32(m.out.At(0).frame.Bytes()), cumAck) {
		m.out.Pop().frame.C.Release()
	}
	m.pump()
}

// onProbeAck closes the RTT sample for a returned probe.
func (m *healthMonitor) onProbeAck(i int, id uint32) {
	f := &m.flows[i]
	sentAt, ok := f.probes[id]
	if !ok {
		m.onHeard(i)
		return
	}
	delete(f.probes, id)
	sample := time.Duration(m.s.eng.Now() - sentAt)
	if f.srtt == 0 {
		f.srtt = sample
	} else {
		f.srtt = (7*f.srtt + sample) / 8
	}
	m.onHeard(i)
	m.pump() // a revived flow may have window room for the backlog
}

// probe sends a probe on flow i unless its connection is closed.
func (m *healthMonitor) probe(i int) {
	if m.s.connClosed[i] {
		return
	}
	m.nextProbe++
	id := m.nextProbe
	m.flows[i].probes[id] = m.s.eng.Now()
	m.s.sendCtl(i, ctlProbe, id, 0)
}

// onRepair reacts to an MC repair notification for this stream's channel:
// probe every flow immediately (the repaired path answers within one RTT)
// and keep the watchdog alive for a probation window so sick flows are
// re-classified promptly.
func (m *healthMonitor) onRepair() {
	if m.s.closed || m.s.failed != nil {
		return
	}
	for i := range m.flows {
		m.probe(i)
	}
	m.probation = 5
	m.arm()
}

// arm schedules the next watchdog tick if one is not already pending.
func (m *healthMonitor) arm() {
	if m.timer.Armed() || m.s.closed || m.s.failed != nil {
		return
	}
	m.timer.Reset(healthInterval)
}

// disarm stops the watchdog and drops the queued backlog and the
// outstanding set, releasing each frame's reference: nothing re-sends a
// slice from now on (the conns still deliver what they hold), and a late
// ack finds nothing to retire. Only terminal paths (Close, fail) call it,
// and arm refuses from then on.
func (m *healthMonitor) disarm() {
	m.timer.Stop()
	for m.out.Len() > 0 {
		m.out.Pop().frame.C.Release()
	}
	for m.sendQ.Len() > 0 {
		run := m.sendQ.Pop()
		// One reference per frame; a frame's length is read before its
		// reference goes, which may be the chunk's last.
		for b := run.Bytes(); len(b) > 0; {
			b = b[frameLen(b):]
			run.C.Release()
		}
	}
	m.queued = 0
}

// tick is the stream-level watchdog: classify flows, probe quiet ones,
// retransmit overdue slices, and re-arm while there is anything to watch.
// When the stream goes idle (nothing outstanding, no probation) the timer
// stops, so a finished transfer never keeps the engine alive.
func (m *healthMonitor) tick() {
	now := m.s.eng.Now()

	for i := range m.flows {
		f := &m.flows[i]
		if m.s.connClosed[i] {
			f.state = FlowClosed
			continue
		}
		// Expire probes nobody will answer; the silence shows in lastHeard.
		for id, at := range f.probes {
			if time.Duration(now-at) > deadAfter {
				delete(f.probes, id)
			}
		}
		switch silence := time.Duration(now - f.lastHeard); {
		case silence > deadAfter:
			f.state = FlowDead
		case silence > degradedAfter:
			if f.state != FlowDead {
				f.state = FlowDegraded
			}
		}
		if f.state == FlowHealthy && now < f.suspectUntil {
			f.state = FlowDegraded
		}
		// Probe any flow we have not heard from within one tick, so silence
		// is measurable even on flows carrying no data (and dead flows are
		// re-detected as alive the moment the path is repaired).
		if time.Duration(now-f.lastHeard) >= healthInterval && len(f.probes) < 3 {
			m.probe(i)
		}
	}

	m.retransmitOverdue(now)
	m.pump()

	if m.probation > 0 {
		m.probation--
	}
	if m.out.Len() > 0 || m.sendQ.Len() > 0 || m.probation > 0 {
		m.arm()
	}
}

// retxTimeout is the slice retransmission age threshold: the retransmitAfter
// floor, stretched when even healthy flows are slow.
func (m *healthMonitor) retxTimeout() time.Duration {
	d := retransmitAfter
	for i := range m.flows {
		if m.flows[i].state == FlowHealthy && 4*m.flows[i].srtt > d {
			d = 4 * m.flows[i].srtt
		}
	}
	return d
}

// retransmitOverdue re-sends, in sequence order, every outstanding slice
// older than the retransmission timeout over the healthiest *other* m-flow
// (each resend may demote a flow and so steer the next pick). The original
// copy may still arrive later (transport never drops data); the receiver's
// sequence-number dedup makes that harmless.
func (m *healthMonitor) retransmitOverdue(now sim.Time) {
	timeout := m.retxTimeout()
	for i := 0; i < m.out.Len(); i++ {
		o := m.out.At(i)
		// Exponential backoff per slice: a copy may still be crawling in
		// over a sick-but-alive flow, and re-sending it every timeout
		// would turn one bad link into a self-inflicted traffic storm.
		wait := timeout
		for r := 0; r < o.retx && r < 6; r++ {
			wait *= 2
		}
		if time.Duration(now-o.sentAt) < wait {
			continue
		}
		from := o.flow
		to := m.pickOtherFlow(from)
		m.flows[from].retx++
		m.flows[from].suspectUntil = now.Add(degradedAfter)
		if m.flows[from].state == FlowHealthy {
			m.flows[from].state = FlowDegraded
		}
		m.Retransmits++
		m.sent[to]++
		o.flow = to
		o.sentAt = now
		o.retx++
		m.s.SlicesRetx++
		m.s.conns[to].SendSpan(o.frame)
	}
}

// pickOtherFlow picks the best flow excluding `not`: weighted among healthy
// and degraded flows, best-effort otherwise. With F=1 it returns the only
// flow — retransmission then rides the same connection, which still helps
// when the loss happened above transport (never here) and is harmless.
func (m *healthMonitor) pickOtherFlow(not int) int {
	total := 0
	for i := range m.flows {
		if i != not {
			total += m.weight(i)
		}
	}
	if total == 0 {
		return m.bestEffortFlow(not)
	}
	n := m.s.rng.Intn(total)
	for i := range m.flows {
		if i == not {
			continue
		}
		n -= m.weight(i)
		if n < 0 {
			return i
		}
	}
	return m.bestEffortFlow(not)
}

// seqLT32 reports a < b in 32-bit sequence space.
func seqLT32(a, b uint32) bool { return int32(b-a) > 0 }
