package mic

// This file is the MC's overload-protection layer: a token bucket on
// channel-open requests, a bounded queue with deadline-based load shedding,
// per-switch rule budgets tracked against the journal, and the graceful
// degradation ladder (F -> F-1 -> ... -> refuse). Like the rest of the
// package it is part of the determinism contract (lint:deterministic via the
// package doc): the only randomness is the clients' seeded retry jitter, and
// every queue or budget scan walks slices or sorted key sets.

import (
	"errors"
	"fmt"
	"time"

	"mic/internal/flowtable"
	"mic/internal/metrics"
	"mic/internal/netsim"
	"mic/internal/packet"
	"mic/internal/topo"
)

// ErrOverloaded is the MC's typed refusal: the request was received and
// answered, but the controller or the fabric's flow tables cannot take the
// channel right now. Clients treat it as retryable. Every refusal wraps this
// sentinel, so errors.Is(err, ErrOverloaded) classifies them all.
var ErrOverloaded = errors.New("mic: controller overloaded")

// Admission-control defaults, applied when AdmissionConfig.Enabled.
const (
	DefaultAdmitRate     = 2000.0 // channel opens per second
	DefaultAdmitBurst    = 8
	DefaultQueueLimit    = 64
	DefaultQueueDeadline = 20 * time.Millisecond
)

// minFlows is the floor of the degradation ladder: a dial is admitted with
// fewer m-flows down to this many before it is refused outright.
const minFlows = 1

// AdmissionConfig tunes the MC's overload protection. The zero value keeps
// every limiter off — the seed behaviour.
type AdmissionConfig struct {
	// Enabled turns the layer on. All other fields are ignored while false.
	Enabled bool

	// Rate is the token-bucket refill rate in channel-open requests per
	// second; Burst is its capacity. Requests beyond the bucket wait in a
	// bounded FIFO queue.
	Rate  float64
	Burst int

	// QueueLimit bounds the request queue; arrivals past it are refused
	// immediately with ErrOverloaded. QueueDeadline sheds queued requests
	// that waited longer than this — stale requests are answered with
	// ErrOverloaded, never silently dropped.
	QueueLimit    int
	QueueDeadline time.Duration

	// SwitchRuleBudget caps the m-flow rule entries the MC will intend per
	// switch. Zero derives the budget from the switch's table Capacity
	// minus its common-routing baseline (unlimited when tables are
	// unbounded).
	SwitchRuleBudget int

	// DisableDegrade refuses a dial the moment its full F does not fit
	// (ablation: no degradation ladder).
	DisableDegrade bool

	// DisableShed removes the queue bound and the deadline (ablation: the
	// queue grows without limit and requests wait forever).
	DisableShed bool

	// EvictIdle opts every switch into LRU capacity eviction of m-flow
	// rules (flowtable.EvictLRU) while this MC is active. Evicted rules
	// remain the MC's intent: a table miss on one is answered by reinstall
	// plus packet-out, so eviction costs a controller round trip, not a
	// lost flow.
	EvictIdle bool
}

func (a AdmissionConfig) withDefaults() AdmissionConfig {
	if !a.Enabled {
		return a
	}
	if a.Rate == 0 {
		a.Rate = DefaultAdmitRate
	}
	if a.Burst == 0 {
		a.Burst = DefaultAdmitBurst
	}
	if a.QueueLimit == 0 {
		a.QueueLimit = DefaultQueueLimit
	}
	if a.QueueDeadline == 0 {
		a.QueueDeadline = DefaultQueueDeadline
	}
	return a
}

// admit passes a dial through the token bucket, or parks it in the bounded
// queue, or refuses it. Exactly one of serving and refusing eventually
// happens (within this controller incarnation): the zero-silent-drop
// guarantee under overload.
func (mc *MC) admit(d *dial) {
	a := mc.Cfg.Admission
	if !a.Enabled {
		mc.serveChannel(d)
		return
	}
	mc.refillTokens()
	if len(mc.admitQueue) == 0 && mc.admitTokens >= 1 {
		mc.admitTokens--
		mc.RequestsAdmitted++
		mc.serveChannel(d)
		return
	}
	if !a.DisableShed && len(mc.admitQueue) >= a.QueueLimit {
		mc.RequestsShed++
		d.reply(requestLatency, fmt.Errorf("mic: admission queue full (%d waiting): %w", len(mc.admitQueue), ErrOverloaded))
		return
	}
	mc.admitQueue = append(mc.admitQueue, d)
	mc.RequestsQueued++
	if n := uint64(len(mc.admitQueue)); n > mc.QueuePeak {
		mc.QueuePeak = n
	}
	if !a.DisableShed {
		mc.Net.Eng.After(a.QueueDeadline, d.deadline)
	}
	mc.scheduleDrain()
}

// deadline is a queued dial's admission deadline, gated on the incarnation
// that queued it: the one its request stage ran in.
func (d *dial) deadline() {
	if d.live() {
		d.mc.shedStale(d)
	}
}

// refillTokens accrues bucket tokens for the time elapsed since the last
// accrual, capped at Burst.
func (mc *MC) refillTokens() {
	now := mc.Net.Eng.Now()
	dt := now.Sub(mc.admitLast)
	mc.admitLast = now
	if dt <= 0 {
		return
	}
	mc.admitTokens += dt.Seconds() * mc.Cfg.Admission.Rate
	if cap := float64(mc.Cfg.Admission.Burst); mc.admitTokens > cap {
		mc.admitTokens = cap
	}
}

// scheduleDrain arms the drain timer for the instant the next token accrues.
func (mc *MC) scheduleDrain() {
	if mc.drain.Armed() || len(mc.admitQueue) == 0 {
		return
	}
	need := 1 - mc.admitTokens
	if need < 0 {
		need = 0
	}
	wait := time.Duration(need / mc.Cfg.Admission.Rate * float64(time.Second))
	if wait <= 0 {
		wait = time.Microsecond
	}
	mc.drain.Reset(wait)
}

// drainQueue grants tokens to queued requests in FIFO order.
func (mc *MC) drainQueue() {
	mc.refillTokens()
	for len(mc.admitQueue) > 0 && mc.admitTokens >= 1 {
		d := mc.admitQueue[0]
		mc.admitQueue = mc.admitQueue[1:]
		if d.dequeued {
			continue
		}
		d.dequeued = true
		mc.admitTokens--
		mc.RequestsAdmitted++
		mc.serveChannel(d)
	}
	mc.scheduleDrain()
}

// shedStale answers a queued request that outlived its deadline. The request
// is refused with a typed error — the client hears back, always.
func (mc *MC) shedStale(d *dial) {
	if d.dequeued {
		return
	}
	d.dequeued = true
	for i, q := range mc.admitQueue {
		if q == d {
			copy(mc.admitQueue[i:], mc.admitQueue[i+1:])
			mc.admitQueue[len(mc.admitQueue)-1] = nil
			mc.admitQueue = mc.admitQueue[:len(mc.admitQueue)-1]
			break
		}
	}
	mc.RequestsShed++
	// The deadline fired exactly one QueueDeadline after the dial queued.
	waited := mc.Cfg.Admission.QueueDeadline
	d.reply(requestLatency, fmt.Errorf("mic: request shed after queueing %v (deadline %v): %w",
		waited, waited, ErrOverloaded))
}

// resetAdmission clears the limiter state on restart and step-down. Queued
// requests from the ended life are already disarmed (crash and stepDown stop
// the drain timer, the incarnation gate the shed deadlines) and go
// unanswered, like any request in flight to a dead process; a Cluster sends
// them to the successor.
func (mc *MC) resetAdmission() {
	mc.admitTokens = float64(mc.Cfg.Admission.Burst) // restart with a full bucket
	mc.admitLast = mc.Net.Eng.Now()
	mc.admitQueue = nil
	mc.ruleCount = make(map[topo.NodeID]int)
	mc.commonBase = make(map[topo.NodeID]int)
}

// ruleBudget returns the switch's m-flow entry budget: the configured
// SwitchRuleBudget, or table Capacity minus the common-routing baseline when
// a capacity is set. Zero means unlimited.
func (mc *MC) ruleBudget(node topo.NodeID) int {
	a := mc.Cfg.Admission
	if a.SwitchRuleBudget > 0 {
		return a.SwitchRuleBudget
	}
	tbl := mc.Net.Switch(node).Table
	if tbl.Capacity <= 0 {
		return 0
	}
	base, ok := mc.commonBase[node]
	if !ok {
		// The common baseline never changes after router install; count the
		// non-m-flow entries once and cache it.
		for _, e := range tbl.Entries() {
			if !mflowCookie(e.Cookie) {
				base++
			}
		}
		mc.commonBase[node] = base
	}
	b := tbl.Capacity - base
	if b < 0 {
		b = 0
	}
	return b
}

// flowOverBudget reports whether intending the m-flow just templated (its
// rules are in the plan scratch) would push any switch past its budget, and
// names the first such switch in templating order. Only entry-bearing records
// count: groups live in the unbounded group table.
func (mc *MC) flowOverBudget() (topo.NodeID, bool) {
	if !mc.Cfg.Admission.Enabled {
		return 0, false
	}
	delta := make(map[topo.NodeID]int)
	var order []topo.NodeID
	for _, rr := range mc.scratch.recs {
		if rr.entry == nil {
			continue
		}
		if _, seen := delta[rr.node]; !seen {
			order = append(order, rr.node)
		}
		delta[rr.node]++
	}
	for _, node := range order {
		if b := mc.ruleBudget(node); b > 0 && mc.ruleCount[node]+delta[node] > b {
			return node, true
		}
	}
	return 0, false
}

// armEviction opts every switch into MC-coordinated LRU eviction when
// EvictIdle is configured; called on activation (initial or takeover) — the
// per-switch hook has one owner, the acting controller.
// The hook only counts m-flow victims — common rules are never Evictable.
func (mc *MC) armEviction() {
	if !mc.Cfg.Admission.EvictIdle {
		return
	}
	for _, sw := range mc.Net.Switches() {
		sw.Table.Policy = flowtable.EvictLRU
		sw.Table.OnEvict = func(e *flowtable.Entry, reason flowtable.EvictReason) {
			if reason == flowtable.EvictCapacity && mflowCookie(e.Cookie) {
				mc.RulesEvicted++
			}
		}
	}
}

// reinstallOnMiss answers a table miss on an intended-but-evicted m-flow
// rule: reinstall the rule and packet-out the packet with its actions, so a
// capacity eviction costs one controller round trip instead of a lost flow.
// Returns false when no intended rule covers the packet (a genuine decoy or
// stray).
func (mc *MC) reinstallOnMiss(sw *netsim.Switch, inPort int, p *packet.Packet) bool {
	for _, id := range sortedIDSet(mc.nodeChannels[sw.ID]) {
		st, ok := mc.channels[id]
		if !ok {
			continue
		}
		for _, rr := range st.rules {
			if rr.node != sw.ID || rr.entry == nil {
				continue
			}
			if !rr.entry.Match.Covers(p, inPort) {
				continue
			}
			mc.MissReinstalls++
			if len(rr.entry.Actions) > 0 {
				mc.Ch.PacketOut(sw, rr.entry.Actions, p.Clone())
			}
			mc.Ch.FlowModResult(sw, rr.entry, nil)
			return true
		}
	}
	return false
}

// maybeRestoreDegraded runs after capacity is released (a channel close):
// the oldest degraded channel gets one m-flow back, restoring F gradually as
// pressure clears. The repair event it emits drives the existing client
// health machinery to probe and rebalance onto the new flow.
func (mc *MC) maybeRestoreDegraded() {
	a := mc.Cfg.Admission
	if !a.Enabled || a.DisableDegrade || !mc.active {
		return
	}
	for _, id := range sortedChanIDs(mc.channels) {
		st := mc.channels[id]
		if len(st.info.Flows) >= st.opts.MFlows {
			continue
		}
		if mc.upgradeChannel(st) {
			return // one flow per release event: restore gently, no stampede
		}
	}
}

// upgradeChannel tries to add one m-flow back to a degraded channel; a flow
// that finds no path or still does not fit leaves the channel as it was.
func (mc *MC) upgradeChannel(st *channelState) bool {
	detectedAt := mc.Net.Eng.Now()
	flowMods, err := mc.computeFlow(st, nil, nil)
	if err != nil {
		return false
	}
	// Clients hold a pointer to st.info: the restored flow appeared in place,
	// and the repair event below makes their streams re-probe it.
	mc.FlowsRestored++
	mc.journalChannel(RecUpdate, st)
	restored := mc.gate(func() {
		mc.emitRepair(RepairEvent{
			Channel: st.id, DetectedAt: detectedAt, CompletedAt: mc.Net.Eng.Now(), Attempts: 1,
		})
	})
	mc.Ch.InstallAllResult(flowMods, func(int) { restored() })
	return true
}

// Telemetry returns the MC's admission/overload counters in fixed
// registration order, so rendered output is byte-stable across runs.
func (mc *MC) Telemetry() *metrics.Counters { return telemetry([]*MC{mc}) }

// telemetry sums the admission/overload counters over mcs — one standalone
// MC, or every cluster member — in fixed registration order.
func telemetry(mcs []*MC) *metrics.Counters {
	c := metrics.NewCounters()
	for _, ctr := range []struct {
		name string
		get  func(*MC) uint64
	}{
		{"dials_admitted", func(mc *MC) uint64 { return mc.RequestsAdmitted }},
		{"dials_queued", func(mc *MC) uint64 { return mc.RequestsQueued }},
		{"dials_shed", func(mc *MC) uint64 { return mc.RequestsShed }},
		{"queue_peak", func(mc *MC) uint64 { return mc.QueuePeak }},
		{"channels_degraded", func(mc *MC) uint64 { return mc.ChannelsDegraded }},
		{"channels_refused", func(mc *MC) uint64 { return mc.ChannelsRefused }},
		{"flows_restored", func(mc *MC) uint64 { return mc.FlowsRestored }},
		{"mflow_rules_evicted", func(mc *MC) uint64 { return mc.RulesEvicted }},
		{"miss_reinstalls", func(mc *MC) uint64 { return mc.MissReinstalls }},
		{"table_full_replies", func(mc *MC) uint64 { return mc.Ch.TableFulls }},
		{"path_cache_hits", func(mc *MC) uint64 { return mc.PathCacheHits }},
		{"path_cache_misses", func(mc *MC) uint64 { return mc.PathCacheMisses }},
		{"sb_batches", func(mc *MC) uint64 { return mc.Ch.Batches }},
		{"sb_batched_mods", func(mc *MC) uint64 { return mc.Ch.BatchedMods }},
	} {
		var sum uint64
		for _, mc := range mcs {
			sum += ctr.get(mc)
		}
		c.Set(ctr.name, sum)
	}
	return c
}
