package mic

import (
	"slices"
	"time"

	"mic/internal/ctrlplane"
	"mic/internal/sim"
	"mic/internal/topo"
)

// This file is the MC's self-healing layer: it turns fabric failure events
// (port-status, switch-liveness, prober verdicts) into automatic channel
// repairs with bounded retries, so the paper's "global network view"
// actually closes the loop — no test or operator ever calls RepairChannel
// by hand.

// RepairEvent describes one completed self-healing job.
type RepairEvent struct {
	Channel     uint64
	DetectedAt  sim.Time // when the triggering failure event fired
	CompletedAt sim.Time // when the repair resolved (success or terminal)
	Attempts    int
	Err         error // nil on success; the terminal error otherwise
	// Down reports that the terminal failure closed the channel: no live
	// path was left after every retry, so the channel's streams fail. A
	// channel closed while its last attempt ran ends with Err set and Down
	// false.
	Down bool
}

// repairJob serializes self-healing per channel.
type repairJob struct {
	detectedAt sim.Time
	attempts   int
	dirty      bool // another failure hit this channel mid-repair
}

// failLink schedules repair for every channel routed over the failed link.
func (mc *MC) failLink(lk linkKey) {
	for _, id := range sortedIDSet(mc.linkChannels[mc.linkIndex(lk)]) {
		mc.scheduleRepair(id)
	}
}

// failNode schedules repair for every channel whose path crosses the failed
// switch.
func (mc *MC) failNode(node topo.NodeID) {
	for _, id := range sortedIDSet(mc.nodeChannels[node]) {
		mc.scheduleRepair(id)
	}
}

// sortedIDSet returns a copy of set in ascending order. Repair jobs run
// serialized in schedule order, and each consumes RNG draws while
// re-routing — scheduling them in the sets' arbitrary order would make the
// recovery trace depend on which channels happened to close earlier.
func sortedIDSet(set []uint64) []uint64 {
	ids := slices.Clone(set)
	slices.Sort(ids)
	return ids
}

// scheduleRepair starts (or re-flags) the self-healing job for a channel.
// Events arrive synchronously at failure time; the MC reacts one control
// latency later, modeling the notification's trip over the southbound
// channel.
func (mc *MC) scheduleRepair(id uint64) {
	if _, live := mc.channels[id]; !live {
		return
	}
	if job, running := mc.repairJobs[id]; running {
		job.dirty = true
		return
	}
	job := &repairJob{detectedAt: mc.Net.Eng.Now()}
	mc.repairJobs[id] = job
	mc.Net.Eng.After(ctrlplane.Latency, mc.gate(func() { mc.runRepair(id, job) }))
}

func (mc *MC) repairMaxRetries() int {
	switch {
	case mc.Cfg.RepairMaxRetries < 0:
		return 0
	case mc.Cfg.RepairMaxRetries == 0:
		return DefaultRepairMaxRetries
	}
	return mc.Cfg.RepairMaxRetries
}

func (mc *MC) repairBackoff(attempt int) time.Duration {
	base := mc.Cfg.RepairBackoff
	if base <= 0 {
		base = DefaultRepairBackoff
	}
	d := base << (attempt - 1)
	if limit := 16 * base; d > limit {
		d = limit
	}
	return d
}

// runRepair performs one repair attempt and decides what happens next:
// settle on success, retry with backoff on failure, re-verify when another
// failure landed mid-repair, and declare the channel dead to its endpoints
// when the retry budget is spent.
func (mc *MC) runRepair(id uint64, job *repairJob) {
	st, live := mc.channels[id]
	if !live {
		delete(mc.repairJobs, id)
		return
	}
	// A flap may have restored the fabric before we got here; if every flow
	// still routes over live elements there is nothing to repair.
	job.dirty = false
	if mc.channelAlive(st) {
		mc.settleRepair(id, job, nil)
		return
	}
	job.attempts++
	mc.RepairChannel(id, gated(mc, func(err error) {
		if job.dirty {
			// Another failure hit mid-repair (possibly on the path we just
			// installed). Re-verify immediately: the next runRepair picks a
			// path disjoint from everything currently dead.
			mc.Net.Eng.After(0, mc.gate(func() { mc.runRepair(id, job) }))
			return
		}
		if err == nil {
			mc.settleRepair(id, job, nil)
			return
		}
		if job.attempts > mc.repairMaxRetries() {
			mc.settleRepair(id, job, err)
			return
		}
		mc.Net.Eng.After(mc.repairBackoff(job.attempts), mc.gate(func() { mc.runRepair(id, job) }))
	}))
}

// settleRepair finishes a job. A terminal error tears the channel down and
// surfaces the failure to the endpoints (RepairEvent.Down) — the promised
// behaviour: errors only when no route exists, never silent black holes.
func (mc *MC) settleRepair(id uint64, job *repairJob, err error) {
	delete(mc.repairJobs, id)
	ev := RepairEvent{
		Channel:     id,
		DetectedAt:  job.detectedAt,
		CompletedAt: mc.Net.Eng.Now(),
		Attempts:    job.attempts,
		Err:         err,
	}
	if err == nil {
		mc.Repairs++
	} else {
		mc.RepairFailures++
		if _, live := mc.channels[id]; live {
			// lint:ignore errdrop the channel is terminally unrepairable; the close error is subsumed by the Down event below
			_ = mc.CloseChannel(id, nil)
			ev.Down = true
		}
	}
	mc.emitRepair(ev)
}

// channelAlive reports whether every m-flow of the channel currently routes
// over live links and switches only.
func (mc *MC) channelAlive(st *channelState) bool {
	for _, f := range st.info.Flows {
		if !mc.pathAlive(f.Path) {
			return false
		}
	}
	return true
}
