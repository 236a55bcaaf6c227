package mic

import (
	"slices"

	"mic/internal/addr"
)

// This file is the MC's durability layer: a journal of every externally
// visible mutation, compacted by periodic snapshots, from which a promoted
// standby rebuilds the full MC state by replay (failover.go). The journal
// is in-sim — records are structured values, not serialized bytes — but each
// record carries exactly the fields a wire encoding would need, and replay
// touches no RNG, no clock and no map-iteration order, so a rebuild is
// deterministic and byte-equivalent to the state it mirrors.

// RecordKind classifies one journal record.
type RecordKind int

// Journal record kinds.
const (
	// RecHidden registers a hidden-service name.
	RecHidden RecordKind = iota
	// RecOpen establishes a channel. The record is the channel's facts: who,
	// with what options, at which rule epoch, and per flow its durable
	// resources, its path and its intended rules.
	RecOpen
	// RecUpdate restates a live channel's facts after a repair (new epoch,
	// generation, paths and rules) or a flow restored to a degraded channel
	// (one more flow); it replaces what the channel's last record said.
	RecUpdate
	// RecClose tears a channel down, releasing everything it held.
	RecClose
)

// String names the record kind.
func (k RecordKind) String() string {
	switch k {
	case RecHidden:
		return "hidden"
	case RecOpen:
		return "open"
	case RecUpdate:
		return "update"
	case RecClose:
		return "close"
	}
	return "unknown"
}

// Record is one journal entry. Kind decides which fields are meaningful —
// the same single-struct shape chaos.Fault uses, chosen over per-kind types
// so the log is one flat, easily compacted slice.
type Record struct {
	Seq  uint64
	Kind RecordKind

	// Fence is the mastership fencing epoch of the controller that wrote
	// the record (Cluster.fence at append time; 0 for standalone MCs and
	// the first active life). The journal tracks the highest fence seen:
	// a record carrying a lower fence was raced in by a deposed master
	// that never noticed losing its lease — a zombie write.
	Fence uint64

	// Fenced marks a zombie write detected at append time when the journal
	// runs with Fencing enabled. Fenced records stay in the log as evidence
	// but are invisible to Records(), so replay rebuilds state as if the
	// zombie had never written.
	Fenced bool

	// RecHidden. The journal is the one sanctioned path by which real
	// addresses reach another controller: a successor must rebuild the
	// hidden map and the real endpoint pair to serve repairs and closes
	// after takeover. The fields are secret-marked so the taint analysis
	// still flags any journal consumer that formats or emits them.
	Name string
	// lint:secret
	IP addr.IP

	// Channel records. RecClose names the Channel only; RecOpen and RecUpdate
	// carry all of its facts, the request that opened it (Req) among them.
	// FlowIDs (forward, reverse per flow), Entries and Finals are the wire
	// form of the per-flow resources, parallel to Flows.
	Channel uint64
	Req     uint64
	// lint:secret
	Initiator addr.IP
	// lint:secret
	Responder addr.IP
	Opts      ChannelOptions
	Epoch     uint32
	Gen       uint32
	FlowIDs   []uint32
	Entries   []addr.IP
	Finals    []addr.IP
	Flows     []FlowInfo
	Rules     []ruleRec

	// Allocator bookkeeping at append time: the flow-ID high-water mark and
	// the group-ID counter. Replay restores counters from the journaled
	// maxima rather than re-simulating allocations, because failed setups
	// allocate and release without journaling (see idAllocator.restore).
	AllocNext uint32
	NextGroup uint32
}

// DefaultSnapshotEvery is the journal compaction threshold: after this many
// tail records a snapshot folds the log down to one record per live fact.
const DefaultSnapshotEvery = 64

// Journal is the MC mutation log. The active controller appends; a promoted
// standby rebuilds its state by replaying Records once (MC.restore).
// The log self-compacts: every SnapshotEvery appends it folds closed
// channels and superseded updates away, keeping one record per live fact
// (plus counter high-waters kept separately), so its size tracks live
// state, not history.
type Journal struct {
	// SnapshotEvery overrides the compaction threshold (0 = default).
	SnapshotEvery int

	// Fencing makes Append discard (mark Fenced) any record whose Fence is
	// below the journal's high-water mark. The Cluster enables it unless
	// the fencing ablation is on; either way Divergent counts the stale
	// appends, so the s11 experiment can measure zombie-write divergence
	// with enforcement on and off.
	Fencing bool

	// Divergent counts records that arrived carrying a stale fence — writes
	// a deposed master raced in after a newer master's first append. The
	// fenced-mastership acceptance bar is zero.
	Divergent uint64

	fenceHigh uint64 // highest Fence seen on any append

	base []Record // compacted snapshot: one record per live fact
	tail []Record // records since the last snapshot
	seq  uint64

	// Counter high-waters, which a restore moves its counters past.
	allocHigh uint32 // highest journaled AllocNext
	groupHigh uint32 // highest journaled NextGroup
	chanHigh  uint64 // highest opened channel ID + 1

	// Appends and Snapshots count journal activity for reports.
	Appends   uint64
	Snapshots uint64
}

// NewJournal returns an empty journal with default compaction.
func NewJournal() *Journal { return &Journal{} }

// RaiseFence records a newly elected master's fencing epoch. The cluster
// calls it at promotion — before the new life's first append — so a deposed
// master's write is recognized as divergent no matter how the two lives'
// appends interleave. Like Append's detection, it runs with Fencing on or
// off: the ablation must still be able to count the zombie writes it lets
// through.
func (j *Journal) RaiseFence(epoch uint64) {
	if epoch > j.fenceHigh {
		j.fenceHigh = epoch
	}
}

func (j *Journal) snapshotEvery() int {
	if j.SnapshotEvery > 0 {
		return j.SnapshotEvery
	}
	return DefaultSnapshotEvery
}

// Append assigns the record its sequence number, logs it, and compacts when
// the tail is long enough.
func (j *Journal) Append(r Record) {
	j.seq++
	r.Seq = j.seq
	j.Appends++
	// Fence accounting happens at append time, not replay time: the
	// compacted base is not fence-ordered, so a replay-side running-max
	// scan would misclassify legitimate records. Here the interleaving is
	// the real one, and a stale fence is a zombie write by definition.
	if r.Fence < j.fenceHigh {
		j.Divergent++
		if j.Fencing {
			r.Fenced = true
			j.tail = append(j.tail, r)
			return // discarded: no high-waters, no replay
		}
	} else if r.Fence > j.fenceHigh {
		j.fenceHigh = r.Fence
	}
	switch r.Kind {
	case RecOpen, RecUpdate:
		// RecUpdate carries AllocNext too: a degraded-channel upgrade
		// allocates fresh flow IDs without a RecOpen.
		if r.Kind == RecOpen {
			j.chanHigh = max(j.chanHigh, r.Channel+1)
		}
		j.allocHigh = max(j.allocHigh, r.AllocNext)
	}
	j.groupHigh = max(j.groupHigh, r.NextGroup)
	j.tail = append(j.tail, r)
	if len(j.tail) >= j.snapshotEvery() {
		j.compact()
	}
}

// Records returns the full current log: snapshot base then tail, in replay
// order, with Fenced (zombie) records filtered out. Replaying them against
// an empty MC rebuilds its state.
func (j *Journal) Records() []Record {
	out := make([]Record, 0, len(j.base)+len(j.tail))
	for _, r := range j.base {
		if !r.Fenced {
			out = append(out, r)
		}
	}
	for _, r := range j.tail {
		if !r.Fenced {
			out = append(out, r)
		}
	}
	return out
}

// Len reports the current log length (after compaction).
func (j *Journal) Len() int { return len(j.base) + len(j.tail) }

// compact folds the log down to one record per live fact: hidden services in
// registration order, then live channels in open order, each as its latest
// update restates it. Closed channels vanish; the counter high-waters survive
// in the journal's own fields. Purely positional over the existing slices —
// no map iteration — so the compacted log is deterministic.
func (j *Journal) compact() {
	j.Snapshots++
	all := j.Records()
	live := make(map[uint64]int) // channel -> index into merged
	var hidden []Record
	var merged []Record
	for _, r := range all {
		switch r.Kind {
		case RecHidden:
			hidden = append(hidden, r)
		case RecOpen:
			live[r.Channel] = len(merged)
			merged = append(merged, r)
		case RecUpdate:
			if i, ok := live[r.Channel]; ok {
				// The update is the channel's facts now; the fence and the
				// counter marks keep their maxima over both records.
				m := &merged[i]
				r.Kind = RecOpen
				r.Fence = max(r.Fence, m.Fence)
				r.AllocNext = max(r.AllocNext, m.AllocNext)
				r.NextGroup = max(r.NextGroup, m.NextGroup)
				*m = r
			}
		case RecClose:
			if i, ok := live[r.Channel]; ok {
				merged[i].Kind = RecClose // tombstone; filtered below
				delete(live, r.Channel)
			}
		}
	}
	j.base = j.base[:0]
	j.base = append(j.base, hidden...)
	for _, r := range merged {
		if r.Kind == RecOpen {
			j.base = append(j.base, r)
		}
	}
	j.tail = nil
}

// journalHidden, journalChannel and journalClose are the MC's append hooks;
// they are no-ops on an unjournaled (standalone) controller. Slices are
// copied at append time because the MC mutates its own in place on later
// repairs.

func (mc *MC) journalHidden(name string, ip addr.IP) {
	if mc.journal != nil {
		mc.journal.Append(Record{Kind: RecHidden, Fence: mc.fence, Name: name, IP: ip})
	}
}

// journalChannel appends st's facts as they now stand: RecOpen for a new
// channel, RecUpdate after a repair or a restored flow.
func (mc *MC) journalChannel(kind RecordKind, st *channelState) {
	if mc.journal == nil {
		return
	}
	r := Record{
		Kind:      kind,
		Fence:     mc.fence,
		Channel:   st.id,
		Req:       st.req,
		Initiator: st.initiator,
		Responder: st.responder,
		Opts:      st.opts,
		Epoch:     st.epoch,
		Gen:       st.gen,
		FlowIDs:   make([]uint32, 0, 2*len(st.res)),
		Entries:   make([]addr.IP, 0, len(st.res)),
		Finals:    make([]addr.IP, 0, len(st.res)),
		Flows:     slices.Clone(st.info.Flows),
		Rules:     slices.Clone(st.rules),
		AllocNext: mc.flowIDs.next,
		NextGroup: mc.nextGroup,
	}
	for _, fr := range st.res {
		r.FlowIDs = append(r.FlowIDs, fr.fwdID, fr.revID)
		r.Entries = append(r.Entries, fr.entry)
		r.Finals = append(r.Finals, fr.finalSrc)
	}
	mc.journal.Append(r)
}

func (mc *MC) journalClose(id uint64) {
	if mc.journal != nil {
		mc.journal.Append(Record{Kind: RecClose, Fence: mc.fence, Channel: id})
	}
}

// channel rebuilds the channel a RecOpen or RecUpdate states.
func (r Record) channel() *channelState {
	st := &channelState{
		id:        r.Channel,
		req:       r.Req,
		initiator: r.Initiator,
		responder: r.Responder,
		opts:      r.Opts,
		epoch:     r.Epoch,
		gen:       r.Gen,
		info:      &ChannelInfo{ID: r.Channel, Flows: slices.Clone(r.Flows)},
		res:       make([]flowRes, len(r.Entries)),
		// The entries are the writing life's, so the store holds no slab of
		// them and is never recycled.
		epochStore: epochStore{rules: slices.Clone(r.Rules)},
	}
	for i := range st.res {
		st.res[i] = flowRes{entry: r.Entries[i], finalSrc: r.Finals[i], fwdID: r.FlowIDs[2*i], revID: r.FlowIDs[2*i+1]}
	}
	return st
}

// applyRecord folds one journal record into the MC's state: the replay half
// of failover. A channel record takes whatever the channel held off the books
// (unbook) and, unless it is a close, puts what the record states on them
// (book) — the same two functions live serving uses, so a replayed
// controller's tables are the live one's. It mutates bookkeeping only — no
// southbound I/O, no RNG draws, no allocator draws (restore normalizes
// counters afterwards) — so a standby can replay the log while fully
// passive.
func (mc *MC) applyRecord(r Record) {
	if r.Kind == RecHidden {
		mc.hidden[r.Name] = r.IP
		return
	}
	if old, ok := mc.channels[r.Channel]; ok {
		mc.unbook(old, old.res, old.info.Flows, old.rules)
		delete(mc.channels, r.Channel)
	} else if r.Kind != RecOpen {
		return // an update or close of a channel this log never opened
	}
	if r.Kind == RecClose {
		return
	}
	st := r.channel()
	mc.book(st, st.res, st.info.Flows, st.rules)
	mc.channels[st.id] = st
	mc.nextChan = max(mc.nextChan, st.id+1)
	mc.nextGroup = max(mc.nextGroup, r.NextGroup)
}
