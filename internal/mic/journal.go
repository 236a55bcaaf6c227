package mic

import "mic/internal/addr"

// This file is the MC's durability layer: a journal of every externally
// visible mutation, compacted by periodic snapshots, from which a standby
// controller rebuilds the full MC state by replay (failover.go). The journal
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
	// RecOpen establishes a channel: full state including allocated flow
	// IDs, endpoint address reservations and the intended rules.
	RecOpen
	// RecUpdate re-routes a channel (self-healing repair): new epoch,
	// generation, paths and rules; durable resources are unchanged.
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

	// Shard identifies which shard of the controller unit wrote the record
	// (0 for a single-shard controller). The Cluster routes each record to
	// the matching shard on replay, and the journal's counter high-waters
	// are keyed on it.
	Shard uint32

	// RecHidden. The journal is the one sanctioned replication path for
	// real addresses: standbys must rebuild the hidden map and the real
	// endpoint pair to serve repairs and closes after takeover. The fields
	// are secret-marked so the taint analysis still flags any journal
	// consumer that formats or emits them.
	Name string
	// lint:secret
	IP addr.IP

	// Channel records (RecOpen / RecUpdate / RecClose use Channel; the rest
	// are RecOpen, with RecUpdate overriding Epoch, Gen, Flows, Rules).
	Channel uint64
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
	Res       []flowRes
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

// Journal is the replicated MC mutation log. The active controller appends;
// standbys tail via Follow and rebuild state by replaying Records. The log
// self-compacts: every SnapshotEvery appends it folds closed channels and
// superseded updates away, keeping one record per live fact (plus counter
// high-waters kept separately), so its size tracks live state, not history.
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

	// Counter high-waters, keyed by Record.Shard (a single-shard controller
	// is shard 0): shard ID spaces are disjoint, so one shard's AllocNext
	// must never clamp another's allocator.
	allocHighShard map[uint32]uint32 // highest journaled AllocNext
	groupHighShard map[uint32]uint32 // highest journaled NextGroup
	chanHighShard  map[uint32]uint64 // highest opened channel ID + 1

	// Appends and Snapshots count journal activity for reports.
	Appends   uint64
	Snapshots uint64

	followers []func(Record)
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

// Append assigns the record its sequence number, logs it, fans it out to
// followers, and compacts when the tail is long enough.
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
			return // discarded: no high-waters, no replication, no replay
		}
	} else if r.Fence > j.fenceHigh {
		j.fenceHigh = r.Fence
	}
	if j.allocHighShard == nil {
		j.allocHighShard = make(map[uint32]uint32)
		j.groupHighShard = make(map[uint32]uint32)
		j.chanHighShard = make(map[uint32]uint64)
	}
	switch r.Kind {
	case RecOpen, RecUpdate:
		// RecUpdate carries AllocNext too: a degraded-channel upgrade
		// allocates fresh flow IDs without a RecOpen.
		if r.Kind == RecOpen && r.Channel+1 > j.chanHighShard[r.Shard] {
			j.chanHighShard[r.Shard] = r.Channel + 1
		}
		if r.AllocNext > j.allocHighShard[r.Shard] {
			j.allocHighShard[r.Shard] = r.AllocNext
		}
	}
	if r.NextGroup > j.groupHighShard[r.Shard] {
		j.groupHighShard[r.Shard] = r.NextGroup
	}
	j.tail = append(j.tail, r)
	for _, f := range j.followers {
		f(r)
	}
	if len(j.tail) >= j.snapshotEvery() {
		j.compact()
	}
}

// Follow registers fn to receive every subsequent record in append order —
// the standby's replication feed. Compaction does not re-deliver records: a
// follower attached at journal creation sees the complete history.
func (j *Journal) Follow(fn func(Record)) { j.followers = append(j.followers, fn) }

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

// AllocHighShard returns shard's flow-ID allocation high-water mark. Like
// GroupHighShard and ChanHighShard it reads records tagged with that shard
// only: a promoted shard restores its own counters, never a sibling's.
func (j *Journal) AllocHighShard(shard uint32) uint32 { return j.allocHighShard[shard] }

// GroupHighShard returns shard's group-ID counter high-water mark.
func (j *Journal) GroupHighShard(shard uint32) uint32 { return j.groupHighShard[shard] }

// ChanHighShard returns one past the highest channel ID shard ever opened.
func (j *Journal) ChanHighShard(shard uint32) uint64 { return j.chanHighShard[shard] }

// compact folds the log down to one record per live fact: hidden services in
// registration order, then live channels in open order with their latest
// update merged in. Closed channels vanish; the counter high-waters survive
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
				m := &merged[i]
				m.Seq = r.Seq
				if r.Fence > m.Fence {
					m.Fence = r.Fence
				}
				m.Epoch, m.Gen = r.Epoch, r.Gen
				m.Flows, m.Rules = r.Flows, r.Rules
				if len(r.Res) > 0 {
					m.FlowIDs, m.Entries = r.FlowIDs, r.Entries
					m.Finals, m.Res = r.Finals, r.Res
				}
				if r.AllocNext > m.AllocNext {
					m.AllocNext = r.AllocNext
				}
				if r.NextGroup > m.NextGroup {
					m.NextGroup = r.NextGroup
				}
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

// journalHidden, journalOpen, journalUpdate and journalClose are the MC's
// append hooks; they are no-ops on an unjournaled (standalone) controller.
// Slices are copied at append time because the MC mutates its own in place
// on later repairs.

func (mc *MC) journalHidden(name string, ip addr.IP) {
	if mc.journal == nil {
		return
	}
	mc.journal.Append(Record{Kind: RecHidden, Fence: mc.fence, Shard: mc.shardID, Name: name, IP: ip})
}

func (mc *MC) journalOpen(st *channelState) {
	if mc.journal == nil {
		return
	}
	mc.journal.Append(Record{
		Kind:      RecOpen,
		Fence:     mc.fence,
		Shard:     mc.shardID,
		Channel:   st.id,
		Initiator: st.initiator,
		Responder: st.responder,
		Opts:      st.opts,
		Epoch:     st.epoch,
		Gen:       st.gen,
		FlowIDs:   append([]uint32(nil), st.flowIDs...),
		Entries:   append([]addr.IP(nil), st.entries...),
		Finals:    append([]addr.IP(nil), st.finals...),
		Res:       append([]flowRes(nil), st.res...),
		Flows:     append([]FlowInfo(nil), st.info.Flows...),
		Rules:     append([]ruleRec(nil), st.rules...),
		AllocNext: mc.flowIDs.next,
		NextGroup: mc.nextGroup,
	})
}

func (mc *MC) journalUpdate(st *channelState) {
	if mc.journal == nil {
		return
	}
	mc.journal.Append(Record{
		Kind:    RecUpdate,
		Fence:   mc.fence,
		Shard:   mc.shardID,
		Channel: st.id,
		Epoch:   st.epoch,
		Gen:     st.gen,
		// Durable resources are re-logged on every update because a
		// degraded-channel upgrade (admission.go) allocates fresh flow
		// IDs and endpoint reservations mid-life; plain repairs re-log
		// unchanged values, which replay applies idempotently.
		FlowIDs:   append([]uint32(nil), st.flowIDs...),
		Entries:   append([]addr.IP(nil), st.entries...),
		Finals:    append([]addr.IP(nil), st.finals...),
		Res:       append([]flowRes(nil), st.res...),
		Flows:     append([]FlowInfo(nil), st.info.Flows...),
		Rules:     append([]ruleRec(nil), st.rules...),
		AllocNext: mc.flowIDs.next,
		NextGroup: mc.nextGroup,
	})
}

func (mc *MC) journalClose(id uint64) {
	if mc.journal == nil {
		return
	}
	mc.journal.Append(Record{Kind: RecClose, Fence: mc.fence, Shard: mc.shardID, Channel: id})
}

// applyRecord folds one journal record into the MC's state: the replay half
// of failover. It mutates bookkeeping only — no southbound I/O, no RNG
// draws, no allocator calls (finishRestore normalizes counters afterwards)
// — so a standby can apply records incrementally while fully passive.
func (mc *MC) applyRecord(r Record) {
	switch r.Kind {
	case RecHidden:
		mc.hidden[r.Name] = r.IP
	case RecOpen:
		st := &channelState{
			id:        r.Channel,
			initiator: r.Initiator,
			responder: r.Responder,
			opts:      r.Opts,
			epoch:     r.Epoch,
			gen:       r.Gen,
			flowIDs:   append([]uint32(nil), r.FlowIDs...),
			entries:   append([]addr.IP(nil), r.Entries...),
			finals:    append([]addr.IP(nil), r.Finals...),
			res:       append([]flowRes(nil), r.Res...),
		}
		st.info = &ChannelInfo{
			ID:    r.Channel,
			Flows: append([]FlowInfo(nil), r.Flows...),
		}
		mc.setRules(st, r.Rules)
		mc.chargeIntent(st.rules)
		for _, f := range st.info.Flows {
			mc.chargePathLoad(st, f.Path)
		}
		for _, e := range st.entries {
			mc.entryInUse[[2]addr.IP{st.initiator, e}] = true
		}
		for _, f := range st.finals {
			mc.entryInUse[[2]addr.IP{r.Responder, f}] = true
		}
		mc.channels[r.Channel] = st
		if r.Channel+1 > mc.nextChan {
			mc.nextChan = r.Channel + 1
		}
		if r.NextGroup > mc.nextGroup {
			mc.nextGroup = r.NextGroup
		}
	case RecUpdate:
		st, ok := mc.channels[r.Channel]
		if !ok {
			return
		}
		st.epoch, st.gen = r.Epoch, r.Gen
		mc.releaseIntent(st.rules)
		mc.releaseLoad(st)
		if len(r.Res) > 0 {
			// Upgrade-capable update: durable resources may have grown.
			st.flowIDs = append([]uint32(nil), r.FlowIDs...)
			st.entries = append([]addr.IP(nil), r.Entries...)
			st.finals = append([]addr.IP(nil), r.Finals...)
			st.res = append([]flowRes(nil), r.Res...)
			for _, e := range st.entries {
				mc.entryInUse[[2]addr.IP{st.initiator, e}] = true
			}
			for _, f := range st.finals {
				mc.entryInUse[[2]addr.IP{st.responder, f}] = true
			}
		}
		st.info.Flows = append(st.info.Flows[:0], r.Flows...)
		st.switches = nil
		st.groups = nil
		mc.setRules(st, r.Rules)
		mc.chargeIntent(st.rules)
		for _, f := range st.info.Flows {
			mc.chargePathLoad(st, f.Path)
		}
		if r.NextGroup > mc.nextGroup {
			mc.nextGroup = r.NextGroup
		}
	case RecClose:
		st, ok := mc.channels[r.Channel]
		if !ok {
			return
		}
		delete(mc.channels, r.Channel)
		mc.releaseIntent(st.rules)
		mc.releaseLoad(st)
		for _, e := range st.entries {
			delete(mc.entryInUse, [2]addr.IP{st.initiator, e})
		}
		for _, f := range st.finals {
			delete(mc.entryInUse, [2]addr.IP{st.responder, f})
		}
	}
}

// setRules installs a journaled rule set as a channel's current intent,
// rebuilding the per-switch index and group references.
func (mc *MC) setRules(st *channelState, rules []ruleRec) {
	st.rules = append([]ruleRec(nil), rules...)
	for _, rr := range rules {
		st.addSwitch(rr.node)
		if rr.group != nil {
			st.groups = append(st.groups, groupRef{node: rr.node, id: rr.group.ID})
		}
	}
}

// finishRestore normalizes the counters after replay: the flow-ID allocator
// is rebuilt from the journaled high-water mark minus the IDs live channels
// hold, and the channel/group counters jump past everything ever issued.
// Called exactly once, at activation (takeover or rejoin-rebuild).
func (mc *MC) finishRestore(j *Journal) {
	held := make(map[uint32]bool)
	// lint:ignore detrange set-insertion only; result independent of order
	for _, st := range mc.channels {
		for _, fid := range st.flowIDs {
			held[fid] = true
		}
	}
	// Counters come from this shard's records only: clamping one shard's
	// allocator to another shard's high-water would hand out IDs it does
	// not own.
	mc.flowIDs.restore(j.AllocHighShard(mc.shardID), held)
	if high := j.ChanHighShard(mc.shardID); high > mc.nextChan {
		mc.nextChan = high
	}
	if base := uint64(mc.Cfg.InstanceID) << 32; mc.nextChan < base {
		mc.nextChan = base
	}
	if high := j.GroupHighShard(mc.shardID); high > mc.nextGroup {
		mc.nextGroup = high
	}
}
