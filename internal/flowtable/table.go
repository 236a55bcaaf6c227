package flowtable

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"mic/internal/packet"
	"mic/internal/sim"
)

// ErrTableFull is returned by TryInsert when the table is at Capacity and
// the eviction policy cannot make room for a new entry.
var ErrTableFull = errors.New("flowtable: table full")

// EvictPolicy selects what happens when an insert finds the table at
// Capacity. Real TCAMs deny new entries; software switches sometimes evict.
type EvictPolicy int

const (
	// EvictDeny refuses the new entry (the default, TCAM semantics).
	EvictDeny EvictPolicy = iota
	// EvictLRU removes the least-recently-used Evictable entry to make
	// room, ties broken by lowest insertion sequence. Entries not marked
	// Evictable (common routing) are never victims.
	EvictLRU
)

// EvictReason says why an entry left the table without an explicit delete.
type EvictReason int

const (
	// EvictIdle: the entry's IdleTimeout elapsed without traffic.
	EvictIdle EvictReason = iota
	// EvictHard: the entry's HardTimeout elapsed since installation.
	EvictHard
	// EvictCapacity: the entry was displaced by an insert under EvictLRU.
	EvictCapacity
)

func (r EvictReason) String() string {
	switch r {
	case EvictIdle:
		return "idle"
	case EvictHard:
		return "hard"
	case EvictCapacity:
		return "capacity"
	}
	return "unknown"
}

// Entry is one installed flow rule.
type Entry struct {
	Priority int
	Match    Match
	Actions  []Action

	// Cookie tags the owner (the MC uses one cookie per m-flow) so related
	// rules can be deleted together.
	Cookie uint64

	// Evictable opts the entry into capacity eviction under EvictLRU.
	// Common routing rules leave it false so load never displaces the
	// baseline fabric.
	Evictable bool

	// pos is the entry's index in its table's bag (Table.entries); it sits
	// in the padding after Evictable, so Entry keeps its size.
	pos int32

	// IdleTimeout evicts the entry when unused for that long; HardTimeout
	// evicts it unconditionally after installation. Zero disables.
	IdleTimeout time.Duration
	HardTimeout time.Duration

	// Counters.
	Packets   uint64
	Bytes     uint64
	Installed sim.Time
	LastUsed  sim.Time

	// seq is the entry's insertion sequence number: the tiebreak below equal
	// priority, mirroring OpenFlow's "most recently the same" overlap rule.
	// A replacing Insert inherits the replaced entry's seq, keeping its
	// position.
	seq uint64

	// The classifier's index lives in the entries (index.go): hash is the
	// hash of the normalized match, chain links the heads of the buckets that
	// share a slot, lower links a bucket — the entries of one match — in
	// descending priority. All three are meaningful only while installed.
	hash  uint64
	chain *Entry
	lower *Entry
}

// Table is a single-table OpenFlow pipeline plus a group table. Lookups are
// served OVS-style: an exact-match microflow cache first, then a hash-indexed
// classifier, with the linear priority scan retained only as the test oracle.
//
// The installed entries are held as an unordered bag: a new entry is appended,
// a removed one is overwritten by the last (each Entry knows its index), so
// neither shifts the rest of the table, and DeleteByCookie finds its victims
// through a per-cookie index instead of scanning. Nothing on the packet or
// FlowMod path needs the entries in match order — the classifier's bucket
// chains carry it — so match order (priority desc, seq asc) is materialised
// only when a dump, an audit or the linear oracle asks (Entries) and cached
// until the next mutation.
//
// A batch installed with InstallDeferred — a switch's common routing — is
// counted at once but built only when something could observe it: its
// entries are the same, with the same sequence numbers and stamps, as if
// each had been inserted at the install instant, so a table that carries no
// traffic never pays for them.
type Table struct {
	entries []*Entry // unordered; entries[e.pos] == e
	ordered []*Entry // entries in match order, valid while sorted is set
	sorted  bool
	groups  map[GroupID]*Group
	seq     uint64

	// byCookie lists the installed entries of each cookie, in no particular
	// order. It is built by the first DeleteByCookie and maintained from then
	// on, so a table that never deletes by cookie never pays for it. It is
	// only ever looked up by key, never ranged over.
	byCookie map[uint64][]*Entry

	// listFree recycles the emptied entry lists of deleted cookies, so a
	// steady churn of m-flow rules allocates none.
	listFree [][]*Entry

	// subs holds one subtable per match shape in use, in creation order: a
	// handful, found by scanning.
	subs []*subtable

	micro microCache
	gen   uint64 // bumped on any table modification; stale cache entries ignored

	// pending is the deferred batch not yet built, if its fill is non-nil.
	pending deferred

	// CacheHits / CacheMisses count Lookup calls served by the microflow
	// cache vs the full classifier — the fast/slow-path split the virtual
	// CPU model charges differently.
	CacheHits   uint64
	CacheMisses uint64

	// Capacity bounds the number of installed flow entries (the TCAM
	// model); zero keeps the table unbounded. Replacing an existing entry
	// never counts against capacity. The group table is not bounded.
	Capacity int

	// Policy selects the at-capacity behaviour for new entries.
	Policy EvictPolicy

	// OnEvict, when non-nil, observes every timeout or capacity eviction
	// (not explicit deletes) after the entry has left the table.
	OnEvict func(e *Entry, reason EvictReason)

	// Per-reason eviction counters.
	EvictedIdle     uint64
	EvictedHard     uint64
	EvictedCapacity uint64
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{groups: make(map[GroupID]*Group)}
}

// Len returns the number of installed entries, a deferred batch's included.
func (t *Table) Len() int { return len(t.entries) + t.pending.n }

// deferred is a batch installed by InstallDeferred and not yet built.
type deferred struct {
	n      int
	cookie uint64
	shapes []FieldMask
	now    sim.Time
	seq    uint64 // the sequence number before the batch's first
	fill   func() []Entry
}

// covers reports whether the batch is pending and declares shape mask.
func (b *deferred) covers(mask FieldMask) bool {
	return b.fill != nil && slices.Contains(b.shapes, mask)
}

// filled returns what fill built, after checking it holds exactly the n
// entries the batch declared, each with the batch's cookie and one of its
// shapes: a wrong declaration would otherwise let an observation that should
// have built the batch skip it.
func (b *deferred) filled() []Entry {
	es := b.fill()
	if len(es) != b.n {
		panic(fmt.Sprintf("flowtable: a deferred batch of %d entries filled %d", b.n, len(es)))
	}
	for i := range es {
		if es[i].Cookie != b.cookie || !slices.Contains(b.shapes, es[i].Match.Mask) {
			panic(fmt.Sprintf("flowtable: deferred entry %d has cookie %d and shape %#x, outside its batch's declaration", i, es[i].Cookie, es[i].Match.Mask))
		}
	}
	return es
}

// InstallDeferred installs n entries at time now, all with the given cookie
// and each matching on one of shapes, as fill will build them: in fill's
// order, as if each were handed to TryInsert at now. Len and the capacity
// check count them at once, and their sequence numbers are reserved at once,
// but fill runs only when the table is first observed in a way that could
// tell them apart from entries built eagerly: Lookup, Entries (and so Dump),
// Conflicts, Expire, an LRU eviction, a TryInsert on one of shapes, a
// DeleteByCookie of cookie, or the next InstallDeferred. A TryInsert on
// another shape, a DeleteByCookie of another cookie and the group table
// leave the batch unbuilt.
//
// fill must return exactly n entries, no two with one match and priority;
// it panics otherwise. A batch that could replace an installed entry (one of
// shapes is in use) or does not fit under Capacity is installed at once,
// entry by entry through TryInsert, and the first refusal is returned.
func (t *Table) InstallDeferred(n int, cookie uint64, shapes []FieldMask, now sim.Time, fill func() []Entry) error {
	t.build()
	b := deferred{n: n, cookie: cookie, shapes: shapes, now: now, seq: t.seq, fill: fill}
	eager := t.Capacity > 0 && t.Len()+n > t.Capacity
	for _, st := range t.subs {
		eager = eager || st.heads > 0 && slices.Contains(shapes, st.mask)
	}
	if eager {
		es := b.filled()
		for i := range es {
			if err := t.TryInsert(&es[i], now); err != nil {
				return err
			}
		}
		return nil
	}
	t.pending = b
	t.seq += uint64(n)
	return nil
}

// build builds the pending deferred batch, if any, through the insert path
// with the sequence numbers it reserved and its install instant.
func (t *Table) build() {
	b := t.pending
	if b.fill == nil {
		return
	}
	t.pending = deferred{}
	es := b.filled()
	for i := range es {
		e := &es[i]
		norm := e.Match.normalized()
		h := norm.hash()
		st := t.shape(norm.Mask)
		at := st.locate(h, &norm, e.Priority)
		if at.cur != nil && at.cur.Priority == e.Priority {
			panic(fmt.Sprintf("flowtable: deferred batch holds two entries of match %v at priority %d", e.Match, e.Priority))
		}
		b.seq++
		t.link(e, st, at, h, b.now, b.seq)
	}
}

// invalidate marks every microflow cache entry stale in O(1). Callers bump
// the generation on any mutation that could change a lookup result.
func (t *Table) invalidate() { t.gen++ }

// entryLess is the match order: descending priority, then ascending seq.
func entryLess(a, b *Entry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.seq < b.seq
}

// add appends e to the bag and the cookie index.
func (t *Table) add(e *Entry) {
	e.pos = int32(len(t.entries))
	t.entries = append(t.entries, e)
	t.sorted = false
	t.indexCookie(e)
}

// remove takes e out of the bag (the last entry fills its slot), the cookie
// index and the classifier.
func (t *Table) remove(e *Entry) {
	t.unindexCookie(e)
	t.dropFromBag(e)
	t.subtable(e.Match.Mask).unlink(e)
}

func (t *Table) dropFromBag(e *Entry) {
	last := len(t.entries) - 1
	moved := t.entries[last]
	t.entries[e.pos] = moved
	moved.pos = e.pos
	t.entries[last] = nil
	t.entries = t.entries[:last]
	t.sorted = false
}

// indexCookie records e under its cookie, if the index exists.
func (t *Table) indexCookie(e *Entry) {
	if t.byCookie == nil {
		return
	}
	list, ok := t.byCookie[e.Cookie]
	if !ok {
		list = t.emptyList()
	}
	t.byCookie[e.Cookie] = append(list, e)
}

// emptyList returns a recycled zero-length entry list, or nil.
func (t *Table) emptyList() []*Entry {
	last := len(t.listFree) - 1
	if last < 0 {
		return nil
	}
	list := t.listFree[last]
	t.listFree = t.listFree[:last]
	return list
}

// unindexCookie forgets e under its cookie, if the index exists. The scan is
// over that cookie's entries only — a handful for an m-flow.
func (t *Table) unindexCookie(e *Entry) {
	if t.byCookie == nil {
		return
	}
	list := t.byCookie[e.Cookie]
	for i, x := range list {
		if x != e {
			continue
		}
		last := len(list) - 1
		list[i] = list[last]
		list[last] = nil
		if last == 0 {
			delete(t.byCookie, e.Cookie)
			t.listFree = append(t.listFree, list[:0])
		} else {
			t.byCookie[e.Cookie] = list[:last]
		}
		return
	}
}

// Insert installs an entry at time now, ignoring capacity refusals — the
// legacy unbounded-table API. Callers that set Capacity should use TryInsert
// so a refused entry is an error, not a silent drop.
func (t *Table) Insert(e *Entry, now sim.Time) {
	// lint:ignore errdrop documented legacy unbounded-table API: capacity refusals are deliberately ignored; bounded callers use TryInsert
	_ = t.TryInsert(e, now)
}

// TryInsert installs an entry at time now. Installing an entry whose match
// and priority exactly equal an existing entry's replaces it in place
// (OpenFlow semantics; the replacement inherits the old entry's position in
// the match order) and never counts against capacity. A genuinely new entry
// against a full table either displaces an LRU victim (Policy==EvictLRU and
// some entry is Evictable) or fails with ErrTableFull, leaving the table —
// and the microflow cache generation — untouched. Insertion shifts nothing:
// its cost is independent of how many entries the table holds.
func (t *Table) TryInsert(e *Entry, now sim.Time) error {
	if t.pending.covers(e.Match.Mask) {
		t.build()
	}
	norm := e.Match.normalized()
	h := norm.hash()
	st := t.shape(norm.Mask)
	at := st.locate(h, &norm, e.Priority)
	if old := at.cur; old != nil && old.Priority == e.Priority {
		// Replace: same match, same priority (unique within a bucket). old
		// may be e itself — a retransmitted FlowMod whose ack was lost.
		e.Installed = now
		e.LastUsed = now
		e.seq = old.seq
		t.invalidate()
		if e != old {
			e.hash = h
			st.link(at, e, old.lower)
			old.chain, old.lower = nil, nil
		}
		t.unindexCookie(old)
		e.pos = old.pos
		t.entries[e.pos] = e
		t.sorted = false
		t.indexCookie(e)
		return nil
	}

	if t.Capacity > 0 && t.Len() >= t.Capacity {
		if t.Policy != EvictLRU {
			return ErrTableFull
		}
		t.build() // the victim is chosen among every entry
		if !t.evictLRU() {
			return ErrTableFull
		}
		// The victim may have shared e's bucket or slot; locate again.
		at = st.locate(h, &norm, e.Priority)
	}
	t.seq++
	t.link(e, st, at, h, now, t.seq)
	return nil
}

// shape returns the subtable indexing matches of shape mask, creating it if
// no entry of that shape was ever installed.
func (t *Table) shape(mask FieldMask) *subtable {
	st := t.subtable(mask)
	if st == nil {
		st = &subtable{mask: mask, slots: make([]*Entry, 8)}
		t.subs = append(t.subs, st)
	}
	return st
}

// link installs e, whose match is new at its priority and hashes to h, at
// at in st, as of now with sequence number seq.
func (t *Table) link(e *Entry, st *subtable, at place, h uint64, now sim.Time, seq uint64) {
	e.Installed = now
	e.LastUsed = now
	t.invalidate()
	e.seq = seq
	e.hash = h
	st.link(at, e, at.cur)
	t.add(e)
}

// evictLRU removes the least-recently-used Evictable entry (ties broken by
// lowest seq, so the scan is deterministic) and reports whether a victim was
// found. The removal bumps the cache generation: a cached hit on the victim
// must miss afterwards.
func (t *Table) evictLRU() bool {
	var victim *Entry
	for _, e := range t.entries {
		if !e.Evictable {
			continue
		}
		if victim == nil || e.LastUsed < victim.LastUsed ||
			(e.LastUsed == victim.LastUsed && e.seq < victim.seq) {
			victim = e
		}
	}
	if victim == nil {
		return false
	}
	t.remove(victim)
	t.invalidate()
	t.EvictedCapacity++
	if t.OnEvict != nil {
		t.OnEvict(victim, EvictCapacity)
	}
	return true
}

// Lookup returns the highest-priority entry covering the packet, updating
// its counters, or nil on a table miss. hit reports whether the microflow
// cache served the result (the switch charges fast-path vs slow-path CPU on
// this). Misses are never cached, mirroring OVS, where a table miss is an
// upcall rather than a datapath flow.
func (t *Table) Lookup(p *packet.Packet, inPort int, now sim.Time) (e *Entry, hit bool) {
	t.build()
	k := microKeyOf(p, inPort)
	kh := k.hash()
	if cached := t.micro.get(kh, &k, t.gen); cached != nil {
		t.CacheHits++
		cached.Packets++
		cached.Bytes += uint64(p.WireLen())
		cached.LastUsed = now
		return cached, true
	}
	t.CacheMisses++
	best := t.lookupClassifier(p, inPort)
	if best == nil {
		return nil, false
	}
	best.Packets++
	best.Bytes += uint64(p.WireLen())
	best.LastUsed = now
	t.micro.put(kh, &k, best, t.gen)
	return best, false
}

// lookupClassifier probes every subtable with the packet's projection and
// returns the best entry in match order, without touching counters or the
// cache.
func (t *Table) lookupClassifier(p *packet.Packet, inPort int) *Entry {
	var best *Entry
	for _, st := range t.subs {
		if st.heads == 0 {
			continue
		}
		key, ok := projectKey(st.mask, p, inPort)
		if !ok {
			continue
		}
		// The bucket's head is the subtable's best candidate; every entry in
		// the bucket covers the packet because the projection matched exactly.
		if e := *st.find(key.hash(), &key); e != nil && (best == nil || entryLess(e, best)) {
			best = e
		}
	}
	return best
}

// lookupLinear is the pre-cache linear priority scan, kept as the oracle for
// the cached-vs-linear differential test. It does not update counters.
func (t *Table) lookupLinear(p *packet.Packet, inPort int) *Entry {
	for _, e := range t.Entries() {
		if e.Match.Covers(p, inPort) {
			return e
		}
	}
	return nil
}

// DeleteByCookie removes all entries with the given cookie and returns how
// many were removed, in time proportional to that number.
func (t *Table) DeleteByCookie(cookie uint64) int {
	if t.pending.fill != nil && t.pending.cookie == cookie {
		t.build()
	}
	if t.byCookie == nil {
		t.byCookie = make(map[uint64][]*Entry)
		for _, e := range t.entries {
			t.byCookie[e.Cookie] = append(t.byCookie[e.Cookie], e)
		}
	}
	list := t.byCookie[cookie]
	if len(list) == 0 {
		return 0
	}
	delete(t.byCookie, cookie)
	for i, e := range list {
		list[i] = nil
		t.dropFromBag(e)
		t.subtable(e.Match.Mask).unlink(e)
	}
	t.listFree = append(t.listFree, list[:0])
	t.invalidate()
	return len(list)
}

// Expire evicts entries whose idle or hard timeout has elapsed by now, and
// returns the evicted entries in match order. Hard expiry wins the
// per-reason counter when both timeouts have lapsed (the entry was doomed
// regardless of traffic).
func (t *Table) Expire(now sim.Time) []*Entry {
	t.build()
	var evicted []*Entry
	for _, e := range t.entries {
		if idle, hard := e.expired(now); idle || hard {
			evicted = append(evicted, e)
		}
	}
	if len(evicted) == 0 {
		return nil
	}
	sort.Slice(evicted, func(i, j int) bool { return entryLess(evicted[i], evicted[j]) })
	reasons := make([]EvictReason, len(evicted))
	for i, e := range evicted {
		if _, hard := e.expired(now); hard {
			t.EvictedHard++
			reasons[i] = EvictHard
		} else {
			t.EvictedIdle++
			reasons[i] = EvictIdle
		}
		t.remove(e)
	}
	t.invalidate()
	if t.OnEvict != nil {
		for i, e := range evicted {
			t.OnEvict(e, reasons[i])
		}
	}
	return evicted
}

// expired reports which of e's timeouts have elapsed by now.
func (e *Entry) expired(now sim.Time) (idle, hard bool) {
	idle = e.IdleTimeout > 0 && now.Sub(e.LastUsed) >= e.IdleTimeout
	hard = e.HardTimeout > 0 && now.Sub(e.Installed) >= e.HardTimeout
	return idle, hard
}

// Conflicts returns entries whose match equals m at the same priority —
// the ambiguity MIC's Collision Avoidance Mechanism must rule out.
func (t *Table) Conflicts(m Match, priority int) []*Entry {
	t.build()
	norm := m.normalized()
	st := t.subtable(norm.Mask)
	if st == nil {
		return nil
	}
	var out []*Entry
	for e := *st.find(norm.hash(), &norm); e != nil; e = e.lower {
		if e.Priority == priority {
			out = append(out, e)
		}
	}
	return out
}

// Entries returns the installed entries in match order (descending
// priority, then insertion order). The returned slice is shared and valid
// until the table is next modified; callers must not modify it.
func (t *Table) Entries() []*Entry {
	t.build()
	if !t.sorted {
		t.ordered = append(t.ordered[:0], t.entries...)
		sort.Slice(t.ordered, func(i, j int) bool { return entryLess(t.ordered[i], t.ordered[j]) })
		t.sorted = true
	}
	return t.ordered
}

// SetGroup installs or replaces a group. The microflow cache is flushed:
// cached entries may reference the group through their actions, and a
// group edit must take effect on the next packet.
func (t *Table) SetGroup(g *Group) {
	t.invalidate()
	t.groups[g.ID] = g
}

// Group looks up a group by ID.
func (t *Table) Group(id GroupID) (*Group, bool) {
	g, ok := t.groups[id]
	return g, ok
}

// DeleteGroup removes a group, flushing the microflow cache like SetGroup.
func (t *Table) DeleteGroup(id GroupID) {
	t.invalidate()
	delete(t.groups, id)
}

// GroupIDs returns the installed group IDs in ascending order — the group
// half of a flow-table dump, used by controller reconciliation to spot
// stale or missing groups.
func (t *Table) GroupIDs() []GroupID {
	ids := make([]GroupID, 0, len(t.groups))
	// lint:ignore detrange keys are collected then sorted immediately below
	for id := range t.groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Dump renders the table — flow entries in match order, then the group
// table in ascending group ID so the dump is byte-stable across runs.
func (t *Table) Dump() string {
	s := ""
	for _, e := range t.Entries() {
		s += fmt.Sprintf("prio=%d cookie=%d %v ->", e.Priority, e.Cookie, e.Match)
		for _, a := range e.Actions {
			s += " " + a.String()
		}
		s += fmt.Sprintf(" (pkts=%d)\n", e.Packets)
	}
	for _, id := range t.GroupIDs() {
		g := t.groups[id]
		s += fmt.Sprintf("group=%d type=all buckets=%d ->", uint32(id), len(g.Buckets))
		for _, b := range g.Buckets {
			for _, a := range b.Actions {
				s += " " + a.String()
			}
			s += " |"
		}
		s += "\n"
	}
	return s
}
