package flowtable

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"mic/internal/addr"
	"mic/internal/packet"
	"mic/internal/sim"
)

// --- differential test: Table ≡ a naive sorted-slice model -----------------
//
// The model is the table as its documentation describes it and nothing more:
// one slice kept in match order (priority desc, insertion seq asc), scanned
// linearly for everything. Table's bag, cookie index, intrusive classifier
// index, on-demand order and microflow cache must be indistinguishable from it
// through the public surface: Entries order, Len, Lookup, Conflicts, the
// entries' Installed/LastUsed stamps, eviction callbacks and counters. A
// deferred batch (InstallDeferred) is installed into the model eagerly, at
// its install instant, entry by entry.

type modelEntry struct {
	real      *Entry // the entry handed to the real table; identity only
	prio      int
	match     Match
	cookie    uint64
	evictable bool
	idle      time.Duration
	hard      time.Duration
	installed sim.Time
	lastUsed  sim.Time
	seq       uint64
}

type modelTable struct {
	entries  []*modelEntry // match order
	seq      uint64
	capacity int
	policy   EvictPolicy
	groups   map[GroupID]bool

	// removed lists the entries that left by delete, expiry or capacity
	// eviction and have not been handed back since: the pointers a
	// reinstall-after-eviction gives TryInsert again.
	removed []*modelEntry

	evictedIdle, evictedHard, evictedCapacity uint64
	evictLog                                  []string
}

func (m *modelTable) less(a, b *modelEntry) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

func (m *modelTable) removeAt(i int) {
	m.entries = append(m.entries[:i], m.entries[i+1:]...)
}

func (m *modelTable) tryInsert(e *modelEntry, now sim.Time) error {
	e.installed, e.lastUsed = now, now
	for i, old := range m.entries {
		if old.prio == e.prio && old.match.Equal(e.match) {
			e.seq = old.seq
			m.entries[i] = e
			return nil
		}
	}
	if m.capacity > 0 && len(m.entries) >= m.capacity {
		victim := -1
		if m.policy == EvictLRU {
			for i, x := range m.entries {
				if !x.evictable {
					continue
				}
				if v := victim; v < 0 || x.lastUsed < m.entries[v].lastUsed ||
					(x.lastUsed == m.entries[v].lastUsed && x.seq < m.entries[v].seq) {
					victim = i
				}
			}
		}
		if victim < 0 {
			return ErrTableFull
		}
		m.evictLog = append(m.evictLog, fmt.Sprintf("%p %v", m.entries[victim].real, EvictCapacity))
		m.evictedCapacity++
		m.removed = append(m.removed, m.entries[victim])
		m.removeAt(victim)
	}
	m.seq++
	e.seq = m.seq
	i := sort.Search(len(m.entries), func(i int) bool { return m.less(e, m.entries[i]) })
	m.entries = append(m.entries, nil)
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = e
	return nil
}

func (m *modelTable) deleteByCookie(cookie uint64) int {
	kept := m.entries[:0]
	removed := 0
	for _, e := range m.entries {
		if e.cookie == cookie {
			removed++
			m.removed = append(m.removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	m.entries = kept
	return removed
}

func (m *modelTable) expire(now sim.Time) []*Entry {
	var out []*Entry
	kept := m.entries[:0]
	for _, e := range m.entries {
		idle := e.idle > 0 && now.Sub(e.lastUsed) >= e.idle
		hard := e.hard > 0 && now.Sub(e.installed) >= e.hard
		switch {
		case hard:
			m.evictedHard++
			m.evictLog = append(m.evictLog, fmt.Sprintf("%p %v", e.real, EvictHard))
		case idle:
			m.evictedIdle++
			m.evictLog = append(m.evictLog, fmt.Sprintf("%p %v", e.real, EvictIdle))
		default:
			kept = append(kept, e)
			continue
		}
		out = append(out, e.real)
		m.removed = append(m.removed, e)
	}
	m.entries = kept
	return out
}

func (m *modelTable) lookup(p *packet.Packet, inPort int, now sim.Time) *Entry {
	for _, e := range m.entries {
		if e.match.Covers(p, inPort) {
			e.lastUsed = now
			return e.real
		}
	}
	return nil
}

func (m *modelTable) conflicts(match Match, prio int) []*Entry {
	var out []*Entry
	for _, e := range m.entries {
		if e.prio == prio && e.match.Equal(match) {
			out = append(out, e.real)
		}
	}
	return out
}

// tableProgram interprets prog as a sequence of table operations, applies
// each to a Table and to the model, and compares the two after every step.
// The first two bytes choose capacity and policy; value domains are small so
// matches, priorities and cookies collide often.
func tableProgram(t *testing.T, prog []byte) {
	t.Helper()
	pc := 0
	next := func() int {
		if pc >= len(prog) {
			return 0
		}
		pc++
		return int(prog[pc-1])
	}

	tb := NewTable()
	m := &modelTable{groups: map[GroupID]bool{}}
	if c := next() % 8; c > 0 {
		tb.Capacity, m.capacity = c+1, c+1
	}
	if next()%2 == 1 {
		tb.Policy, m.policy = EvictLRU, EvictLRU
	}
	var realLog []string
	tb.OnEvict = func(e *Entry, reason EvictReason) {
		if e.pos >= 0 && int(e.pos) < len(tb.entries) && tb.entries[e.pos] == e {
			t.Fatalf("OnEvict(%v) fired while the entry was still installed", reason)
		}
		realLog = append(realLog, fmt.Sprintf("%p %v", e, reason))
	}

	now := sim.Time(0)
	match := func() Match {
		a, b := next(), next()
		return Match{
			Mask:   diffMasks[a%len(diffMasks)],
			InPort: b & 1,
			EthSrc: addr.MAC(b >> 1 & 1),
			EthDst: addr.MAC(b >> 2 & 1),
			IPSrc:  addr.IP(b >> 3 & 3),
			IPDst:  addr.IP(b >> 5 & 3),
			Proto:  []uint8{packet.ProtoTCP, packet.ProtoUDP}[a>>4&1],
			TPSrc:  uint16(80 + a>>5&1),
			TPDst:  uint16(80 + a>>6&1),
			MPLS:   addr.Label(b >> 7 & 1),
		}
	}
	modelOf := func(e *Entry) *modelEntry {
		return &modelEntry{real: e, prio: e.Priority, match: e.Match, cookie: e.Cookie, evictable: e.Evictable, idle: e.IdleTimeout, hard: e.HardTimeout}
	}
	// The latest deferred batch: its cookie, its declared shapes, and whether
	// the table has called its fill. build is whether the current op must
	// build a pending batch; an op that must not leaves it pending.
	var (
		batchCookie uint64
		batchShapes []FieldMask
		batchBuilt  *bool
		build       bool
	)
	// install hands e to the table and a fresh model entry describing it to
	// the model. e may be new, the very entry already installed, one that
	// left the table earlier, or one of a pending batch's: the table must not
	// care which. It builds a pending batch when e has one of the batch's
	// shapes or is new to a full table under EvictLRU.
	install := func(e *Entry) error {
		replace := len(m.conflicts(e.Match, e.Priority)) > 0
		full := tb.Capacity > 0 && tb.Len() >= tb.Capacity && tb.Policy == EvictLRU && !replace
		build = slices.Contains(batchShapes, e.Match.Mask) || full
		got, want := tb.TryInsert(e, now), m.tryInsert(modelOf(e), now)
		if got != want {
			t.Fatalf("op %d: TryInsert = %v, model %v", pc, got, want)
		}
		return got
	}
	configure := func(e *Entry, flags int) {
		e.Evictable = flags&1 == 1
		if flags&2 != 0 {
			e.IdleTimeout = time.Duration(1+flags>>4&3) * time.Second
		}
		if flags&4 != 0 {
			e.HardTimeout = time.Duration(1+flags>>6&3) * time.Second
		}
	}
	insert := func(prio int, mt Match, cookie uint64, flags int) {
		e := &Entry{Priority: prio, Match: mt, Cookie: cookie}
		configure(e, flags)
		install(e)
	}

	for pc < len(prog) {
		prev := batchBuilt
		pending := prev != nil && !*prev
		build = false
		switch op := next() % 13; op {
		case 0, 1: // a new entry, or a replacement if it happens to collide
			insert(next()%4, match(), uint64(next()%5), next())
		case 2: // replace an installed entry, same cookie
			if len(m.entries) > 0 {
				old := m.entries[next()%len(m.entries)]
				insert(old.prio, old.match, old.cookie, next())
			}
		case 3: // replace an installed entry under another cookie
			if len(m.entries) > 0 {
				old := m.entries[next()%len(m.entries)]
				insert(old.prio, old.match, (old.cookie+1+uint64(next()%4))%5, next())
			}
		case 4:
			c := uint64(next() % 5)
			build = c == batchCookie
			if got, want := tb.DeleteByCookie(c), m.deleteByCookie(c); got != want {
				t.Fatalf("op %d: DeleteByCookie(%d) = %d, model %d", pc, c, got, want)
			}
		case 5:
			build = true
			got, want := tb.Expire(now), m.expire(now)
			if len(got) != len(want) {
				t.Fatalf("op %d: Expire evicted %d, model %d", pc, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("op %d: Expire()[%d] differs from the model (order or membership)", pc, i)
				}
			}
		case 6:
			id := GroupID(next() % 3)
			if next()%2 == 0 {
				tb.SetGroup(&Group{ID: id})
				m.groups[id] = true
			} else {
				tb.DeleteGroup(id)
				delete(m.groups, id)
			}
		case 7:
			now += sim.Time(next()) * sim.Time(100*time.Millisecond)
		case 10: // replace with self: a FlowMod retransmitted after its ack was lost
			if len(m.entries) > 0 {
				install(m.entries[next()%len(m.entries)].real)
			}
		case 11: // reinstall a pointer that left by delete, expiry or eviction
			if len(m.removed) > 0 {
				i := next() % len(m.removed)
				if install(m.removed[i].real) == nil {
					m.removed = append(m.removed[:i], m.removed[i+1:]...)
				}
			}
		case 12: // a deferred batch of one to four new entries
			build = true
			cookie := uint64(next() % 5)
			shapes := []FieldMask{diffMasks[next()%len(diffMasks)]} // declared, maybe unused
			es := make([]Entry, 0, 4)
			for k := 1 + next()%4; k > 0; k-- {
				e := Entry{Priority: next() % 4, Match: match(), Cookie: cookie}
				configure(&e, next())
				dup := false
				for i := range es {
					dup = dup || es[i].Priority == e.Priority && es[i].Match.Equal(e.Match)
				}
				if !dup {
					es = append(es, e)
					if !slices.Contains(shapes, e.Match.Mask) {
						shapes = append(shapes, e.Match.Mask)
					}
				}
			}
			built := false
			fill := func() []Entry {
				if built {
					t.Fatalf("a deferred batch was filled twice")
				}
				built = true
				return es
			}
			got := tb.InstallDeferred(len(es), cookie, shapes, now, fill)
			var want error
			for i := 0; i < len(es) && want == nil; i++ {
				want = m.tryInsert(modelOf(&es[i]), now)
			}
			if got != want {
				t.Fatalf("op %d: InstallDeferred = %v, model %v", pc, got, want)
			}
			batchCookie, batchShapes, batchBuilt = cookie, shapes, &built
		default: // 8, 9: a packet
			build = true
			a, b := next(), next()
			p := &packet.Packet{
				SrcMAC: addr.MAC(b >> 1 & 1), DstMAC: addr.MAC(b >> 2 & 1),
				SrcIP: addr.IP(b >> 3 & 3), DstIP: addr.IP(b >> 5 & 3),
				Proto:   []uint8{packet.ProtoTCP, packet.ProtoUDP}[a>>4&1],
				SrcPort: uint16(80 + a>>5&1), DstPort: uint16(80 + a>>6&1), TTL: 64,
			}
			if a&1 == 1 {
				p.PushMPLS(addr.Label(b >> 7 & 1))
			}
			inPort := b & 1
			hits, misses := tb.CacheHits, tb.CacheMisses
			got, hit := tb.Lookup(p, inPort, now)
			if tb.CacheHits+tb.CacheMisses != hits+misses+1 || hit != (tb.CacheHits > hits) || hit && pending {
				t.Fatalf("op %d: Lookup hit=%v moved hits %d -> %d, misses %d -> %d (a deferred batch pending: %v)",
					pc, hit, hits, tb.CacheHits, misses, tb.CacheMisses, pending)
			}
			linear := tb.lookupLinear(p, inPort)
			want := m.lookup(p, inPort, now)
			if got != want || linear != want {
				t.Fatalf("op %d: Lookup = %p, lookupLinear = %p, model %p\ntable:\n%s", pc, got, linear, want, tb.Dump())
			}
		}
		if pending && *prev != build {
			t.Fatalf("op %d: a pending deferred batch built: %v, want %v", pc, *prev, build)
		}
		compareTable(t, pc, tb, m)
		if fmt.Sprint(realLog) != fmt.Sprint(m.evictLog) {
			t.Fatalf("op %d: eviction callbacks %v, model %v", pc, realLog, m.evictLog)
		}
	}
}

// compareTable checks everything observable about tb against the model, and
// the bag's and the index's own invariants. While a deferred batch is
// pending, only what leaves it pending is compared: the entries, their order
// and stamps are read (Entries, Conflicts) once an op has built it, so the
// next ops meet the batch unbuilt.
func compareTable(t *testing.T, pc int, tb *Table, m *modelTable) {
	t.Helper()
	checkIndex(t, tb)
	if tb.Len() != len(m.entries) {
		t.Fatalf("op %d: Len() = %d, model %d", pc, tb.Len(), len(m.entries))
	}
	if tb.pending.fill == nil {
		compareEntries(t, pc, tb, m)
	}
	if tb.byCookie != nil {
		indexed := 0
		// lint:ignore detrange counting and membership only; order does not matter
		for cookie, list := range tb.byCookie {
			if len(list) == 0 {
				t.Fatalf("op %d: cookie index keeps an empty list for cookie %d", pc, cookie)
			}
			for _, e := range list {
				if e.Cookie != cookie || tb.entries[e.pos] != e {
					t.Fatalf("op %d: cookie index lists a wrong or removed entry under %d", pc, cookie)
				}
			}
			indexed += len(list)
		}
		if indexed != len(tb.entries) {
			t.Fatalf("op %d: cookie index holds %d entries, table %d", pc, indexed, len(tb.entries))
		}
	}
	if tb.EvictedIdle != m.evictedIdle || tb.EvictedHard != m.evictedHard || tb.EvictedCapacity != m.evictedCapacity {
		t.Fatalf("op %d: evicted idle/hard/capacity = %d/%d/%d, model %d/%d/%d", pc,
			tb.EvictedIdle, tb.EvictedHard, tb.EvictedCapacity, m.evictedIdle, m.evictedHard, m.evictedCapacity)
	}
	ids := tb.GroupIDs()
	if len(ids) != len(m.groups) {
		t.Fatalf("op %d: %d groups, model %d", pc, len(ids), len(m.groups))
	}
	for _, id := range ids {
		if !m.groups[id] {
			t.Fatalf("op %d: group %d installed, not in the model", pc, id)
		}
	}
}

// compareEntries compares the table's entries in match order, with their
// stamps, bag positions and conflicts, against the model's.
func compareEntries(t *testing.T, pc int, tb *Table, m *modelTable) {
	t.Helper()
	got := tb.Entries()
	if len(got) != len(m.entries) {
		t.Fatalf("op %d: Entries() has %d entries, model %d", pc, len(got), len(m.entries))
	}
	for i, me := range m.entries {
		e := got[i]
		if e != me.real {
			t.Fatalf("op %d: Entries()[%d] is not the model's entry (match order differs)\ntable:\n%s", pc, i, tb.Dump())
		}
		if e.Installed != me.installed || e.LastUsed != me.lastUsed {
			t.Fatalf("op %d: entry %d stamped installed %v used %v, model %v / %v", pc, i, e.Installed, e.LastUsed, me.installed, me.lastUsed)
		}
		if int(e.pos) >= len(tb.entries) || tb.entries[e.pos] != e {
			t.Fatalf("op %d: entry %d does not sit at its bag position %d", pc, i, e.pos)
		}
		conf := tb.Conflicts(me.match, me.prio)
		if want := m.conflicts(me.match, me.prio); len(conf) != len(want) || len(conf) != 1 || conf[0] != want[0] {
			t.Fatalf("op %d: Conflicts of entry %d = %v, model %v", pc, i, conf, want)
		}
	}
}

// tableCorpus holds the shapes the bag and the cookie index must get right.
var tableCorpus = [][]byte{
	// Unbounded: inserts across priorities, a replace in place, a replace
	// under another cookie, then delete both cookies and look up.
	{0, 0, 0, 3, 2, 9, 1, 0, 0, 1, 2, 9, 1, 0, 0, 2, 4, 17, 2, 0, 2, 0, 0, 3, 1, 1, 0, 4, 1, 4, 2, 8, 3, 9, 4, 0, 8, 1, 9},
	// Capacity 3, deny: fill, refuse a fourth, replace at capacity, delete
	// by cookie (first use builds the index), insert into the freed slot.
	{2, 0, 0, 1, 3, 1, 1, 0, 0, 1, 3, 2, 1, 0, 0, 1, 3, 3, 1, 0, 0, 1, 3, 4, 1, 0, 2, 1, 0, 4, 1, 0, 1, 3, 5, 2, 0, 4, 2},
	// Capacity 2, LRU: evictable and pinned entries, lookups that refresh
	// LastUsed, time steps, inserts that evict the least recently used.
	{1, 1, 0, 2, 4, 40, 1, 1, 0, 2, 4, 41, 2, 0, 7, 3, 8, 0, 40, 7, 2, 0, 1, 4, 42, 3, 1, 8, 0, 41, 0, 0, 4, 43, 3, 1, 4, 1, 0, 3, 4, 44, 0, 1},
	// Idle and hard timeouts expiring together and apart, in match order.
	{0, 0, 0, 1, 2, 8, 1, 2, 0, 3, 2, 16, 2, 6, 0, 2, 2, 24, 3, 70, 7, 11, 5, 8, 2, 24, 7, 11, 5, 7, 30, 5},
	// The cookie index kept honest across replace-with-other-cookie, LRU
	// eviction and expiry after it exists.
	{3, 1, 4, 0, 0, 1, 1, 8, 1, 1, 0, 1, 2, 8, 1, 3, 3, 0, 2, 1, 0, 2, 3, 9, 2, 3, 0, 1, 2, 10, 3, 7, 4, 1, 7, 40, 5, 4, 2, 4, 3},
	// Replace with self (a retransmitted FlowMod): three priorities of one
	// match, each installed entry handed to TryInsert again — head, middle
	// and tail of its bucket — with deletes and lookups in between.
	{0, 0, 0, 3, 10, 9, 1, 0, 0, 1, 10, 9, 1, 0, 0, 2, 10, 9, 2, 0, 10, 0, 10, 1, 10, 2, 9, 1, 128, 4, 1, 10, 0, 9, 1, 128, 0, 3, 10, 9, 3, 0, 10, 1, 10, 0, 4, 2, 9, 1, 128, 4, 3},
	// Reinstall what left earlier (reinstall-on-miss after an eviction):
	// capacity 2 under LRU, the victim handed back (evicting another), then
	// pointers removed by DeleteByCookie and by idle expiry handed back, into
	// an empty bucket and into one that has since been refilled.
	{1, 1, 0, 2, 4, 40, 1, 1, 0, 2, 4, 48, 2, 1, 0, 1, 4, 56, 3, 1, 11, 0, 9, 0, 40, 4, 3, 11, 0, 11, 0, 4, 1, 7, 5, 0, 3, 4, 32, 4, 3, 7, 20, 5, 11, 2, 0, 2, 4, 40, 0, 1, 11, 0, 9, 0, 40, 10, 0},
	// Deferred batches, each over the last: the second builds the first and,
	// one of its shapes being in use, goes in at once, replacing an entry in
	// place; the third is deferred, the fourth builds it, a lookup the fourth.
	{0, 0, 12, 1, 11, 1, 2, 12, 32, 0, 1, 11, 160, 0, 12, 1, 12, 2, 2, 12, 32, 0, 3, 13, 8, 0, 0, 3, 64, 0,
		12, 2, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 12, 2, 9, 0, 0, 9, 0, 0, 8, 0, 32, 8, 1, 160},
	// DeleteByCookie before any read: of another cookie, which leaves the
	// batch unbuilt, then of the batch's, which builds and removes it with an
	// entry installed before it under the same cookie.
	{0, 0, 0, 1, 3, 32, 2, 0, 12, 2, 4, 2, 0, 12, 0, 0, 3, 12, 96, 0, 2, 10, 128, 0, 4, 3, 4, 2, 8, 0, 96},
	// A TryInsert on another shape leaves the batch unbuilt; one replacing a
	// batch entry under another cookie builds it first.
	{0, 0, 12, 1, 12, 1, 2, 11, 32, 0, 1, 12, 64, 0, 0, 0, 3, 0, 4, 0, 0, 2, 11, 32, 3, 0, 8, 1, 32, 4, 1},
	// Capacity 4 under LRU: a batch that exactly fits is deferred; a new
	// entry on another shape finds the table full, builds it and evicts the
	// least recently used; a batch that does not fit goes in at once,
	// evicting what it can and refused at the first entry it cannot place.
	{3, 1, 0, 0, 2, 8, 0, 1, 0, 0, 2, 16, 0, 1, 12, 1, 13, 1, 1, 13, 8, 0, 1, 13, 16, 0, 7, 1, 0, 0, 2, 24, 0, 1,
		12, 2, 11, 2, 1, 11, 32, 0, 1, 11, 64, 0, 1, 11, 96, 0, 8, 0, 32},
	// A lookup is the first read: group edits, a time step and an insert on
	// another shape leave the batch unbuilt; the lookup builds it and misses,
	// the next hits; then its idle entry expires.
	{0, 0, 12, 4, 3, 3, 0, 12, 0, 0, 1, 12, 32, 2, 2, 11, 32, 0, 3, 1, 1, 0, 6, 1, 0, 7, 3, 0, 0, 2, 8, 1, 0,
		8, 0, 32, 8, 0, 32, 7, 20, 5},
}

func TestTableMatchesSortedSliceModel(t *testing.T) {
	for _, prog := range tableCorpus {
		tableProgram(t, prog)
	}
	r := sim.NewRNG(15)
	for i := 0; i < 400; i++ {
		prog := make([]byte, 16+r.Intn(500))
		for j := range prog {
			prog[j] = byte(r.Uint64())
		}
		tableProgram(t, prog)
	}
}

func FuzzTableOps(f *testing.F) {
	for _, prog := range tableCorpus {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip()
		}
		tableProgram(t, prog)
	})
}
