package flowtable

import (
	"errors"
	"testing"

	"mic/internal/addr"
)

// --- TCAM capacity model: deny-new, LRU eviction, per-reason counters ----

func capEntry(prio int, dst addr.IP, evictable bool) *Entry {
	return &Entry{
		Priority:  prio,
		Match:     Match{Mask: MatchIPDst, IPDst: dst},
		Evictable: evictable,
	}
}

func TestCapacityDenyNewByDefault(t *testing.T) {
	tb := NewTable()
	tb.Capacity = 2
	if err := tb.TryInsert(capEntry(1, 10, true), 0); err != nil {
		t.Fatalf("insert 1: %v", err)
	}
	if err := tb.TryInsert(capEntry(2, 11, true), 0); err != nil {
		t.Fatalf("insert 2: %v", err)
	}
	err := tb.TryInsert(capEntry(3, 12, true), 0)
	if !errors.Is(err, ErrTableFull) {
		t.Fatalf("insert at capacity: err = %v, want ErrTableFull", err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d after denied insert, want 2", tb.Len())
	}
	if tb.EvictedCapacity != 0 {
		t.Fatalf("EvictedCapacity = %d under deny-new, want 0", tb.EvictedCapacity)
	}
}

// TestCapacityReplaceAtCapacity: replace-in-place never counts against
// capacity — a full table must still accept an update of an existing rule
// (same match, same priority), the FlowMod-modify case.
func TestCapacityReplaceAtCapacity(t *testing.T) {
	tb := NewTable()
	tb.Capacity = 1
	old := capEntry(5, 10, false)
	if err := tb.TryInsert(old, 0); err != nil {
		t.Fatalf("insert: %v", err)
	}
	repl := capEntry(5, 10, false)
	repl.Cookie = 99
	if err := tb.TryInsert(repl, 0); err != nil {
		t.Fatalf("replace at capacity: %v", err)
	}
	if tb.Len() != 1 || tb.Entries()[0].Cookie != 99 {
		t.Fatalf("replace did not take: len=%d", tb.Len())
	}
}

func TestCapacityLRUEviction(t *testing.T) {
	tb := NewTable()
	tb.Capacity = 2
	tb.Policy = EvictLRU
	var evicted []*Entry
	tb.OnEvict = func(e *Entry) { evicted = append(evicted, e) }

	a := capEntry(1, 10, true)
	b := capEntry(2, 11, true)
	tb.TryInsert(a, 0)
	tb.TryInsert(b, 1)
	// Touch a at t=5 so b (LastUsed 1) is the LRU victim.
	pa := pkt()
	pa.DstIP = 10
	tb.Lookup(pa, 0, 5)

	c := capEntry(3, 12, true)
	if err := tb.TryInsert(c, 6); err != nil {
		t.Fatalf("insert with LRU eviction: %v", err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	if len(evicted) != 1 || evicted[0] != b {
		t.Fatalf("evicted %v, want the LRU entry b", evicted)
	}
	if tb.EvictedCapacity != 1 {
		t.Fatalf("EvictedCapacity = %d, want 1", tb.EvictedCapacity)
	}
}

// TestCapacityLRUSparesPinnedEntries: only Evictable entries may be
// displaced — a table full of pinned (common-routing) rules denies the
// insert even under EvictLRU.
func TestCapacityLRUSparesPinnedEntries(t *testing.T) {
	tb := NewTable()
	tb.Capacity = 2
	tb.Policy = EvictLRU
	tb.TryInsert(capEntry(1, 10, false), 0)
	tb.TryInsert(capEntry(2, 11, false), 0)
	err := tb.TryInsert(capEntry(3, 12, true), 1)
	if !errors.Is(err, ErrTableFull) {
		t.Fatalf("insert over pinned table: err = %v, want ErrTableFull", err)
	}
	if tb.Len() != 2 || tb.EvictedCapacity != 0 {
		t.Fatalf("pinned entries disturbed: len=%d evicted=%d", tb.Len(), tb.EvictedCapacity)
	}
}

// TestCapacityEvictionInvalidatesCache: a microflow-cache hit on an entry
// evicted at capacity must miss afterwards (generation bump), never serve
// the dead pointer.
func TestCapacityEvictionInvalidatesCache(t *testing.T) {
	tb := NewTable()
	tb.Capacity = 1
	tb.Policy = EvictLRU
	victim := &Entry{Priority: 5, Match: Match{Mask: MatchIPDst, IPDst: pkt().DstIP}, Evictable: true}
	tb.TryInsert(victim, 0)
	tb.Lookup(pkt(), 0, 1)
	if got, hit := tb.Lookup(pkt(), 0, 2); !hit || got != victim {
		t.Fatalf("warmup lookup = %v hit %v, want cached victim", got, hit)
	}

	newcomer := capEntry(1, 99, true)
	if err := tb.TryInsert(newcomer, 3); err != nil {
		t.Fatalf("evicting insert: %v", err)
	}
	got, hit := tb.Lookup(pkt(), 0, 4)
	if hit {
		t.Fatal("stale cache entry served after capacity eviction")
	}
	if got != nil {
		t.Fatalf("lookup after eviction = %+v, want table miss", got)
	}
}

// TestFailedInsertKeepsCacheWarm: a denied TryInsert mutates nothing, so it
// must not bump the cache generation — the hot path keeps its hits.
func TestFailedInsertKeepsCacheWarm(t *testing.T) {
	tb := NewTable()
	tb.Capacity = 1
	e := &Entry{Priority: 5, Match: Match{Mask: MatchIPDst, IPDst: pkt().DstIP}}
	tb.TryInsert(e, 0)
	tb.Lookup(pkt(), 0, 1)
	if _, hit := tb.Lookup(pkt(), 0, 2); !hit {
		t.Fatal("warmup did not cache")
	}
	if err := tb.TryInsert(capEntry(1, 77, true), 3); !errors.Is(err, ErrTableFull) {
		t.Fatalf("expected ErrTableFull, got %v", err)
	}
	if _, hit := tb.Lookup(pkt(), 0, 4); !hit {
		t.Fatal("failed insert invalidated the cache")
	}
}
