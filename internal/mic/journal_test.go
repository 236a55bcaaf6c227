package mic

import (
	"testing"
	"time"
)

// TestIDAllocatorRecyclesAndExhausts pins the allocator's contract: fresh
// IDs come from a bump counter, released IDs are reused LIFO, and an empty
// space is an error — not a wraparound.
func TestIDAllocatorRecyclesAndExhausts(t *testing.T) {
	a := newIDAllocator(10, 14)
	var ids []uint32
	for i := 0; i < 4; i++ {
		id, err := a.alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if ids[0] != 10 || ids[3] != 13 {
		t.Fatalf("fresh allocs = %v, want 10..13", ids)
	}
	if _, err := a.alloc(); err == nil {
		t.Fatal("alloc from exhausted space succeeded")
	}
	if got := a.inUse(); got != 4 {
		t.Fatalf("inUse = %d, want 4", got)
	}

	a.release(11)
	a.release(13)
	if got := a.inUse(); got != 2 {
		t.Fatalf("inUse after releases = %d, want 2", got)
	}
	if id, err := a.alloc(); err != nil || id != 13 {
		t.Fatalf("first re-alloc = %d, %v, want 13 (LIFO)", id, err)
	}
	if id, err := a.alloc(); err != nil || id != 11 {
		t.Fatalf("second re-alloc = %d, %v, want 11", id, err)
	}
	if _, err := a.alloc(); err == nil {
		t.Fatal("space should be exhausted again")
	}
}

// TestIDAllocatorRestore checks the journal-replay normalization: after
// restore, the free list is every unheld ID below the high-water mark in
// ascending order, live IDs are never handed out again, and draining the
// whole space yields each remaining ID exactly once.
func TestIDAllocatorRestore(t *testing.T) {
	a := newIDAllocator(0, 16)
	live := map[uint32]bool{3: true, 7: true}
	a.restore(10, live)
	if a.inUse() != 2 {
		t.Fatalf("inUse after restore = %d, want 2", a.inUse())
	}
	seen := map[uint32]bool{}
	for {
		id, err := a.alloc()
		if err != nil {
			break
		}
		if live[id] {
			t.Fatalf("restore handed out live ID %d", id)
		}
		if seen[id] {
			t.Fatalf("restore handed out ID %d twice", id)
		}
		seen[id] = true
	}
	if len(seen) != 14 { // 16-ID space minus the 2 live ones
		t.Fatalf("drained %d IDs, want 14", len(seen))
	}

	// Out-of-range high-water marks clamp to the space bounds.
	b := newIDAllocator(5, 8)
	b.restore(100, nil)
	if b.next != 8 {
		t.Fatalf("restore(100) on [5,8): next = %d, want 8", b.next)
	}
	b.restore(2, nil)
	if b.next != 5 || len(b.free) != 0 {
		t.Fatalf("restore(2) on [5,8): next = %d free = %v, want 5 and empty", b.next, b.free)
	}
}

// TestIDAllocatorDoubleRelease is the regression test for the allocator
// double-release bug: releasing the same flow ID twice used to enqueue it on
// the free list twice, after which two different m-flows could be handed the
// same ID — colliding MAGA tuples across channels.
func TestIDAllocatorDoubleRelease(t *testing.T) {
	a := newIDAllocator(0, 4)
	id, err := a.alloc()
	if err != nil {
		t.Fatal(err)
	}
	a.release(id)
	a.release(id) // must be a no-op, not a second free-list entry
	seen := map[uint32]bool{}
	for {
		got, err := a.alloc()
		if err != nil {
			break // space exhausted
		}
		if seen[got] {
			t.Fatalf("allocator handed out flow ID %d twice after double release", got)
		}
		seen[got] = true
	}
	if len(seen) != 4 {
		t.Fatalf("allocated %d distinct IDs from a 4-ID space, want 4", len(seen))
	}
}

// TestJournalCompactionBoundsLength churns open/close pairs through a
// small-threshold journal and asserts the log length tracks live state,
// not history — while the counter high-waters and live facts survive.
func TestJournalCompactionBoundsLength(t *testing.T) {
	j := &Journal{SnapshotEvery: 8}
	j.Append(Record{Kind: RecHidden, Name: "svc"})
	j.Append(Record{Kind: RecOpen, Channel: 999, AllocNext: 4, NextGroup: 1})
	for i := uint64(1); i <= 50; i++ {
		j.Append(Record{Kind: RecOpen, Channel: i, AllocNext: uint32(4 + 2*i)})
		j.Append(Record{Kind: RecUpdate, Channel: i, Epoch: 1})
		j.Append(Record{Kind: RecClose, Channel: i})
	}
	if j.Snapshots == 0 {
		t.Fatal("no compaction happened")
	}
	if j.Len() >= 16 { // 2 live facts + a tail strictly shorter than the threshold
		t.Fatalf("journal length %d after churn; compaction is not folding closed channels", j.Len())
	}
	var hidden, open999, closed int
	for _, r := range j.Records() {
		switch {
		case r.Kind == RecHidden:
			hidden++
		case r.Kind == RecOpen && r.Channel == 999:
			open999++
		case r.Kind == RecClose:
			closed++
		}
	}
	if hidden != 1 || open999 != 1 {
		t.Fatalf("live facts after compaction: hidden=%d open999=%d, want 1/1", hidden, open999)
	}
	if j.allocHigh != 104 || j.chanHigh != 1000 || j.groupHigh != 1 {
		t.Fatalf("high-waters alloc/chan/group = %d/%d/%d, want 104/1000/1", j.allocHigh, j.chanHigh, j.groupHigh)
	}
}

// TestReplayedAllocatorAvoidsCollisions is the failover version of the
// allocator contract: channels opened and closed before the kill permute
// the primary's free list in ways the journal never records, yet flow IDs
// allocated by the promoted standby must not collide with IDs still held
// by surviving channels.
func TestReplayedAllocatorAvoidsCollisions(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3, MFlows: 2}, ClusterConfig{})
	pairs := [][2]int{{0, 15}, {1, 14}, {2, 13}}
	clients := make([]*Client, len(pairs))
	for i, p := range pairs {
		Listen(f.stacks[p[1]], 80, false, func(s *Stream) {})
		clients[i] = NewClient(f.stacks[p[0]], f.cl)
		target := f.stacks[p[1]].Host.IP.String()
		clients[i].Dial(target, 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
		})
	}
	f.eng.RunFor(6 * time.Millisecond)

	// Close the middle channel so its IDs land on the primary's free list —
	// state the journal records only as a close, never as a free-list order.
	info, ok := clients[1].Channel(f.stacks[14].Host.IP.String())
	if !ok {
		t.Fatal("no channel for pair 1")
	}
	f.cl.CloseChannel(info.ID, nil)
	f.eng.RunFor(2 * time.Millisecond)

	f.net.SetCtrlHostDown(0, true)
	f.eng.RunFor(50 * time.Millisecond)
	if f.cl.Takeovers() != 1 {
		t.Fatalf("takeovers = %d, want 1", f.cl.Takeovers())
	}

	// The promoted standby allocates for fresh channels out of replayed
	// allocator state.
	for _, p := range [][2]int{{4, 11}, {5, 10}} {
		Listen(f.stacks[p[1]], 80, false, func(s *Stream) {})
		c := NewClient(f.stacks[p[0]], f.cl)
		c.Dial(f.stacks[p[1]].Host.IP.String(), 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("post-takeover dial: %v", err)
			}
		})
	}
	f.eng.RunFor(10 * time.Millisecond)
	f.cl.Stop()
	f.eng.Run()

	mc := f.cl.ActiveMC()
	if n := mc.LiveChannels(); n != 4 {
		t.Fatalf("live channels = %d, want 4 (2 survivors + 2 new)", n)
	}
	seen := map[uint32]uint64{}
	for _, id := range sortedChanIDs(mc.channels) {
		for _, r := range mc.channels[id].res {
			for _, fid := range [2]uint32{r.fwdID, r.revID} {
				if prev, dup := seen[fid]; dup {
					t.Fatalf("flow ID %d allocated to both channel %d and %d after failover", fid, prev, id)
				}
				seen[fid] = id
			}
		}
	}
	verify(t, f)
}
