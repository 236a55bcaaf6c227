package mic

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// shardFixture is a fat-tree fabric run by a ShardedMC.
type shardFixture struct {
	eng    *sim.Engine
	net    *netsim.Network
	smc    *ShardedMC
	stacks []*transport.Stack
	graph  *topo.Graph
}

func newShardFixture(t testing.TB, cfg Config, n int) *shardFixture {
	t.Helper()
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{PoolDebug: true})
	smc, err := NewShardedMC(net, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	f := &shardFixture{eng: eng, net: net, smc: smc, graph: g}
	for _, hid := range g.Hosts() {
		f.stacks = append(f.stacks, transport.NewStack(net.Host(hid)))
	}
	return f
}

// TestShardedDisjointIDSpaces checks the constructor's partitioning
// contract: per-shard InstanceIDs are base..base+n-1 in shard order and the
// flow-ID ranges tile the configured space without overlap or gaps.
func TestShardedDisjointIDSpaces(t *testing.T) {
	f := newShardFixture(t, Config{InstanceID: 7}, 4)
	prevHi := uint32(0)
	for i := 0; i < f.smc.Shards(); i++ {
		mc := f.smc.Shard(i)
		if got, want := mc.Cfg.InstanceID, uint32(7+i); got != want {
			t.Fatalf("shard %d InstanceID = %d, want %d", i, got, want)
		}
		r := mc.Cfg.IDSpace
		if r.Lo >= r.Hi {
			t.Fatalf("shard %d ID space [%d, %d) empty", i, r.Lo, r.Hi)
		}
		if i > 0 && r.Lo != prevHi {
			t.Fatalf("shard %d ID space starts at %d, want %d (no gaps, no overlap)", i, r.Lo, prevHi)
		}
		prevHi = r.Hi
	}
	if want := f.smc.Cfg.Widths.MaxFlowIDs(); prevHi != want {
		t.Fatalf("last shard ends at %d, want %d (full space tiled)", prevHi, want)
	}
}

// TestShardedEchoTransfers runs echo transfers from initiators spread over
// the fabric so multiple shards serve dials concurrently: data must arrive
// intact, channel IDs must carry their serving shard's InstanceID, and
// CloseChannel must route back by that ID.
func TestShardedEchoTransfers(t *testing.T) {
	f := newShardFixture(t, Config{MNs: 3, MFlows: 2}, 4)
	const pairs = 4
	replies := make([][]byte, pairs)
	infos := make([]*ChannelInfo, pairs)
	for i := 0; i < pairs; i++ {
		i := i
		resp := f.stacks[i*4+3]
		Listen(resp, 80, false, func(s *Stream) {
			s.OnData(func(b []byte) { s.Send(b) })
		})
		client := NewClient(f.stacks[i*4], f.smc) // hosts 0,4,8,12: distinct pods
		client.Dial(resp.Host.IP.String(), 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("dial %d: %v", i, err)
			}
			infos[i], _ = client.Channel(resp.Host.IP.String())
			s.OnData(func(b []byte) { replies[i] = append(replies[i], b...) })
			s.Send([]byte(fmt.Sprintf("ping-%d", i)))
		})
	}
	f.eng.Run()
	shardsUsed := map[uint32]bool{}
	for i := 0; i < pairs; i++ {
		if got, want := string(replies[i]), fmt.Sprintf("ping-%d", i); got != want {
			t.Fatalf("reply %d = %q, want %q", i, got, want)
		}
		if infos[i] == nil {
			t.Fatalf("no channel info for pair %d", i)
		}
		shardsUsed[uint32(infos[i].ID>>32)-f.smc.Cfg.InstanceID] = true
	}
	if len(shardsUsed) < 2 {
		t.Fatalf("all %d dials landed on one shard; want the edge partition to spread them", pairs)
	}
	if got := f.smc.LiveChannels(); got != pairs {
		t.Fatalf("live channels = %d, want %d", got, pairs)
	}
	for i := 0; i < pairs; i++ {
		if err := f.smc.CloseChannel(infos[i].ID, nil); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	f.eng.Run()
	if got := f.smc.LiveChannels(); got != 0 {
		t.Fatalf("live channels after close = %d, want 0", got)
	}
	if err := f.smc.CloseChannel(uint64(f.smc.Cfg.InstanceID+99)<<32, nil); err == nil {
		t.Fatal("closing a foreign-shard channel ID should error")
	}
}

// TestShardedUnitProbesOnce: a unit runs one liveness prober, over its lead
// shard's channel, and a switch it finds silently dead fails on every shard —
// channels of two different shards crossing it are both repaired.
func TestShardedUnitProbesOnce(t *testing.T) {
	f := newShardFixture(t, Config{AutoRepair: true, ProbeInterval: 5 * time.Millisecond, MNs: 2}, 4)
	// Hosts 0 and 1 sit behind shard 0's edge switch, 2 and 3 behind shard
	// 1's; every responder is in another pod.
	var ids []uint64
	for i, from := range []int{0, 1, 2, 3} {
		to := f.stacks[8+i*2].Host.IP.String()
		f.smc.EstablishChannel(f.stacks[from].Host.IP, to, ChannelOptions{}, func(info *ChannelInfo, err error) {
			if err != nil {
				t.Fatalf("dial from host %d: %v", from, err)
			}
			ids = append(ids, info.ID)
		})
	}
	f.eng.RunFor(20 * time.Millisecond)
	if len(ids) != 4 {
		t.Fatalf("%d of 4 dials answered", len(ids))
	}
	for i := 0; i < f.smc.Shards(); i++ {
		if n := f.smc.Shard(i).Ch.Echoes; (n > 0) != (i == 0) {
			t.Fatalf("shard %d sent %d echoes; want only the lead shard probing", i, n)
		}
	}
	// The victim is an interior switch crossed by a channel of each shard.
	shardOf := func(id uint64) *MC { return f.smc.Shard(int(id>>32) - int(f.smc.Cfg.InstanceID)) }
	crossing := func(node topo.NodeID) []uint64 {
		var over []uint64
		for _, id := range ids {
			for _, fl := range shardOf(id).channels[id].info.Flows {
				if slices.Contains(fl.Path[2:len(fl.Path)-2], node) {
					over = append(over, id)
					break
				}
			}
		}
		return over
	}
	victim, over := topo.NodeID(-1), []uint64(nil)
	for _, sw := range f.graph.Switches() {
		over = crossing(sw)
		if slices.ContainsFunc(over, func(id uint64) bool { return shardOf(id) != shardOf(over[0]) }) {
			victim = sw
			break
		}
	}
	if victim < 0 {
		t.Fatal("no interior switch carries channels of two shards")
	}
	f.net.SetSwitchDownQuiet(victim, true)
	f.eng.RunFor(200 * time.Millisecond)
	if n := len(crossing(victim)); n != 0 {
		t.Fatalf("%d of the %d channels over the dead switch still cross it", n, len(over))
	}
	for _, id := range over {
		if shardOf(id).Repairs == 0 {
			t.Fatalf("channel %d's shard repaired nothing", id)
		}
	}
	f.smc.StopProber()
	for i := 0; i < f.smc.Shards(); i++ {
		checkBooks(t, f.smc.Shard(i))
	}
}

// TestShardedFailoverTakeover runs the cluster takeover with four-shard
// units: the active unit journals channels from several shards, then its
// controller host dies. The standby's watchdog detects the silence; the
// takeover replays the shared journal — routing each record to its minting
// shard — reconciles the switches against the union intent, and must pass a
// clean audit and serve new dials.
func TestShardedFailoverTakeover(t *testing.T) {
	f := newClusterFixture(t, Config{MNs: 3, MFlows: 2, AutoRepair: true}, ClusterConfig{Shards: 4, Standbys: 1})
	var stats []TakeoverStats
	f.cl.OnTakeover = func(ts TakeoverStats) { stats = append(stats, ts) }

	const pairs = 3
	data := pattern(64 << 10)
	got := make([][]byte, pairs)
	for i := 0; i < pairs; i++ {
		i := i
		resp := f.stacks[i*4+3]
		Listen(resp, 80, false, func(s *Stream) {
			s.OnData(func(b []byte) { got[i] = append(got[i], b...) })
		})
		client := NewClient(f.stacks[i*4], f.cl)
		client.Dial(resp.Host.IP.String(), 80, func(s *Stream, err error) {
			if err != nil {
				t.Fatalf("dial %d: %v", i, err)
			}
			s.Send(data)
		})
	}
	// Let the dials establish and the transfers start, then kill the host.
	f.eng.RunUntil(sim.Time(20 * time.Millisecond))
	shardsSeen := map[uint32]bool{}
	for _, r := range f.cl.Journal.Records() {
		shardsSeen[r.Shard] = true
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("journal records span %d shards, want >= 2 for a meaningful replay", len(shardsSeen))
	}
	f.net.SetCtrlHostDown(0, true)

	// The transfers must complete through the takeover: installed rules keep
	// forwarding while the control plane is being rebuilt.
	f.eng.RunUntil(sim.Time(3 * time.Second))
	for i := 0; i < pairs; i++ {
		if !bytes.Equal(got[i], data) {
			t.Fatalf("transfer %d through sharded takeover broken: %d/%d bytes", i, len(got[i]), len(data))
		}
	}
	if len(stats) != 1 || f.cl.ActiveIndex() != 1 {
		t.Fatalf("takeovers = %d, active = %d; want the standby promoted once", len(stats), f.cl.ActiveIndex())
	}
	if stats[0].StaleDeleted != 0 {
		t.Fatalf("reconciliation deleted %d rules as stale; union intent should cover every live rule", stats[0].StaleDeleted)
	}
	if st, miss := f.cl.Audit(); st != 0 || miss != 0 {
		t.Fatalf("post-takeover audit: stale=%d missing=%d, want 0/0", st, miss)
	}
	if got, want := f.cl.members[1].unit.LiveChannels(), pairs; got != want || stats[0].Channels != want {
		t.Fatalf("promoted unit live channels = %d (takeover rebuilt %d), want %d", got, stats[0].Channels, want)
	}

	// The promoted sharded unit must serve fresh dials.
	resp := f.stacks[10]
	Listen(resp, 81, false, func(s *Stream) {
		s.OnData(func(b []byte) { s.Send(b) })
	})
	var reply []byte
	client := NewClient(f.stacks[5], f.cl)
	client.Dial(resp.Host.IP.String(), 81, func(s *Stream, err error) {
		if err != nil {
			t.Fatalf("post-takeover dial: %v", err)
		}
		s.OnData(func(b []byte) { reply = append(reply, b...) })
		s.Send([]byte("after takeover"))
	})
	f.settle(4 * time.Second)
	if string(reply) != "after takeover" {
		t.Fatalf("post-takeover reply = %q", reply)
	}
}

// TestShardedReplayRejectsUnknownShard: a journal record naming a shard the
// cluster's units do not have (a differently sharded writer on the log) must
// be refused at every promotion's rebuild — here member 1's takeover, then
// member 0's after it rejoined and member 1 died — never merged into some
// other shard or indexed out of range.
func TestShardedReplayRejectsUnknownShard(t *testing.T) {
	f := newClusterFixture(t, Config{}, ClusterConfig{Shards: 2})
	f.cl.Journal.Append(Record{Kind: RecOpen, Channel: 1, Shard: 3})
	noneFolded := func() {
		t.Helper()
		for i, m := range f.cl.members {
			if n := m.unit.LiveChannels(); n != 0 {
				t.Fatalf("member %d folded the foreign record into %d channels", i, n)
			}
		}
	}
	f.net.SetCtrlHostDown(0, true)
	f.eng.RunFor(50 * time.Millisecond)
	if f.cl.Takeovers() != 1 || f.cl.ActiveIndex() != 1 || f.cl.RecordsRefused != 1 {
		t.Fatalf("takeovers = %d, active = %d, refused = %d; want member 1 promoted refusing the record once",
			f.cl.Takeovers(), f.cl.ActiveIndex(), f.cl.RecordsRefused)
	}
	noneFolded()
	f.net.SetCtrlHostDown(0, false) // member 0 rejoins as an empty standby
	f.eng.RunFor(10 * time.Millisecond)
	f.net.SetCtrlHostDown(1, true)
	f.eng.RunFor(50 * time.Millisecond)
	if f.cl.Takeovers() != 2 || f.cl.ActiveIndex() != 0 || f.cl.RecordsRefused != 2 {
		t.Fatalf("takeovers = %d, active = %d, refused = %d; want member 0 promoted refusing the record again",
			f.cl.Takeovers(), f.cl.ActiveIndex(), f.cl.RecordsRefused)
	}
	noneFolded()
	f.settle(100 * time.Millisecond)
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
