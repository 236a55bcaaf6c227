package mic

import (
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"mic/internal/addr"
	"mic/internal/flowtable"
	"mic/internal/maga"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// establishCloseBudget bounds the heap allocations of one EstablishChannel +
// CloseChannel round on an idle fat-tree(4) controller — the benchmark's
// mic.establish_allocs kernel: 13 measured, 15 under the race detector (CI
// runs the suite both ways), plus 25 %. What remains is what the channel
// keeps — its state and the ChannelInfo handed to the client, a list each
// for its flow resources and flows, the path and the MN list — plus two
// records and the functions bound to them: the dial's record, its step and
// its install completion, and the close's record and the one completion all
// its switches' deletes share; and the test's callback and address
// formatting. A round's rule storage — slabs, rule list, mod list — is the
// store the previous round's close gave back, and a close's switch list is
// MC scratch; nothing the flow tables or the link and switch indexes do
// allocates, nor do address parsing, pools, candidate paths, tuple chains,
// plan scratch or southbound messages. The closure-per-message control plane
// spent 406, the map-indexed, boxed-action one 83, the one that kept seven
// derived lists per channel 36, the one that allocated every channel's
// storage afresh 31, the one that chained a dial's and a close's steps as
// closures 26.
const establishCloseBudget = 16

func TestEstablishCloseAllocBudget(t *testing.T) {
	f := newFixture(t, Config{MNs: 3})
	i := 0
	round := func() {
		from, to := f.hostIP(i%8), f.hostIP(8+i%8)
		i++
		f.mc.EstablishChannel(from, to.String(), ChannelOptions{}, func(info *ChannelInfo, err error) {
			if err == nil {
				err = f.mc.CloseChannel(info.ID, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		f.eng.Run()
	}
	// Warm up: the plan cache of all eight host pairs, the message and
	// install free lists, the per-link channel sets, the scratch buffers.
	for w := 0; w < 16; w++ {
		round()
	}
	allocs := testing.AllocsPerRun(400, round)
	t.Logf("EstablishChannel+CloseChannel: %.0f allocs", allocs)
	if allocs > establishCloseBudget {
		t.Fatalf("EstablishChannel+CloseChannel allocated %.0f times, budget %d", allocs, establishCloseBudget)
	}
	if f.mc.LiveChannels() != 0 {
		t.Fatalf("%d channels left open", f.mc.LiveChannels())
	}
}

// TestClosedChannelStorageReused: the next dial builds its rules in the store
// of a cleanly closed channel — its first entry sits where the closed
// channel's did — or of an epoch a repair superseded and every switch purged,
// but not in the store of a close or purge a dead switch could not confirm,
// nor in that of a channel rebuilt from the journal, whose entries another
// controller life carved. MNs 5 makes every switch of a cross-pod path an MN,
// so every dial over one templates as many rules and actions as the last.
func TestClosedChannelStorageReused(t *testing.T) {
	cfg := Config{MNs: 5}
	dial := func(t *testing.T, eng *sim.Engine, cp ControlPlane, from, to addr.IP) *ChannelInfo {
		t.Helper()
		var info *ChannelInfo
		cp.EstablishChannel(from, to.String(), ChannelOptions{}, func(ci *ChannelInfo, err error) {
			if err != nil {
				t.Fatalf("establish: %v", err)
			}
			info = ci
		})
		eng.RunFor(10 * time.Millisecond)
		if info == nil {
			t.Fatal("dial not answered")
		}
		return info
	}
	firstEntry := func(mc *MC, id uint64) *flowtable.Entry { return mc.channels[id].rules[0].entry }

	t.Run("clean close", func(t *testing.T) {
		f := newFixture(t, cfg)
		info := dial(t, f.eng, f.mc, f.hostIP(0), f.hostIP(15))
		old := firstEntry(f.mc, info.ID)
		if err := f.mc.CloseChannel(info.ID, nil); err != nil {
			t.Fatal(err)
		}
		f.eng.RunFor(10 * time.Millisecond)
		if len(f.mc.storeFree) != 1 {
			t.Fatalf("%d stores on the free list after a clean close, want 1", len(f.mc.storeFree))
		}
		next := dial(t, f.eng, f.mc, f.hostIP(1), f.hostIP(14))
		if firstEntry(f.mc, next.ID) != old {
			t.Fatal("the next dial's first entry is not in the closed channel's slab")
		}
		verify(t, f)
	})

	t.Run("close with a switch down", func(t *testing.T) {
		f := newFixture(t, Config{MNs: 5, AutoRepair: true})
		info := dial(t, f.eng, f.mc, f.hostIP(0), f.hostIP(15))
		old := firstEntry(f.mc, info.ID)
		victim := info.Flows[0].Path[3]
		f.net.SetSwitchDownQuiet(victim, true)
		if err := f.mc.CloseChannel(info.ID, nil); err != nil {
			t.Fatal(err)
		}
		f.eng.RunFor(2 * time.Second)
		f.net.SetSwitchDown(victim, false)
		f.eng.RunFor(2 * time.Second)
		if len(f.mc.storeFree) != 0 {
			t.Fatal("a close the dead switch never confirmed put its store on the free list")
		}
		next := dial(t, f.eng, f.mc, f.hostIP(1), f.hostIP(14))
		if firstEntry(f.mc, next.ID) == old {
			t.Fatal("the next dial reused the slab of a close a dead switch never confirmed")
		}
		verify(t, f)
	})

	t.Run("repair purge confirmed", func(t *testing.T) {
		f := newFixture(t, Config{MNs: 5, AutoRepair: true})
		info := dial(t, f.eng, f.mc, f.hostIP(0), f.hostIP(15))
		old := firstEntry(f.mc, info.ID)
		cutFirstInterSwitchLink(t, f, info.Flows[0].Path)
		f.eng.RunFor(10 * time.Millisecond)
		if f.mc.Repairs != 1 || firstEntry(f.mc, info.ID) == old {
			t.Fatalf("%d repairs; the channel still has its first epoch's entries: %v", f.mc.Repairs, firstEntry(f.mc, info.ID) == old)
		}
		if len(f.mc.storeFree) != 1 {
			t.Fatalf("%d stores on the free list after a purge every switch confirmed, want 1", len(f.mc.storeFree))
		}
		next := dial(t, f.eng, f.mc, f.hostIP(1), f.hostIP(14))
		if firstEntry(f.mc, next.ID) != old {
			t.Fatal("the next dial's first entry is not in the superseded epoch's slab")
		}
		verify(t, f)
	})

	t.Run("repair purge with a switch down", func(t *testing.T) {
		f := newFixture(t, Config{MNs: 5, AutoRepair: true})
		info := dial(t, f.eng, f.mc, f.hostIP(0), f.hostIP(15))
		old := firstEntry(f.mc, info.ID)
		victim := info.Flows[0].Path[3] // the core switch: the repair routes around it
		f.net.SetSwitchDown(victim, true)
		f.eng.RunFor(2 * time.Second)
		if f.mc.Repairs != 1 || firstEntry(f.mc, info.ID) == old {
			t.Fatalf("%d repairs; the channel still has its first epoch's entries: %v", f.mc.Repairs, firstEntry(f.mc, info.ID) == old)
		}
		f.net.SetSwitchDown(victim, false)
		f.eng.RunFor(2 * time.Second)
		if len(f.mc.storeFree) != 0 {
			t.Fatal("a purge the dead switch never confirmed put its store on the free list")
		}
		next := dial(t, f.eng, f.mc, f.hostIP(1), f.hostIP(14))
		if firstEntry(f.mc, next.ID) == old {
			t.Fatal("the next dial reused the slab of a purge a dead switch never confirmed")
		}
		verify(t, f)
	})

	t.Run("journal-replayed channel", func(t *testing.T) {
		f := newClusterFixture(t, cfg, ClusterConfig{})
		info := dial(t, f.eng, f.cl, f.stacks[0].Host.IP, f.stacks[15].Host.IP)
		old := firstEntry(f.cl.activeMember().mc, info.ID)
		f.net.SetCtrlHostDown(0, true)
		f.eng.RunFor(2 * time.Second)
		if f.cl.Takeovers() != 1 {
			t.Fatalf("takeovers = %d, want 1", f.cl.Takeovers())
		}
		mc := f.cl.activeMember().mc
		if firstEntry(mc, info.ID) != old {
			t.Fatal("the promoted standby does not hold the dead life's entries")
		}
		if err := f.cl.CloseChannel(info.ID, nil); err != nil {
			t.Fatal(err)
		}
		f.eng.RunFor(10 * time.Millisecond)
		if len(mc.storeFree) != 0 {
			t.Fatal("closing a channel rebuilt from the journal put its store on the free list")
		}
		next := dial(t, f.eng, f.cl, f.stacks[1].Host.IP, f.stacks[14].Host.IP)
		if firstEntry(mc, next.ID) == old {
			t.Fatal("the next dial reused a slab the dead controller life carved")
		}
		f.settle(3 * time.Second)
		verify(t, f)
	})
}

// TestPathLoadAllocs pins the failure indexes' steady state: booking a path
// on the link-load table and the per-link and per-switch channel sets and
// taking it off again allocates nothing — the channel keeps no list of its
// links or switches; both are read off the path.
func TestPathLoadAllocs(t *testing.T) {
	f := newFixture(t, Config{})
	g := f.graph
	flows := []FlowInfo{{Path: g.EqualCostPaths(g.Hosts()[0], g.Hosts()[15], 1)[0]}}
	st := &channelState{id: 7, opts: ChannelOptions{MFlows: 1}}
	round := func() {
		f.mc.book(st, nil, flows, nil)
		f.mc.unbook(st, nil, flows, nil)
	}
	round() // the sets' first members
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("book+unbook of a path allocated %.0f times in steady state, want 0", allocs)
	}
	for l, load := range f.mc.linkLoad {
		if load != 0 || len(f.mc.linkChannels[l]) != 0 {
			t.Fatalf("link %d left with load %d, channels %v", l, load, f.mc.linkChannels[l])
		}
	}
}

// TestTemplateFlowFitsItsSlab checks the templater's slab sizing over MN
// counts and multicast fan-outs: every entry of an m-flow lies in one array
// and every action list in another, back to back. A slab sized too small
// would have moved on to a second array part-way — correct, but it is the
// allocation per rule the slab exists to avoid.
func TestTemplateFlowFitsItsSlab(t *testing.T) {
	for mns := 1; mns <= 5; mns++ {
		for fanout := 1; fanout <= 3; fanout++ {
			f := newFixture(t, Config{MNs: mns, MulticastFanout: fanout})
			for trial := 0; trial < 20; trial++ {
				from, to := f.graph.Hosts()[trial%16], f.graph.Hosts()[(trial*7+5)%16]
				if from == to {
					continue
				}
				opts := ChannelOptions{}.withDefaults(f.mc.Cfg)
				plan, err := f.mc.planFlow(from, to, opts)
				if err != nil {
					t.Fatal(err)
				}
				initIP, respIP := f.graph.Node(from).IP, f.graph.Node(to).IP
				res := flowRes{entry: f.hostIP(3), finalSrc: f.hostIP(4), fwdID: 1, revID: 2}
				recs, _, _, _ := f.mc.templateFlow(plan, res, initIP, respIP, opts, 99, 0, flowtable.Slab{})

				var lists [][]flowtable.Action
				for i, rr := range recs {
					if want := unsafe.Add(unsafe.Pointer(recs[0].entry), uintptr(i)*unsafe.Sizeof(flowtable.Entry{})); unsafe.Pointer(rr.entry) != want {
						t.Fatalf("MNs %d fanout %d: rule %d of %d is not carved next to its predecessor", mns, fanout, i, len(recs))
					}
					if len(rr.entry.Actions) > 0 {
						lists = append(lists, rr.entry.Actions)
					}
					if rr.group != nil {
						for _, b := range rr.group.Buckets[1:] { // bucket 0 is a rule's own list, counted when met
							lists = append(lists, b.Actions)
						}
						lists = append(lists, rr.group.Buckets[0].Actions)
					}
				}
				sort.Slice(lists, func(i, j int) bool {
					return uintptr(unsafe.Pointer(&lists[i][0])) < uintptr(unsafe.Pointer(&lists[j][0]))
				})
				for i := 1; i < len(lists); i++ {
					prev := lists[i-1]
					if end := unsafe.Add(unsafe.Pointer(&prev[0]), uintptr(len(prev))*unsafe.Sizeof(prev[0])); unsafe.Pointer(&lists[i][0]) != end {
						t.Fatalf("MNs %d fanout %d: action list %d of %d does not start where the one before it ends", mns, fanout, i, len(lists))
					}
				}
			}
		}
	}
}

// TestClusterBeatsAllocNothing: a steady two-member cluster's heartbeat
// interval — the active's beat and its lease renewal, the standby's
// watchdog check — allocates nothing. The tickers and the lease check are
// timers bound when the member joined, and a beat in flight is a pooled
// record carrying the callbacks the members bound then.
func TestClusterBeatsAllocNothing(t *testing.T) {
	f := newClusterFixture(t, Config{}, ClusterConfig{Standbys: 1})
	f.eng.RunFor(10 * DefaultHeartbeatInterval) // the beat records' first uses
	sent := f.cl.Telemetry().Get("heartbeats_sent")
	allocs := testing.AllocsPerRun(100, func() { f.eng.RunFor(DefaultHeartbeatInterval) })
	if allocs != 0 {
		t.Fatalf("a heartbeat interval allocates %v times, want 0", allocs)
	}
	if beats := f.cl.Telemetry().Get("heartbeats_sent") - sent; beats != 101 {
		t.Fatalf("%d beats over 101 intervals, want one each", beats)
	}
	if missed := f.cl.Telemetry().Get("heartbeats_missed"); missed != 0 || f.cl.Takeovers() != 0 {
		t.Fatalf("%d missed beats, %d takeovers on a steady cluster", missed, f.cl.Takeovers())
	}
	f.settle(time.Duration(f.eng.Now()))
}

// TestNewMCBuildBudget bounds what building a controller's testbed allocates
// (netsim.New plus NewMC, the graph built beforehand): 1 MB on fat-tree(8),
// 40 MB on fat-tree(16). Common routing is counted but not carved until a
// switch's table is first read, so a testbed that forwards nothing never
// builds its two rules per host on every switch, and the m-address pools are
// carved from one array. Before both, the build allocated 5.66 MB and
// 189 MB; with deferred common routing alone, 0.64 MB and 30 MB; with both,
// 0.51 MB and 11.7 MB.
func TestNewMCBuildBudget(t *testing.T) {
	for _, c := range []struct {
		k      int
		budget uint64
	}{{8, 1e6}, {16, 40e6}} {
		g, err := topo.FatTree(c.k)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net := netsim.New(sim.New(), g, netsim.Config{})
		mc, err := NewMC(net, Config{MNs: 3, MFlows: 2, Widths: maga.FitWidths(len(g.Switches()))})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("fat-tree(%d): netsim.New + NewMC allocated %.2f MB", c.k, float64(alloc)/1e6)
		if alloc > c.budget {
			t.Errorf("fat-tree(%d): netsim.New + NewMC allocated %d B, budget %d", c.k, alloc, c.budget)
		}
		runtime.KeepAlive(mc)
	}
}
