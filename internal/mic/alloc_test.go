package mic

import (
	"sort"
	"testing"
	"unsafe"

	"mic/internal/flowtable"
)

// establishCloseBudget bounds the heap allocations of one EstablishChannel +
// CloseChannel round on an idle fat-tree(4) controller — the benchmark's
// mic.establish_allocs kernel: 31 measured, 35 under the race detector (CI
// runs the suite both ways), plus 25 %. What remains is what the channel
// keeps — its state and the ChannelInfo handed to the client, one slab of
// entries and one of actions per m-flow, a list each for its flow resources,
// flows and rules, the path and the MN list — plus the request's own closures
// (one per gate, per switch a delete is sent to, per callback), the switch
// list a close sorts out of the rules, and the test's address formatting and
// parsing. Rules, action lists and actions are not allocations of their own,
// nor is anything the flow tables or the link and switch indexes do; pools,
// candidate paths, tuple chains, plan scratch and southbound messages
// allocate nothing in steady state. The closure-per-message control plane
// spent 406, the map-indexed, boxed-action one 83, the one that kept seven
// derived lists per channel 36.
const establishCloseBudget = 38

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
				recs, _, _ := f.mc.templateFlow(plan, res, initIP, respIP, opts, 99, 0)

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
