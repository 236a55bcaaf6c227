package mic

import (
	"slices"
	"testing"
	"time"

	"mic/internal/chaos"
	"mic/internal/maga"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// churnBed is fat-tree(8) under a cluster (one active, one standby) with the
// benchmark's dial options: three MNs, two m-flows, widths fitted to 80
// switches.
func churnBed(t *testing.T) (*sim.Engine, *netsim.Network, *Cluster) {
	t.Helper()
	g, err := topo.FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	cl, err := NewCluster(net, Config{MNs: 3, MFlows: 2, Widths: maga.FitWidths(len(g.Switches()))}, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, net, cl
}

// TestAckImpliesInstalledUnderChurn is the safety property southbound
// barriers exist for, held under the load that used to starve them: opens
// interleaved with 5 ms holds, closes and their deletes on fat-tree(8). At
// every dial acknowledgement each rule and group of the channel's intent is
// in its switch's table; no dial fails (at the parent the burst ran out of
// flow IDs because channels lived 25 ms instead of 8); the p99 dial is within
// a quarter of a dial on the quiet fabric (the parent read 29 ms against 3 at
// 10k/s); and once everything is closed no m-flow rule, flow ID or intent is
// left.
func TestAckImpliesInstalledUnderChurn(t *testing.T) {
	const hold = 5 * time.Millisecond

	eng, net, cl := churnBed(t)
	hosts := net.Graph.Hosts()
	var idle time.Duration
	cl.EstablishChannel(net.Graph.Node(hosts[0]).IP, net.Graph.Node(hosts[len(hosts)-1]).IP.String(), ChannelOptions{},
		func(_ *ChannelInfo, err error) {
			if err != nil {
				t.Fatal(err)
			}
			idle = time.Duration(eng.Now())
		})
	eng.RunUntil(sim.Time(20 * time.Millisecond))
	cl.Stop()
	if idle == 0 {
		t.Fatal("the quiet-fabric dial was never acknowledged")
	}

	for _, tc := range []struct {
		name  string
		dials int
		rate  float64
	}{
		{"steady 10k/s", 2000, 10000},
		{"steady 20k/s", 2000, 20000},
		{"burst 60k/s", 1200, 60000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, net, cl := churnBed(t)
			mc := cl.ActiveMC()
			common := 0
			for _, sw := range net.Switches() {
				common += sw.Table.Len()
			}
			dials, err := chaos.SetupStorm(net.Graph, 7, chaos.StormConfig{
				Pairs: 32, Rate: tc.rate, MaxDials: tc.dials,
				Window: time.Duration(4 * float64(tc.dials) / tc.rate * float64(time.Second)),
			})
			if err != nil || len(dials) != tc.dials {
				t.Fatalf("storm scheduled %d dials (%v), want %d", len(dials), err, tc.dials)
			}
			var lat []time.Duration
			closed := 0
			for _, d := range dials {
				initiator, target := net.Graph.Node(d.From).IP, net.Graph.Node(d.To).IP.String()
				eng.At(sim.Time(d.At), func() {
					cl.EstablishChannel(initiator, target, ChannelOptions{}, func(info *ChannelInfo, err error) {
						if err != nil {
							t.Fatalf("dial issued at %v failed after %d answers: %v", d.At, len(lat), err)
						}
						lat = append(lat, time.Duration(eng.Now())-d.At)
						checkBooksClosing(t, mc)
						for _, r := range mc.channels[info.ID].rules {
							tbl := net.Switch(r.node).Table
							if r.group != nil {
								if _, ok := tbl.Group(r.group.ID); !ok {
									t.Fatalf("channel %d acknowledged at %v without group %d on switch %d", info.ID, eng.Now(), r.group.ID, r.node)
								}
							}
							if r.entry == nil {
								continue
							}
							installed := false
							for _, e := range tbl.Conflicts(r.entry.Match, r.entry.Priority) {
								installed = installed || e == r.entry
							}
							if !installed {
								t.Fatalf("channel %d acknowledged at %v with a rule missing from switch %d", info.ID, eng.Now(), r.node)
							}
						}
						eng.After(hold, func() {
							if err := cl.CloseChannel(info.ID, func() { closed++ }); err != nil {
								t.Fatal(err)
							}
						})
					})
				})
			}
			eng.RunUntil(sim.Time(dials[len(dials)-1].At + time.Second))
			cl.Stop()
			eng.Run()

			if len(lat) != tc.dials || closed != tc.dials {
				t.Fatalf("%d of %d dials answered, %d channels closed", len(lat), tc.dials, closed)
			}
			slices.Sort(lat)
			p99 := lat[len(lat)*99/100]
			t.Logf("dial p50 %v p99 %v max %v, idle %v", lat[len(lat)/2], p99, lat[len(lat)-1], idle)
			if p99 > idle+idle/4 {
				t.Fatalf("p99 dial %v under churn exceeds 1.25x the idle dial %v", p99, idle)
			}
			left := -common
			for _, sw := range net.Switches() {
				left += sw.Table.Len()
			}
			checkBooks(t, mc)
			stale, missing := cl.Audit()
			if left != 0 || mc.flowIDs.inUse() != 0 || mc.LiveChannels() != 0 || stale != 0 || missing != 0 {
				t.Fatalf("after drain: %d m-flow rules installed, %d flow IDs held, %d channels live, audit stale=%d missing=%d",
					left, mc.flowIDs.inUse(), mc.LiveChannels(), stale, missing)
			}
		})
	}
}
