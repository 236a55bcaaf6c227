package mic

import (
	"reflect"
	"testing"
	"time"

	"mic/internal/maga"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// establish dials target from initiator and returns the ChannelInfo once
// setup completes — control-plane only, no transport stack.
func establish(t *testing.T, f *fixture, init, resp int) *ChannelInfo {
	t.Helper()
	var info *ChannelInfo
	f.mc.EstablishChannel(f.hostIP(init), f.hostIP(resp).String(), ChannelOptions{}, func(ci *ChannelInfo, err error) {
		if err != nil {
			t.Fatalf("establish %d->%d: %v", init, resp, err)
		}
		info = ci
	})
	f.eng.Run()
	if info == nil {
		t.Fatalf("establish %d->%d: no ack", init, resp)
	}
	return info
}

// TestPlanCacheHitsAndInvalidation checks the cache's accounting: within
// one channel every m-flow after the first shares the edge pair (hit), a
// second host pair behind the same edges hits the same entry, and a failure
// invalidates nothing — a link cut on the cached path leaves the entry
// serving, and the liveness filter routes the next dial around the cut.
func TestPlanCacheHitsAndInvalidation(t *testing.T) {
	f := newFixture(t, Config{MNs: 3, MFlows: 2})

	// Hosts 0 and 1 hang off one edge switch in FatTree(4); 8 and 9 off
	// another pod's edge. First flow misses, second flow of the same
	// channel hits the just-filled entry.
	first := establish(t, f, 0, 8)
	if f.mc.PathCacheMisses != 1 || f.mc.PathCacheHits != 1 {
		t.Fatalf("after dial 1: misses=%d hits=%d, want 1/1", f.mc.PathCacheMisses, f.mc.PathCacheHits)
	}
	// A different host pair behind the same (src-edge, dst-edge) pair is
	// served entirely from cache.
	establish(t, f, 1, 9)
	if f.mc.PathCacheMisses != 1 || f.mc.PathCacheHits != 3 {
		t.Fatalf("after dial 2: misses=%d hits=%d, want 1/3", f.mc.PathCacheMisses, f.mc.PathCacheHits)
	}

	// Cut a link the first channel's path crosses: the same edge pair still
	// hits for both m-flows, and neither takes the cut link.
	cutFirstInterSwitchLink(t, f, first.Flows[0].Path)
	f.eng.Run()
	again := establish(t, f, 0, 8)
	if f.mc.PathCacheMisses != 1 || f.mc.PathCacheHits != 5 {
		t.Fatalf("after the cut: misses=%d hits=%d, want 1/5", f.mc.PathCacheMisses, f.mc.PathCacheHits)
	}
	for i, fl := range again.Flows {
		if !f.mc.pathAlive(fl.Path) {
			t.Fatalf("flow %d of the dial after the cut crosses it: %v", i, fl.Path)
		}
	}
}

// TestPlanCacheOffIsEquivalent runs the same dial sequence with the cache
// enabled and disabled under one seed: the cache must be invisible to path
// selection — identical paths, MN placements and entry addresses — because
// hit and miss rebuild candidates identically and draw the RNG identically.
func TestPlanCacheOffIsEquivalent(t *testing.T) {
	dials := [][2]int{{0, 8}, {1, 9}, {0, 15}, {4, 8}, {2, 13}}
	run := func(disable bool) []*ChannelInfo {
		f := newFixture(t, Config{MNs: 3, MFlows: 2, Seed: 42, DisablePathCache: disable})
		var infos []*ChannelInfo
		for _, d := range dials {
			infos = append(infos, establish(t, f, d[0], d[1]))
		}
		return infos
	}
	withCache := run(false)
	without := run(true)
	for i := range dials {
		if !reflect.DeepEqual(withCache[i].Flows, without[i].Flows) {
			t.Fatalf("dial %d: cache-on flows differ from cache-off:\n on: %+v\noff: %+v",
				i, withCache[i].Flows, without[i].Flows)
		}
	}
}

// BenchmarkEqualCostPathsFatTree16 measures the real-time cost the plan
// cache exists to avoid: "miss" runs the full cross-pod equal-cost graph
// search on a 1024-host fat-tree each iteration, "hit" serves the same
// lookup from the warmed cache (segment reattachment only).
func BenchmarkEqualCostPathsFatTree16(b *testing.B) {
	g, err := topo.FatTree(16)
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	mc, err := NewMC(net, Config{Widths: maga.FitWidths(len(g.Switches()))})
	if err != nil {
		b.Fatal(err)
	}
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	compute := func() []topo.Path {
		return g.EqualCostPaths(src, dst, maxEqualCostPaths)
	}
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clear(mc.planCache) // every lookup recomputes
			_ = mc.lookupPaths(src, dst, -1, compute)
		}
	})
	b.Run("hit", func(b *testing.B) {
		_ = mc.lookupPaths(src, dst, -1, compute) // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = mc.lookupPaths(src, dst, -1, compute)
		}
	})
}

// TestPlanCacheHitIsCheaper checks the virtual-CPU contract: a storm of
// same-edge-pair dials completes sooner with the cache than without,
// because a hit charges PlanCacheHitCost instead of the full graph-search
// PlanSearchCost to the controller's serialized planning core.
func TestPlanCacheHitIsCheaper(t *testing.T) {
	run := func(disable bool) time.Duration {
		f := newFixture(t, Config{MNs: 3, MFlows: 2, Seed: 7, DisablePathCache: disable})
		remaining := 24
		var last sim.Time
		for i := 0; i < 24; i++ {
			init, resp := i%8, 8+i%8
			f.mc.EstablishChannel(f.hostIP(init), f.hostIP(resp).String(), ChannelOptions{}, func(ci *ChannelInfo, err error) {
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				remaining--
				last = f.eng.Now()
			})
		}
		f.eng.Run()
		if remaining != 0 {
			t.Fatalf("%d dials unacked", remaining)
		}
		return time.Duration(last)
	}
	cached := run(false)
	uncached := run(true)
	if cached >= uncached {
		t.Fatalf("storm completion with cache (%v) not faster than without (%v)", cached, uncached)
	}
}

// TestPlanCoresPaceDials: with the cache off each dial costs one graph
// search of planning CPU. Two dials issued at the same instant queue on one
// core, so the second is answered exactly one planning cost after the first;
// on two cores they plan side by side and are answered at the same instant.
func TestPlanCoresPaceDials(t *testing.T) {
	for _, c := range []struct {
		cores int
		gap   time.Duration
	}{{1, PlanSearchCost}, {2, 0}} {
		f := newFixture(t, Config{DisablePathCache: true, PlanCores: c.cores})
		var at [2]sim.Time
		for i, from := range []int{0, 4} {
			f.mc.EstablishChannel(f.hostIP(from), f.hostIP(15-from).String(), ChannelOptions{}, func(_ *ChannelInfo, err error) {
				if err != nil {
					t.Fatalf("%d cores, dial %d: %v", c.cores, i, err)
				}
				at[i] = f.eng.Now()
			})
		}
		f.eng.Run()
		if f.mc.PathCacheMisses != 2 {
			t.Fatalf("%d cores: %d graph searches, want one per dial", c.cores, f.mc.PathCacheMisses)
		}
		if at[0] == 0 || at[1].Sub(at[0]) != c.gap {
			t.Fatalf("%d cores: dials answered at %v and %v, want %v apart", c.cores, at[0], at[1], c.gap)
		}
	}
}

// TestPlanCoresValidation: a negative core count is refused, and zero means
// one core.
func TestPlanCoresValidation(t *testing.T) {
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMC(netsim.New(sim.New(), g, netsim.Config{}), Config{PlanCores: -1}); err == nil {
		t.Fatal("PlanCores -1 accepted")
	}
	mc, err := NewMC(netsim.New(sim.New(), g, netsim.Config{}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Cfg.PlanCores != 1 || len(mc.cpuFree) != 1 {
		t.Fatalf("zero PlanCores gave %d cores (%d planning clocks), want 1", mc.Cfg.PlanCores, len(mc.cpuFree))
	}
}
