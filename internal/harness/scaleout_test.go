package harness

import (
	"reflect"
	"testing"
)

// quickBench is the test-sized storm: small enough to run in CI, large
// enough that the 1-core cache-off planner is the bottleneck.
func quickBench(cores int, disableCache bool) SetupBenchOptions {
	return SetupBenchOptions{
		Seed: 7, Arity: 8, Cores: cores, DisableCache: disableCache,
		MaxDials: 300,
	}
}

// TestSetupBenchScaleOutSpeedup is the scale-out acceptance bar: four
// planning cores plus the plan cache must establish channels at >= 3x the
// rate of the one-core cache-off pipeline on a fat-tree(8), with every dial
// acknowledged. On a fat-tree(16) with the cache off, where every m-flow
// pays a full graph search, channels/s must rise strictly from 1 to 2 to 4
// cores, and 4 cores must reach >= 2.5x one core.
func TestSetupBenchScaleOutSpeedup(t *testing.T) {
	base, err := RunSetupBench(quickBench(1, true))
	if err != nil {
		t.Fatal(err)
	}
	best, err := RunSetupBench(quickBench(4, false))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*SetupBenchResult{"baseline": base, "four cores": best} {
		if r.OK+r.Failed != r.Dials {
			t.Fatalf("%s: %d of %d dials never answered", name, r.Dials-r.OK-r.Failed, r.Dials)
		}
	}
	if base.CacheHits != 0 {
		t.Fatalf("cache-off baseline recorded %d cache hits", base.CacheHits)
	}
	if best.CacheHits == 0 {
		t.Fatal("cached run recorded no cache hits")
	}
	if best.Batches == 0 || best.BatchedMods == 0 {
		t.Fatal("no southbound batching recorded")
	}
	if ratio := best.ChannelsPerSec / base.ChannelsPerSec; ratio < 3 {
		t.Fatalf("scale-out speedup = %.2fx (%.0f vs %.0f channels/s), want >= 3x",
			ratio, best.ChannelsPerSec, base.ChannelsPerSec)
	}

	var k16 []*SetupBenchResult
	for _, cores := range []int{1, 2, 4} {
		r, err := RunSetupBench(SetupBenchOptions{Seed: 1, Arity: 16, Cores: cores, DisableCache: true, MaxDials: 200})
		if err != nil {
			t.Fatal(err)
		}
		if r.OK+r.Failed != r.Dials {
			t.Fatalf("fat-tree(16), %d cores: %d of %d dials never answered", cores, r.Dials-r.OK-r.Failed, r.Dials)
		}
		if n := len(k16); n > 0 && r.ChannelsPerSec <= k16[n-1].ChannelsPerSec {
			t.Fatalf("fat-tree(16), cache off: %d cores do %.0f channels/s, no more than %d cores' %.0f",
				cores, r.ChannelsPerSec, cores/2, k16[n-1].ChannelsPerSec)
		}
		k16 = append(k16, r)
	}
	t.Logf("fat-tree(16), cache off: %.0f / %.0f / %.0f channels/s at 1 / 2 / 4 cores",
		k16[0].ChannelsPerSec, k16[1].ChannelsPerSec, k16[2].ChannelsPerSec)
	if ratio := k16[2].ChannelsPerSec / k16[0].ChannelsPerSec; ratio < 2.5 {
		t.Fatalf("fat-tree(16), cache off: 4 cores reach %.2fx one core (%.0f vs %.0f channels/s), want >= 2.5x",
			ratio, k16[2].ChannelsPerSec, k16[0].ChannelsPerSec)
	}
}

// TestSetupBenchDeterministic: the bench is part of the determinism
// contract — identical options must reproduce identical results.
func TestSetupBenchDeterministic(t *testing.T) {
	a, err := RunSetupBench(quickBench(4, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSetupBench(quickBench(4, false))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed bench results differ:\n a: %+v\n b: %+v", a, b)
	}
}
