package mic

import (
	"testing"
)

// establishCloseBudget bounds the heap allocations of one EstablishChannel +
// CloseChannel round on an idle fat-tree(4) controller — the benchmark's
// mic.establish_allocs kernel. What remains is what the channel keeps (its
// state, its rules and their actions, the path and MN lists handed to the
// client) plus the request's own closures; pools, candidate paths, tuple
// chains, plan scratch and southbound messages allocate nothing in steady
// state. The closure-per-message control plane this replaced spent 406.
const establishCloseBudget = 100

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
