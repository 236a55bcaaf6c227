package workload

import (
	"testing"
	"time"

	"mic/internal/ctrlplane"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

func TestParetoBounds(t *testing.T) {
	rng := sim.NewRNG(1)
	p := Pareto{Alpha: 1.3, Min: 1000, Max: 100000}
	small := 0
	for i := 0; i < 5000; i++ {
		n := p.Sample(rng)
		if n < p.Min || n > p.Max {
			t.Fatalf("sample %d out of bounds", n)
		}
		if n < 10*p.Min {
			small++
		}
	}
	// Heavy tail: most flows are mice.
	if small < 3000 {
		t.Fatalf("only %d/5000 samples are small; distribution not heavy-tailed", small)
	}
}

func TestParetoPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad Pareto accepted")
		}
	}()
	Pareto{Alpha: -1, Min: 1, Max: 2}.Sample(sim.NewRNG(1))
}

func TestGeneratorRunsFlows(t *testing.T) {
	g, _ := topo.FatTree(4)
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{Seed: 3})
	router := &ctrlplane.ProactiveRouter{CFLabel: 88}
	if _, err := router.Install(net); err != nil {
		t.Fatal(err)
	}
	var stacks []*transport.Stack
	for _, hid := range g.Hosts() {
		stacks = append(stacks, transport.NewStack(net.Host(hid)))
	}
	gen, err := New(net, stacks, Config{
		Pairs:            [][2]int{{0, 15}, {1, 14}, {2, 13}},
		MeanInterarrival: 500 * time.Microsecond,
		Sizes:            Pareto{Alpha: 1.3, Min: 1000, Max: 50000},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen.Run(sim.Time(50 * time.Millisecond))
	eng.Run()
	if gen.Started < 50 {
		t.Fatalf("started only %d flows over 50ms at 0.5ms interarrival", gen.Started)
	}
	if gen.Completed < gen.Started*8/10 {
		t.Fatalf("completed %d of %d flows", gen.Completed, gen.Started)
	}
	if gen.Bytes == 0 {
		t.Fatal("no bytes accounted")
	}
}

func TestGeneratorValidation(t *testing.T) {
	g, _ := topo.Linear(1)
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	var stacks []*transport.Stack
	for _, hid := range g.Hosts() {
		stacks = append(stacks, transport.NewStack(net.Host(hid)))
	}
	cases := []Config{
		{},
		{Pairs: [][2]int{{0, 1}}}, // no interarrival
		{Pairs: [][2]int{{0, 0}}, MeanInterarrival: time.Millisecond},  // self pair
		{Pairs: [][2]int{{0, 99}}, MeanInterarrival: time.Millisecond}, // out of range
	}
	for i, c := range cases {
		if _, err := New(net, stacks, c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	run := func() (int, int64) {
		g, _ := topo.FatTree(4)
		eng := sim.New()
		net := netsim.New(eng, g, netsim.Config{Seed: 77})
		router := &ctrlplane.ProactiveRouter{CFLabel: 88}
		router.Install(net)
		var stacks []*transport.Stack
		for _, hid := range g.Hosts() {
			stacks = append(stacks, transport.NewStack(net.Host(hid)))
		}
		gen, _ := New(net, stacks, Config{
			Pairs:            [][2]int{{0, 15}, {3, 9}},
			MeanInterarrival: time.Millisecond,
		})
		gen.Run(sim.Time(20 * time.Millisecond))
		eng.Run()
		return gen.Completed, gen.Bytes
	}
	c1, b1 := run()
	c2, b2 := run()
	if c1 != c2 || b1 != b2 {
		t.Fatalf("nondeterministic workload: (%d,%d) vs (%d,%d)", c1, b1, c2, b2)
	}
}
