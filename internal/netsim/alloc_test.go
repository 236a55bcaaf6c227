package netsim

import (
	"testing"

	"mic/internal/addr"
	"mic/internal/flowtable"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

// TestSwitchDatapathAllocFree enforces the allocation-free steady state of a
// whole hop, host -> switch -> host: drawing a packet from the pool, filling
// headers and payload, the sending host's stack latency, serialisation and
// propagation on both links, a microflow-cache-hit lookup, in-place
// set-field/MPLS rewrites after the forwarding latency, delivery to the
// receiving host's handler and release back to the pool — every engine
// event of the journey included — must not allocate.
func TestSwitchDatapathAllocFree(t *testing.T) {
	g, err := topo.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := New(eng, g, Config{})
	sw := net.Switch(g.Switches()[0])
	src, dst := net.Host(g.Hosts()[0]), net.Host(g.Hosts()[1])

	// An MN-style rule: rewrite the label and MACs, then output.
	sw.Table.Insert(&flowtable.Entry{
		Priority: 10,
		Match:    flowtable.Match{Mask: flowtable.MatchIPDst, IPDst: dst.IP},
		Actions: []flowtable.Action{
			flowtable.SetMPLS(42),
			flowtable.SetEthDst(dst.MAC),
			flowtable.Output(g.PortTo(sw.ID, dst.ID)),
		},
	}, 0)
	delivered := 0
	dst.SetHandler(func(int, *packet.Packet) { delivered++ })

	pool := net.PacketPool()
	seg := make([]byte, 1460)
	forward := func() {
		p := pool.Get()
		p.SrcMAC, p.DstMAC = src.MAC, addr.Broadcast
		p.SrcIP, p.DstIP = src.IP, dst.IP
		p.Proto, p.TTL = packet.ProtoTCP, 64
		p.SrcPort, p.DstPort = 40000, 80
		p.SetPayload(seg)
		src.Send(0, p)
		eng.Run()
	}

	// Warm up: populate the packet pool, the hop-record free list, the
	// engine's queue and the microflow cache.
	for i := 0; i < 3; i++ {
		forward()
	}
	delivered = 0
	hits := sw.CacheHits
	allocs := testing.AllocsPerRun(1000, forward)
	if delivered != 1001 || sw.CacheHits-hits != 1001 {
		t.Fatalf("delivered %d frames with %d cache hits, want 1001 of each", delivered, sw.CacheHits-hits)
	}
	if allocs != 0 {
		t.Fatalf("steady-state hop allocated %v times per packet, want 0", allocs)
	}
}

// TestCorruptingLinkAllocFree: a frame the switch forwards onto a link
// whose receiver's FCS rejects it costs no allocation either — the fault
// fates are hop records like every other step.
func TestCorruptingLinkAllocFree(t *testing.T) {
	g, err := topo.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := New(eng, g, Config{Seed: 5})
	sw := net.Switch(g.Switches()[0])
	src, dst := net.Host(g.Hosts()[0]), net.Host(g.Hosts()[1])
	out := g.PortTo(sw.ID, dst.ID)
	sw.Table.Insert(&flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.Output(out)}}, 0)
	net.SetLinkFault(sw.ID, out, FaultProfile{Corrupt: 1})
	dst.SetHandler(func(int, *packet.Packet) { t.Fatal("corrupted frame delivered") })

	pool := net.PacketPool()
	forward := func() {
		p := pool.Get()
		p.SrcIP, p.DstIP = src.IP, dst.IP
		p.Proto, p.TTL = packet.ProtoTCP, 64
		src.Send(0, p)
		eng.Run()
	}
	for i := 0; i < 3; i++ {
		forward()
	}
	corrupted := net.Stats.Corrupted
	allocs := testing.AllocsPerRun(1000, forward)
	if net.Stats.Corrupted-corrupted != 1001 || net.Stats.Forwarded != 1004 {
		t.Fatalf("corrupted %d of 1001 frames, forwarded %d of 1004", net.Stats.Corrupted-corrupted, net.Stats.Forwarded)
	}
	if allocs != 0 {
		t.Fatalf("a frame onto a corrupting link allocated %v times, want 0", allocs)
	}
}
