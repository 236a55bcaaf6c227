package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"mic/internal/addr"
	"mic/internal/ctrlplane"
	"mic/internal/flowtable"
	"mic/internal/maga"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// A kernel times a loop of calls into one layer's public functions with a
// fixed input shape. Kernels are not workloads: they price one operation so
// that a workload's counts can be turned into an estimated share of its wall
// clock (est_share). They are measured once per process and attached to
// every workload.

// kernelBatches is how many timed batches a kernel runs; the median batch
// is reported.
const kernelBatches = 5

// timeKernel calls op(n) in batches that each last at least budget and
// returns the median ns per operation and the mean allocations per operation.
func timeKernel(budget time.Duration, op func(n int)) (ns, allocs float64) {
	n := 1
	for {
		t := time.Now()
		op(n)
		if d := time.Since(t); d >= budget || n >= 1<<24 {
			break
		} else if d < budget/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	per := make([]float64, kernelBatches)
	for i := range per {
		t := time.Now()
		op(n)
		per[i] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	sort.Float64s(per)
	return per[len(per)/2], float64(ms.Mallocs-mallocs) / float64(n*kernelBatches)
}

// kernelPacket is the fixed packet shape of the packet, flowtable and netsim
// kernels: a full-size TCP segment.
func kernelPacket(pool *packet.Pool) *packet.Packet {
	p := pool.Get()
	p.SrcMAC, p.DstMAC = addr.MAC(1), addr.MAC(2)
	p.SetSrcIP(addr.V4(10, 0, 0, 1))
	p.SetDstIP(addr.V4(10, 0, 0, 2))
	p.Proto, p.TTL = packet.ProtoTCP, 64
	p.SrcPort, p.DstPort = 40000, 80
	p.SetPayload(make([]byte, transport.MSS))
	return p
}

// kernelTable is a 64-rule table with a catch-all, the shape of the
// flowtable package's own lookup benchmarks.
func kernelTable() *flowtable.Table {
	tb := flowtable.NewTable()
	for i := 0; i < 64; i++ {
		tb.Insert(&flowtable.Entry{Priority: i + 1, Match: flowtable.Match{Mask: flowtable.MatchIPSrc, IPSrc: addr.IP(i + 100)}}, 0)
	}
	tb.Insert(&flowtable.Entry{Priority: 0}, 0)
	return tb
}

var kernelSink int

// runKernels measures every kernel, each batch lasting at least budget.
func runKernels(budget time.Duration) (map[string]float64, error) {
	k := map[string]float64{}

	// sim: schedule one event and dispatch it, with 1024 events pending.
	{
		eng := sim.New()
		for i := 0; i < 1024; i++ {
			eng.At(sim.MaxTime, func() {})
		}
		fired := 0
		fn := func() { fired++ }
		k["sim.event_ns"], _ = timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				eng.After(sim.Nanosecond, fn)
				eng.Step()
			}
		})
	}

	// packet: marshal and clone a full-size segment.
	pool := packet.NewPool()
	{
		p := kernelPacket(pool)
		k["packet.marshal_ns"], _ = timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				kernelSink += len(p.Marshal())
			}
		})
		k["packet.clone_ns"], k["packet.clone_allocs"] = timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				kernelSink += len(p.Clone().Payload)
			}
		})
	}

	// flowtable: cached lookup; lookup right after the generation was
	// bumped (the cost of the bump itself is measured alone and taken
	// off); insert into a table growing to 128 entries; delete one
	// channel's 4 rules by cookie from a 128-entry table.
	{
		tb, p := kernelTable(), kernelPacket(pool)
		tb.Lookup(p, 0, 0)
		k["flowtable.lookup_hit_ns"], _ = timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				tb.Lookup(p, 0, 0)
			}
		})
		group := &flowtable.Group{ID: 1}
		bump, _ := timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				tb.SetGroup(group)
			}
		})
		both, _ := timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				tb.SetGroup(group)
				tb.Lookup(p, 0, 0)
			}
		})
		k["flowtable.lookup_miss_ns"] = max(both-bump, 0)

		perTable, _ := timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				tb := flowtable.NewTable()
				for j := 0; j < 128; j++ {
					tb.Insert(&flowtable.Entry{Priority: j % 16, Match: flowtable.Match{Mask: flowtable.MatchMPLS, MPLS: addr.Label(j)}}, 0)
				}
			}
		})
		k["flowtable.insert_ns"] = perTable / 128

		tb = flowtable.NewTable()
		fill := func(cookie uint64) {
			for j := uint64(0); j < 4; j++ {
				tb.Insert(&flowtable.Entry{Priority: 1000, Cookie: cookie,
					Match: flowtable.Match{Mask: flowtable.MatchMPLS, MPLS: addr.Label(cookie*4 + j)}}, 0)
			}
		}
		for c := uint64(2); c < 34; c++ {
			fill(c)
		}
		refill, _ := timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				fill(2) // same match and priority: replaces in place
			}
		})
		cycle, _ := timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				kernelSink += tb.DeleteByCookie(2)
				fill(2)
			}
		})
		k["flowtable.delete_cookie_ns"] = max(cycle-refill, 0)
	}

	// netsim: one full-size frame host -> switch -> host on a 1-switch
	// chain, engine run to quiescence. A hop fires engine events and looks
	// the frame up, which sim and flowtable already claim; hop_self_ns is
	// what is left once the same number of bare events on the same (nearly
	// empty) queue and one cached lookup are taken off.
	{
		g, err := topo.Linear(1)
		if err != nil {
			return nil, err
		}
		eng := sim.New()
		net := netsim.New(eng, g, netsim.Config{})
		h1, h2 := net.Host(g.Hosts()[0]), net.Host(g.Hosts()[1])
		sw := net.Switch(g.Switches()[0])
		sw.Table.Insert(&flowtable.Entry{Priority: 1, Actions: []flowtable.Action{flowtable.Output(g.PortTo(sw.ID, h2.ID))}}, 0)
		h2.SetHandler(func(int, *packet.Packet) {})
		payload := make([]byte, transport.MSS)
		send := func() {
			p := net.PacketPool().Get()
			p.SetSrcIP(h1.IP)
			p.SetDstIP(h2.IP)
			p.Proto, p.TTL = packet.ProtoTCP, 64
			p.SetPayload(payload)
			h1.Send(0, p)
			eng.Run()
		}
		send()
		before := eng.Processed()
		send()
		hopEvents := int(eng.Processed() - before)
		k["netsim.hop_ns"], k["netsim.hop_allocs"] = timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				send()
			}
		})
		fn := func() {}
		bare, _ := timeKernel(budget, func(n int) {
			for i := 0; i < n*hopEvents; i++ {
				eng.After(sim.Nanosecond, fn)
				eng.Step()
			}
		})
		k["netsim.hop_self_ns"] = max(k["netsim.hop_ns"]-bare-k["flowtable.lookup_hit_ns"], 0)
	}

	// transport: 1 MiB over one switch, testbed build included.
	{
		data := make([]byte, 1<<20)
		var kerr error
		k["transport.mb_ns"], _ = timeKernel(budget, func(n int) {
			for i := 0; i < n && kerr == nil; i++ {
				kerr = transferOneMiB(data)
			}
		})
		if kerr != nil {
			return nil, kerr
		}
	}

	// maga: mint one m-address three-tuple / one label.
	{
		p := maga.NewParams(sim.NewRNG(1), maga.DefaultWidths())
		gen := maga.NewGenerator(p, 1, sim.NewRNG(2))
		ips := make([]addr.IP, 64)
		for i := range ips {
			ips[i] = addr.V4(10, 0, 0, byte(i))
		}
		k["maga.maddr_ns"], _ = timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				gen.MAddr(uint32(i)&255, ips, ips)
			}
		})
		k["maga.label_ns"], _ = timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				kernelSink += int(gen.Label(uint32(i)&255, ips[1], ips[2]))
			}
		})
	}

	// topo: enumerate equal-cost paths across fat-tree(8), nothing cached.
	{
		g, err := topo.FatTree(8)
		if err != nil {
			return nil, err
		}
		hosts := g.Hosts()
		k["topo.ecmp_ns"], _ = timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				kernelSink += len(g.EqualCostPaths(hosts[0], hosts[len(hosts)-1], 0))
			}
		})
	}

	// ctrlplane: one channel's worth of rules (4 per switch on 5 switches)
	// through InstallBatched, acknowledgements and barriers included. The
	// same rules every time, so each install replaces in place.
	{
		g, err := topo.FatTree(4)
		if err != nil {
			return nil, err
		}
		eng := sim.New()
		net := netsim.New(eng, g, netsim.Config{})
		ch := ctrlplane.NewChannel(net)
		var mods []ctrlplane.Mod
		for s, sw := range net.Switches()[:5] {
			for j := 0; j < 4; j++ {
				mods = append(mods, ctrlplane.Mod{Switch: sw, Entry: &flowtable.Entry{
					Priority: ctrlplane.PriorityMFlow, Cookie: 2,
					Match: flowtable.Match{Mask: flowtable.MatchMPLS, MPLS: addr.Label(s*4 + j)},
				}})
			}
		}
		failed := 0
		perBatch, _ := timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				ch.InstallBatched(mods, func(f int) { failed += f })
				eng.Run()
			}
		})
		if failed > 0 {
			return nil, fmt.Errorf("install kernel: %d mods failed", failed)
		}
		k["ctrlplane.install_mod_ns"] = perBatch / float64(len(mods))
	}

	// mic: establish and close one channel on an idle fat-tree(4) MC.
	{
		g, err := topo.FatTree(4)
		if err != nil {
			return nil, err
		}
		eng := sim.New()
		net := netsim.New(eng, g, netsim.Config{})
		mc, err := mic.NewMC(net, mic.Config{MNs: 3, Seed: mcSeed})
		if err != nil {
			return nil, err
		}
		hosts := g.Hosts()
		var kerr error
		k["mic.establish_ns"], k["mic.establish_allocs"] = timeKernel(budget, func(n int) {
			for i := 0; i < n && kerr == nil; i++ {
				from, to := g.Node(hosts[i%8]).IP, g.Node(hosts[8+i%8]).IP
				mc.EstablishChannel(from, to.String(), mic.ChannelOptions{}, func(info *mic.ChannelInfo, err error) {
					if err == nil {
						err = mc.CloseChannel(info.ID, nil)
					}
					kerr = err
				})
				eng.Run()
			}
		})
		if kerr != nil {
			return nil, fmt.Errorf("establish kernel: %w", kerr)
		}
	}

	// mic journal: append an open and a close record, compaction included.
	{
		j := mic.NewJournal()
		var id uint64
		pair, _ := timeKernel(budget, func(n int) {
			for i := 0; i < n; i++ {
				id++
				j.Append(mic.Record{Kind: mic.RecOpen, Channel: id, FlowIDs: []uint32{1, 2}, AllocNext: 3})
				j.Append(mic.Record{Kind: mic.RecClose, Channel: id})
			}
		})
		k["mic.journal_append_ns"] = pair / 2
	}
	return k, nil
}

// transferOneMiB moves data between the two hosts of a 1-switch chain over
// plain transport.
func transferOneMiB(data []byte) error {
	g, err := topo.Linear(1)
	if err != nil {
		return err
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	router := &ctrlplane.ProactiveRouter{CFLabel: 777}
	if _, err := router.Install(net); err != nil {
		return err
	}
	a := transport.NewStack(net.Host(g.Hosts()[0]))
	b := transport.NewStack(net.Host(g.Hosts()[1]))
	got := 0
	b.Listen(9, func(c *transport.Conn) { c.OnData(func(p []byte) { got += len(p) }) })
	var dialErr error
	a.Dial(b.Host.IP, 9, func(c *transport.Conn, err error) {
		if dialErr = err; err == nil {
			c.Send(data)
		}
	})
	eng.Run()
	if dialErr != nil {
		return dialErr
	}
	if got != len(data) {
		return fmt.Errorf("transport kernel delivered %d of %d bytes", got, len(data))
	}
	return nil
}
