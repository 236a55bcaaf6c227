package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"mic/internal/chaos"
	"mic/internal/maga"
	"mic/internal/metrics"
	"mic/internal/mic"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// workload is one set of inputs the benchmark runs. gen makes the inputs
// from the seed; iter runs one iteration on a fresh testbed. Iterations of
// one pass share their inputs, so simulated work is byte-identical per
// iteration and the wall clock is the only thing that varies.
type workload struct {
	name  string
	why   string // one line, for BENCHMARK.json
	iters int    // measured iterations of the suite's untraced pass
	gen   func(rng *sim.RNG, sc scale) (*inputs, error)
	iter  func(in *inputs, tr *tracer, r *iterResult) error
}

// scale shrinks the work of every workload by one factor; the suite and the
// driver run at 1, the smoke test far below.
type scale float64

func (s scale) of(full int) int {
	if n := int(float64(full) * float64(s)); n > 1 {
		return n
	}
	return 1
}

// inputs is everything an iteration is given. Nothing in it depends on the
// program under test.
type inputs struct {
	pattern []byte          // seeded payload pattern; transfers send a prefix
	sizes   []int           // per-transfer payload bytes
	crcs    []uint32        // CRC-32C of pattern[:sizes[i]]
	offsets []time.Duration // per-client start offsets
	rpcs    []int           // per-client round trips
	dials   []chaos.Dial    // open-loop dial schedule
	arity   int             // fat-tree k the schedule was drawn on
	hold    time.Duration   // channel lifetime of the dial workloads
	faults  chaos.Schedule  // mckill fault script
	killAt  time.Duration   // when the active controller dies
	horizon time.Duration   // how long mckill runs in virtual time
}

const (
	bulkFlows    = 8
	bulkBytes    = 4 << 20
	rpcClients   = 8
	rpcPerClient = 2000
	rpcBytes     = 64
	idleChannels = 24
)

var workloads = []*workload{
	{
		name: "bulk8_mic", iters: 30,
		why: "8 concurrent 4 MiB MIC-TCP streams on fat-tree(4), closed loop: the data plane (sim, netsim, " +
			"flowtable hits with rewrites, packet, transport, mic slicer) does the work, the MC does 8 dials",
		gen:  genBulk,
		iter: func(in *inputs, tr *tracer, r *iterResult) error { return iterBulk(in, tr, r, true) },
	},
	{
		name: "bulk8_tcp", iters: 36,
		why: "the same traffic over plain transport and proactive common-flow rules, no MC: bypasses mic, so a " +
			"gain in mic's stream or rewrite path must not show here; bulk8_mic / bulk8_tcp is the paper's overhead",
		gen:  genBulk,
		iter: func(in *inputs, tr *tracer, r *iterResult) error { return iterBulk(in, tr, r, false) },
	},
	{
		name: "rpc64_mic", iters: 32,
		why: "8 channels x 2000 sequential 64-byte round trips, closed loop: the bulk8 layers with the smallest " +
			"packets, so per-packet and per-event cost dominates and per-byte cost nearly vanishes",
		gen:  genRPC,
		iter: iterRPC,
	},
	{
		name: "dial_burst_k8", iters: 50,
		why: "1000 channel opens at 60000/s on fat-tree(8), open loop, teardown trailing the burst: plan, alloc, " +
			"maga, topo paths, batched southbound and flowtable insert do the work; no payload is carried",
		gen:  func(rng *sim.RNG, sc scale) (*inputs, error) { return genDial(rng, sc, 1000, 60000) },
		iter: iterDial,
	},
	{
		name: "dial_steady_k8", iters: 24,
		why: "2000 opens at 10000/s with 5 ms lifetimes, open loop, below the knee: opens interleave with closes, " +
			"deletes and barriers, so a burst speed-up that defers teardown cost shows as a loss here",
		gen:  func(rng *sim.RNG, sc scale) (*inputs, error) { return genDial(rng, sc, 2000, 10000) },
		iter: iterDial,
	},
	{
		name: "mckill_k4", iters: 150,
		why: "active controller killed mid-transfer with 24 idle channels live: journal replay, heartbeats and " +
			"leases, Hello fan-out, switch dump/diff reconciliation and the repair sweep do the work",
		gen:  genMCKill,
		iter: iterMCKill,
	},
}

// fatTreeSwitches is the switch count of fat-tree(k): k*k/4 core switches
// plus k pods of k.
func fatTreeSwitches(k int) int { return 5 * k * k / 4 }

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// seededPattern returns n bytes drawn from rng.
func seededPattern(rng *sim.RNG, n int) []byte {
	b := make([]byte, (n+7)/8*8)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	return b[:n]
}

// shapeSeed draws the parts of a workload that make it the workload it is:
// the Poisson arrivals of the dial storms, and which uplinks the failover
// script cuts. --seed does not redraw them. Redrawn per seed they move the
// virtual metrics by 10-40 % (one schedule clumps where another does not, one
// cut hits the transfer's path and another misses it), which would be six
// different workloads per name rather than one measured six times. --seed
// instead moves sizes, counts and instants by under a percent: enough that no
// two seeds read the same, little enough that they measure the same thing.
const shapeSeed = 1

// startOffsets draws n start instants in a fixed order, 120 ns apart plus up
// to 100 ns from the seed. The order decides which client the controller
// plans first, and so which random path each gets; the sub-microsecond slack
// only moves where frames of neighbouring clients meet on a shared link.
func startOffsets(rng *sim.RNG, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i)*120*time.Nanosecond + time.Duration(rng.Intn(100))
	}
	return out
}

// transferSizes draws n payload sizes a few segments below full.
func transferSizes(rng *sim.RNG, n, full int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = full
		if cut := rng.Intn(16) * transport.MSS; cut < full {
			out[i] -= cut
		}
	}
	return out
}

func (in *inputs) hashTransfers() {
	for _, n := range in.sizes {
		in.crcs = append(in.crcs, crc32.Checksum(in.pattern[:n], castagnoli))
	}
}

func (in *inputs) newXfer(i int) *xfer {
	return &xfer{idx: i, size: in.sizes[i], want: in.crcs[i]}
}

// --- bulk8_mic, bulk8_tcp ---

func genBulk(rng *sim.RNG, sc scale) (*inputs, error) {
	in := &inputs{
		sizes:   transferSizes(rng, bulkFlows, sc.of(bulkBytes)),
		offsets: startOffsets(rng, bulkFlows),
	}
	in.pattern = seededPattern(rng, sc.of(bulkBytes))
	in.hashTransfers()
	return in, nil
}

// iterBulk runs 8 concurrent transfers on disjoint cross-pod pairs
// (host i -> host 8+i), over MIC-TCP or plain TCP.
func iterBulk(in *inputs, tr *tracer, r *iterResult, useMIC bool) error {
	ctl := ctlRouter
	if useMIC {
		ctl = ctlMC
	}
	b, err := newBed(tr, r, 4, ctl, mic.Config{MNs: 3, MFlows: 1}, true)
	if err != nil {
		return err
	}
	r.tBuilt = time.Now()

	dl := &dialLog{tr: tr, eng: b.eng}
	xs := make([]*xfer, len(in.sizes))
	var conns []*transport.Conn
	var streams []*mic.Stream
	for i := range xs {
		x := in.newXfer(i)
		xs[i] = x
		src, dst, port := b.stacks[i], b.stacks[8+i], uint16(8000+i)
		target := dst.Host.IP
		if useMIC {
			mic.Listen(dst, port, false, func(s *mic.Stream) { s.OnData(x.recv(b.eng, tr)) })
			client := mic.NewClient(src, b.mc)
			b.eng.After(in.offsets[i], func() {
				rec := dl.issue()
				client.Dial(target.String(), port, func(s *mic.Stream, err error) {
					dl.answer(rec, channelID(client, target.String()), err)
					if err != nil {
						return
					}
					streams = append(streams, s)
					x.send(b.eng, tr, in.pattern, s.Send)
				})
			})
		} else {
			dst.Listen(port, func(c *transport.Conn) { c.OnData(x.recv(b.eng, tr)) })
			b.eng.After(in.offsets[i], func() {
				rec := dl.issue()
				src.Dial(target, port, func(c *transport.Conn, err error) {
					dl.answer(rec, uint64(x.idx), err)
					if err != nil {
						return
					}
					conns = append(conns, c)
					x.send(b.eng, tr, in.pattern, c.Send)
				})
			})
		}
	}
	tr.run(b)
	r.tRan = time.Now()

	dl.summarize(r)
	verifyTransfers(r, xs)
	for _, c := range conns {
		r.retransmits += c.Stats().Retransmits
	}
	for _, s := range streams {
		r.streamRetransmits += s.SlicesRetx
	}
	b.collect(r)
	return nil
}

// channelID returns the ID of the channel client holds to target, or 0.
func channelID(client *mic.Client, target string) uint64 {
	if info, ok := client.Channel(target); ok {
		return info.ID
	}
	return 0
}

// --- rpc64_mic ---

func genRPC(rng *sim.RNG, sc scale) (*inputs, error) {
	in := &inputs{
		offsets: startOffsets(rng, rpcClients),
		pattern: seededPattern(rng, 64<<10),
	}
	for i := 0; i < rpcClients; i++ {
		in.rpcs = append(in.rpcs, sc.of(rpcPerClient)+rng.Intn(8))
	}
	return in, nil
}

// rpcClient is one closed-loop caller: it sends request k+1 only after the
// whole response to request k has arrived.
type rpcClient struct {
	idx    int
	n      int // round trips to make
	k      int // round trips completed
	got    int // response bytes of round trip k received so far
	bad    int // responses that did not echo the request
	sentAt sim.Time
	last   sim.Time
	wStart time.Time
	first  sim.Time
}

// request returns the bytes of client i's k-th request.
func (in *inputs) request(i, k int) []byte {
	off := (i*7919 + k*rpcBytes) % (len(in.pattern) - rpcBytes)
	return in.pattern[off : off+rpcBytes]
}

func iterRPC(in *inputs, tr *tracer, r *iterResult) error {
	b, err := newBed(tr, r, 4, ctlMC, mic.Config{MNs: 3, MFlows: 1}, true)
	if err != nil {
		return err
	}
	r.tBuilt = time.Now()

	dl := &dialLog{tr: tr, eng: b.eng}
	var rtt metrics.Sample
	clients := make([]*rpcClient, len(in.rpcs))
	for i := range clients {
		c := &rpcClient{idx: i, n: in.rpcs[i]}
		clients[i] = c
		src, dst, port := b.stacks[i], b.stacks[8+i], uint16(8000+i)
		target := dst.Host.IP.String()

		// The server answers every 64 request bytes with the same 64 bytes.
		mic.Listen(dst, port, false, func(s *mic.Stream) {
			var req [rpcBytes]byte
			have := 0
			s.OnData(func(p []byte) {
				for len(p) > 0 {
					n := copy(req[have:], p)
					have, p = have+n, p[n:]
					if have == rpcBytes {
						s.Send(req[:])
						have = 0
					}
				}
			})
		})

		client := mic.NewClient(src, b.mc)
		b.eng.After(in.offsets[i], func() {
			rec := dl.issue()
			client.Dial(target, port, func(s *mic.Stream, err error) {
				dl.answer(rec, channelID(client, target), err)
				if err != nil {
					return
				}
				call := func() {
					c.sentAt, c.got = b.eng.Now(), 0
					s.Send(in.request(c.idx, c.k))
				}
				s.OnData(func(p []byte) {
					want := in.request(c.idx, c.k)
					if c.got+len(p) > rpcBytes || !bytes.Equal(p, want[c.got:c.got+len(p)]) {
						c.bad++
						p = p[:min(len(p), rpcBytes-c.got)]
					}
					if c.got += len(p); c.got < rpcBytes {
						return
					}
					c.last = b.eng.Now()
					rtt.Add(float64(c.last.Sub(c.sentAt)) / 1e3)
					if c.k++; c.k < c.n {
						call()
					} else if tr != nil {
						tr.virtSpan("rpc-loop", "run", 20+c.idx, uint64(c.idx), c.first, c.last, c.wStart, time.Now(), "")
					}
				})
				c.first, c.wStart = b.eng.Now(), time.Now()
				call()
			})
		})
	}
	tr.run(b)
	r.tRan = time.Now()

	dl.summarize(r)
	for _, c := range clients {
		r.attempted += c.n
		r.failed += c.n - c.k + c.bad
		r.payloadBytes += int64(c.k) * 2 * rpcBytes
		if c.k != c.n {
			r.problem("client %d completed %d of %d round trips", c.idx, c.k, c.n)
		}
		if c.bad > 0 {
			r.problem("client %d got %d responses that do not echo the request", c.idx, c.bad)
		}
		r.done(c.last)
	}
	if rtt.N() > 0 {
		r.virt["rtt_p50_us"] = rtt.Percentile(50)
		r.virt["rtt_p99_us"] = rtt.Percentile(99)
	}
	b.collect(r)
	return nil
}

// --- dial_burst_k8, dial_steady_k8 ---

// genDial builds the dial workloads' inputs: n dials at rate per second on
// fat-tree(8), each channel held 5 ms.
func genDial(rng *sim.RNG, sc scale, n int, rate float64) (*inputs, error) {
	n = sc.of(n)
	if n >= 1000 {
		n += rng.Intn(8) // never fewer than 1000: p99 needs 10 samples beyond it
	}
	dials, err := dialSchedule(shapeSeed, 8, n, rate)
	if err != nil {
		return nil, err
	}
	for i := range dials {
		dials[i].At += time.Duration(rng.Intn(2000)) // up to 2 us
	}
	return &inputs{dials: dials, arity: 8, hold: 5 * time.Millisecond}, nil
}

// dialSchedule is an open-loop schedule of exactly n dials arriving at rate
// per second over 32 fixed host pairs of fat-tree(arity), or as many as its
// hosts allow. The window is wide enough never to cut the schedule short.
func dialSchedule(seed uint64, arity, n int, rate float64) ([]chaos.Dial, error) {
	g, err := topo.FatTree(arity)
	if err != nil {
		return nil, err
	}
	dials, err := chaos.SetupStorm(g, seed, chaos.StormConfig{
		Pairs: min(32, len(g.Hosts())/2), Rate: rate, MaxDials: n,
		Window: time.Duration(4 * float64(n) / rate * float64(time.Second)),
	})
	if err != nil {
		return nil, err
	}
	if len(dials) != n {
		return nil, fmt.Errorf("storm scheduled %d dials, want %d", len(dials), n)
	}
	return dials, nil
}

// iterDial plays the schedule against one MC through EstablishChannel
// directly, so no transport stack exists and the data plane carries nothing.
// Each channel is held for in.hold, then closed.
func iterDial(in *inputs, tr *tracer, r *iterResult) error {
	b, err := newBed(tr, r, in.arity, ctlMC, mic.Config{
		MNs: 3, MFlows: 2, Widths: maga.FitWidths(fatTreeSwitches(in.arity)),
	}, false)
	if err != nil {
		return err
	}
	commonRules := b.tableEntries()
	r.tBuilt = time.Now()

	dl := &dialLog{tr: tr, eng: b.eng}
	for _, d := range in.dials {
		initiator, target := b.g.Node(d.From).IP, b.g.Node(d.To).IP.String()
		b.eng.After(d.At, func() {
			rec := dl.issue()
			b.mc.EstablishChannel(initiator, target, mic.ChannelOptions{}, func(info *mic.ChannelInfo, err error) {
				if err != nil {
					dl.answer(rec, 0, err)
					return
				}
				dl.answer(rec, info.ID, nil)
				b.eng.After(in.hold, func() {
					dl.closed()
					if err := b.mc.CloseChannel(info.ID, nil); err != nil {
						r.problem("close channel %d: %v", info.ID, err)
					}
				})
			})
		})
	}
	tr.run(b)
	r.tRan = time.Now()

	dl.summarize(r)
	r.done(dl.lastAck)
	if left := b.tableEntries() - commonRules; left != 0 {
		r.problem("%d m-flow rules left after every channel was closed", left)
	}
	b.collect(r)
	return nil
}

// --- mckill_k4 ---

func genMCKill(rng *sim.RNG, sc scale) (*inputs, error) {
	g, err := topo.FatTree(4)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		sizes:   transferSizes(rng, 1, sc.of(bulkBytes)),
		offsets: startOffsets(rng, idleChannels+1), // idle channels, then the transfer

		horizon: 10 * time.Second,
	}
	in.pattern = seededPattern(rng, sc.of(bulkBytes))
	in.hashTransfers()
	hosts := g.Hosts()
	// The kill lands mid-transfer; a few hundred us of seeded slack moves it
	// against the 2 ms heartbeat grid.
	in.faults, err = chaos.FailoverScenario(g, shapeSeed, chaos.FailoverConfig{
		From: hosts[0], To: hosts[15],
		Start: 30*time.Millisecond + time.Duration(rng.Int63n(int64(200*time.Microsecond))),
	})
	if err != nil {
		return nil, err
	}
	for _, f := range in.faults {
		if f.Kind == chaos.MCKill {
			in.killAt = f.At
		}
	}
	return in, nil
}

// idleInitiators and idleResponders are the hosts of the 24 idle channels:
// each initiator holds a channel to four of the responders.
var (
	idleInitiators = []int{1, 2, 4, 5, 6, 7}
	idleResponders = []int{8, 9, 10, 11, 13, 14}
)

// transferStart is when the transfer's dial is issued: after the idle
// channels are up, early enough that the kill lands mid-transfer.
const transferStart = 5 * time.Millisecond

func iterMCKill(in *inputs, tr *tracer, r *iterResult) error {
	b, err := newBed(tr, r, 4, ctlCluster, mic.Config{
		MNs: 3, MFlows: 2, AutoRepair: true, RepairMaxRetries: 20,
	}, true)
	if err != nil {
		return err
	}
	b.cl.OnTakeover = func(st mic.TakeoverStats) {
		r.takeovers++
		r.reinstalled += st.Reinstalled
		r.stale += st.StaleDeleted
		tr.virtMark("takeover", st.At, map[string]any{
			"member": st.Member, "channels": st.Channels,
			"reinstalled": st.Reinstalled, "stale_deleted": st.StaleDeleted,
		})
	}
	b.cl.OnStepDown = func(member int, at sim.Time) {
		r.stepped++
		tr.virtMark("stepdown", at, map[string]any{"member": member})
	}
	r.tBuilt = time.Now()

	dl := &dialLog{tr: tr, eng: b.eng}
	for i := 0; i < idleChannels; i++ {
		from := b.stacks[idleInitiators[i%len(idleInitiators)]].Host.IP
		to := b.stacks[idleResponders[(i%len(idleInitiators)+i/len(idleInitiators))%len(idleResponders)]].Host.IP.String()
		b.eng.After(in.offsets[i], func() {
			rec := dl.issue()
			b.cl.EstablishChannel(from, to, mic.ChannelOptions{}, func(info *mic.ChannelInfo, err error) {
				var id uint64
				if info != nil {
					id = info.ID
				}
				dl.answer(rec, id, err)
			})
		})
	}

	x := in.newXfer(0)
	target := b.stacks[15].Host.IP.String()
	mic.Listen(b.stacks[15], 80, false, func(s *mic.Stream) { s.OnData(x.recv(b.eng, tr)) })
	sender := mic.NewClient(b.stacks[0], b.cl)
	var stream *mic.Stream
	b.eng.After(transferStart+in.offsets[idleChannels], func() {
		rec := dl.issue()
		sender.Dial(target, 80, func(s *mic.Stream, err error) {
			dl.answer(rec, channelID(sender, target), err)
			if err != nil {
				return
			}
			stream = s
			x.send(b.eng, tr, in.pattern, s.Send)
		})
	})

	runner := chaos.NewRunner(b.net, nil)
	runner.OnFault = func(f chaos.Fault) {
		tr.virtMark("fault:"+f.Kind.String(), b.eng.Now(), nil)
	}
	runner.Play(in.faults)

	// The blackout probe: a dial issued at the instant the controller dies.
	// Its setup latency is the control-plane outage a tenant sees.
	probeTarget := b.stacks[12].Host.IP.String()
	mic.Listen(b.stacks[12], 80, false, func(*mic.Stream) {})
	probe := mic.NewClient(b.stacks[3], b.cl)
	var probeRec *dialRec
	b.eng.After(in.killAt, func() {
		probeRec = dl.issue()
		probe.Dial(probeTarget, 80, func(_ *mic.Stream, err error) {
			dl.answer(probeRec, channelID(probe, probeTarget), err)
		})
	})

	tr.runUntil(b, sim.Time(in.horizon))
	b.cl.Stop()
	tr.run(b)
	r.tRan = time.Now()

	dl.summarize(r)
	verifyTransfers(r, []*xfer{x})
	if stream != nil {
		r.streamRetransmits = stream.SlicesRetx
	}
	if probeRec != nil && probeRec.answers == 1 && probeRec.err == nil {
		r.virt["blackout_ms"] = probeRec.acked.Sub(probeRec.issued).Seconds() * 1e3
	}
	stale, missing := b.cl.Audit()
	r.counts["mic.audit_stale"], r.counts["mic.audit_missing"] = float64(stale), float64(missing)
	if stale+missing > 0 {
		r.attempted++
		r.failed += stale + missing
		r.problem("audit after takeover: %d stale, %d missing rules", stale, missing)
	}
	b.collect(r)
	return nil
}
