package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"time"

	"mic/internal/ctrlplane"
	"mic/internal/flowtable"
	"mic/internal/metrics"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// mcSeed seeds every controller the workloads build. It is configuration of
// the system under test, not an input: --seed varies what the load generator
// asks for, never which random paths the controller then picks, so a
// workload's virtual metrics move with its inputs only.
const mcSeed = 1

// controller selects what runs the fabric of a bed.
type controller int

const (
	ctlRouter  controller = iota // ctrlplane.ProactiveRouter common-flow rules, no MC
	ctlMC                        // one standalone mic.MC
	ctlCluster                   // mic.Cluster: active + one warm standby
)

// bed is one fresh simulated testbed: a fat-tree, its network runtime, a
// controller and (optionally) one transport stack per host.
type bed struct {
	g      *topo.Graph
	eng    *sim.Engine
	net    *netsim.Network
	mc     *mic.MC
	cl     *mic.Cluster
	stacks []*transport.Stack

	// chans holds every southbound channel the bed's controllers have
	// used. A restarted cluster member opens a fresh channel, so the list
	// is re-scanned before counters are read.
	chans []*ctrlplane.Channel
}

// newBed builds a testbed, recording one span per constructor call.
func newBed(tr *tracer, r *iterResult, arity int, ctl controller, cfg mic.Config, withStacks bool) (*bed, error) {
	b := &bed{}
	var err error

	t := time.Now()
	if b.g, err = topo.FatTree(arity); err != nil {
		return nil, err
	}
	r.topoBuild = time.Since(t)
	tr.span("topo.FatTree", "build", t)

	t = time.Now()
	b.eng = sim.New()
	b.net = netsim.New(b.eng, b.g, netsim.Config{})
	tr.span("netsim.New", "build", t)

	t = time.Now()
	cfg.Seed = mcSeed
	switch ctl {
	case ctlRouter:
		router := &ctrlplane.ProactiveRouter{CFLabel: 0x0ffee}
		if _, err = router.Install(b.net); err != nil {
			return nil, err
		}
		tr.span("ctrlplane.ProactiveRouter", "build", t)
	case ctlMC:
		if b.mc, err = mic.NewMC(b.net, cfg); err != nil {
			return nil, err
		}
		tr.span("mic.NewMC", "build", t)
	case ctlCluster:
		if b.cl, err = mic.NewCluster(b.net, cfg, mic.ClusterConfig{}); err != nil {
			return nil, err
		}
		tr.span("mic.NewCluster", "build", t)
	}
	b.scanChannels()

	if withStacks {
		t = time.Now()
		for _, hid := range b.g.Hosts() {
			b.stacks = append(b.stacks, transport.NewStack(b.net.Host(hid)))
		}
		tr.span("transport.NewStack", "build", t)
	}
	return b, nil
}

// scanChannels adds southbound channels not seen before.
func (b *bed) scanChannels() {
	for _, mc := range b.controllers() {
		known := false
		for _, have := range b.chans {
			known = known || have == mc.Ch
		}
		if !known {
			b.chans = append(b.chans, mc.Ch)
		}
	}
}

// controllers returns every MC of the bed.
func (b *bed) controllers() []*mic.MC {
	if b.mc != nil {
		return []*mic.MC{b.mc}
	}
	var out []*mic.MC
	if b.cl != nil {
		for i := 0; i <= b.cl.CCfg.Standbys; i++ {
			out = append(out, b.cl.MemberMC(i))
		}
	}
	return out
}

// southboundMods is the running count of state-changing southbound messages.
func (b *bed) southboundMods() uint64 {
	b.scanChannels()
	var n uint64
	for _, ch := range b.chans {
		n += ch.FlowMods + ch.GroupMods + ch.Deletes
	}
	return n
}

// tableEntries is the number of flow entries installed fabric-wide.
func (b *bed) tableEntries() int {
	n := 0
	for _, sw := range b.net.Switches() {
		n += sw.Table.Len()
	}
	return n
}

// iterResult is what one iteration produced. virt and counts must be
// bit-identical across iterations of one seed; everything else is wall clock.
type iterResult struct {
	virt   map[string]float64 // end-to-end metrics on the virtual clock
	counts map[string]float64 // per-layer counts and virtual-clock ratios

	attempted, failed int
	otherFails        []string // distinct error messages behind mic.fail_other
	problems          []string // correctness violations

	topoBuild          time.Duration
	tStart, tBuilt     time.Time
	tRan, tDone        time.Time
	payloadBytes       int64 // application bytes the receivers were meant to get
	retransmits        int64 // transport retransmits on connections the benchmark holds
	streamRetransmits  int64
	liveChannelsPeak   int
	takeovers, stepped int
	reinstalled, stale int
}

func newIterResult() *iterResult {
	return &iterResult{virt: map[string]float64{}, counts: map[string]float64{}}
}

func (r *iterResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// dialRec is one dial from issue to answer.
type dialRec struct {
	issued, acked sim.Time
	wIssued       time.Time
	lane          int // row of the virtual timeline
	answers       int
	err           error
}

// dialLog records every dial of an iteration: virtual issue and ack times,
// the typed outcome, and that each dial was answered exactly once.
type dialLog struct {
	tr   *tracer
	eng  *sim.Engine
	recs []*dialRec
	live int
	peak int

	lastAck sim.Time // when the last successful dial was acknowledged
}

func (d *dialLog) issue() *dialRec {
	rec := &dialRec{issued: d.eng.Now(), lane: 1 + len(d.recs)%16}
	if d.tr != nil {
		rec.wIssued = time.Now()
	}
	d.recs = append(d.recs, rec)
	return rec
}

// answer records the controller's reply to rec. id is the channel ID (0 on
// failure); the trace identifies the dial by it.
func (d *dialLog) answer(rec *dialRec, id uint64, err error) {
	rec.answers++
	if rec.answers > 1 {
		return
	}
	rec.acked, rec.err = d.eng.Now(), err
	outcome := "ok"
	if err != nil {
		outcome = classify(err)
	} else {
		d.live++
		if d.live > d.peak {
			d.peak = d.live
		}
	}
	if d.tr != nil {
		d.tr.virtSpan("dial", "run", rec.lane, id, rec.issued, rec.acked, rec.wIssued, time.Now(), outcome)
	}
}

// closed notes that the benchmark released one established channel.
func (d *dialLog) closed() { d.live-- }

// Failure classes of a dial, as per-layer metric names.
const (
	failOverloaded  = "mic.fail_overloaded"
	failTimeout     = "mic.fail_timeout"
	failNotActive   = "mic.fail_not_active"
	failUnacked     = "mic.fail_unacked"
	failTableFull   = "mic.fail_table_full"
	failIDExhausted = "mic.fail_id_exhausted"
	failOther       = "mic.fail_other"
)

var failClasses = []string{failOverloaded, failTimeout, failNotActive, failUnacked, failTableFull, failIDExhausted, failOther}

// classify maps a dial error to its failure class. Flow-ID exhaustion has no
// sentinel error, so it is recognised by its message.
func classify(err error) string {
	switch {
	case errors.Is(err, mic.ErrOverloaded):
		return failOverloaded
	case errors.Is(err, mic.ErrSetupTimeout):
		return failTimeout
	case errors.Is(err, mic.ErrNotActive):
		return failNotActive
	case errors.Is(err, ctrlplane.ErrUnacked):
		return failUnacked
	case errors.Is(err, flowtable.ErrTableFull):
		return failTableFull
	case strings.Contains(err.Error(), "ID space") && strings.Contains(err.Error(), "exhausted"):
		return failIDExhausted
	}
	return failOther
}

// summarize folds the dial log into the iteration's metrics.
func (d *dialLog) summarize(r *iterResult) {
	var lat metrics.Sample
	fails := map[string]float64{}
	other := map[string]bool{}
	ok := 0
	var first sim.Time
	for i, rec := range d.recs {
		if i == 0 || rec.issued < first {
			first = rec.issued
		}
		switch {
		case rec.answers == 0:
			fails[failOther]++
			other["dial never answered"] = true
		case rec.err != nil:
			c := classify(rec.err)
			fails[c]++
			if c == failOther {
				other[rec.err.Error()] = true
			}
		default:
			ok++
			lat.Add(rec.acked.Sub(rec.issued).Seconds() * 1e3)
			if rec.acked > d.lastAck {
				d.lastAck = rec.acked
			}
		}
		if rec.answers > 1 {
			r.problem("dial %d answered %d times", i, rec.answers)
		}
	}
	r.attempted += len(d.recs)
	r.failed += len(d.recs) - ok
	r.counts["mic.dials"] = float64(len(d.recs))
	r.counts["mic.dials_ok"] = float64(ok)
	for _, c := range failClasses {
		r.counts[c] = fails[c]
	}
	for msg := range other {
		r.otherFails = append(r.otherFails, msg)
	}
	sort.Strings(r.otherFails)
	r.liveChannelsPeak = d.peak

	if ok == 0 {
		return // every latency figure is missing
	}
	r.virt["dial_mean_ms"] = lat.Mean()
	r.virt["dial_p50_ms"] = lat.Percentile(50)
	// p99 needs 10 samples beyond it; below that the tail is the slowest dial.
	if ok >= 1000 {
		r.virt["dial_p99_ms"] = lat.Percentile(99)
		r.virt["dial_tail_ms"] = lat.Percentile(99)
	} else {
		r.virt["dial_tail_ms"] = lat.Max()
	}
	if d.lastAck > first {
		r.virt["channels_per_s"] = float64(ok) / d.lastAck.Sub(first).Seconds()
	}
}

// done moves the iteration's completion instant forward to at: when the last
// payload byte or response arrived or, on a workload that carries no
// payload, when the last dial was acknowledged.
func (r *iterResult) done(at sim.Time) {
	if ms := at.Seconds() * 1e3; ms > r.virt["done_ms"] {
		r.virt["done_ms"] = ms
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// xfer is one bulk transfer: the sender pushes a prefix of the seeded
// pattern, the receiver hashes what arrives.
type xfer struct {
	idx        int
	size       int
	want       uint32
	got        int
	crc        uint32
	start, end sim.Time
	wStart     time.Time
}

// send starts the transfer on an established session.
func (x *xfer) send(eng *sim.Engine, tr *tracer, pattern []byte, send func([]byte)) {
	x.start = eng.Now()
	if tr != nil {
		x.wStart = time.Now()
	}
	send(pattern[:x.size])
}

// recv returns the receiver's data callback.
func (x *xfer) recv(eng *sim.Engine, tr *tracer) func([]byte) {
	return func(p []byte) {
		x.crc = crc32.Update(x.crc, castagnoli, p)
		x.got += len(p)
		if x.got >= x.size && x.end == 0 {
			x.end = eng.Now()
			if tr != nil {
				tr.virtSpan("transfer", "run", 20+x.idx, uint64(x.idx), x.start, x.end, x.wStart, time.Now(), "")
			}
		}
	}
}

// verifyTransfers checks every transfer completed with the right bytes and
// reports the mean per-flow goodput.
func verifyTransfers(r *iterResult, xs []*xfer) {
	sum, okFlows := 0.0, 0
	for _, x := range xs {
		r.attempted++
		r.payloadBytes += int64(x.size)
		switch {
		case x.end == 0 || x.got != x.size:
			r.failed++
			r.problem("transfer %d incomplete: %d of %d bytes", x.idx, x.got, x.size)
		case x.crc != x.want:
			r.failed++
			r.problem("transfer %d payload hash mismatch", x.idx)
		default:
			okFlows++
			sum += float64(x.size) * 8 / x.end.Sub(x.start).Seconds() / 1e6
			r.done(x.end)
		}
	}
	if okFlows == len(xs) && okFlows > 0 {
		r.virt["goodput_mbps"] = sum / float64(okFlows)
	}
}

// collect reads every exported counter the per-layer metrics are built from.
// It runs after the engine has stopped, at the same boundary in the untraced
// and the traced pass.
func (b *bed) collect(r *iterResult) {
	c := r.counts
	st := b.net.Stats
	events := float64(b.eng.Processed())
	c["sim.events"] = events
	c["sim.events_per_hop"] = ratio(events, float64(st.Forwarded))

	var hits, misses, evictions uint64
	for _, sw := range b.net.Switches() {
		hits += sw.Table.CacheHits
		misses += sw.Table.CacheMisses
		evictions += sw.Table.EvictedIdle + sw.Table.EvictedHard + sw.Table.EvictedCapacity
	}
	c["flowtable.lookups"] = float64(hits + misses)
	c["flowtable.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	c["flowtable.evictions"] = float64(evictions)
	// hits and misses are kept apart for est_share; they are not metrics.
	c["flowtable.cache_hits"] = float64(hits)

	c["netsim.forwarded"] = float64(st.Forwarded)
	c["netsim.delivered"] = float64(st.Delivered)
	c["netsim.dropped"] = float64(st.Dropped)
	c["netsim.lost_down"] = float64(st.LostDown)
	c["netsim.table_miss"] = float64(st.TableMiss)
	c["netsim.tx_bytes"] = float64(st.TxBytes)
	c["netsim.wire_bytes_per_payload_byte"] = ratio(float64(st.TxBytes), float64(r.payloadBytes))
	c["netsim.virt_cpu_vswitch_ms"] = ms(b.net.CPU.Category("vswitch"))
	var hostTx uint64
	for _, h := range b.net.Hosts() {
		hostTx += h.TxPackets
	}
	c["netsim.host_tx_packets"] = float64(hostTx) // for packet.est_share

	c["transport.retransmits"] = float64(r.retransmits)
	c["transport.virt_cpu_stack_ms"] = ms(b.net.CPU.Category("stack"))
	c["transport.virt_cpu_crypto_ms"] = ms(b.net.CPU.Category("crypto"))

	b.scanChannels()
	var ch ctrlplane.Channel
	for _, x := range b.chans {
		ch.FlowMods += x.FlowMods
		ch.GroupMods += x.GroupMods
		ch.Deletes += x.Deletes
		ch.Barriers += x.Barriers
		ch.Batches += x.Batches
		ch.BatchedMods += x.BatchedMods
		ch.Retransmits += x.Retransmits
		ch.Timeouts += x.Timeouts
		ch.GiveUps += x.GiveUps
		ch.TableFulls += x.TableFulls
		ch.StaleRejects += x.StaleRejects
		ch.Heartbeats += x.Heartbeats
		ch.Hellos += x.Hellos
		ch.Dumps += x.Dumps
	}
	c["ctrlplane.flowmods"] = float64(ch.FlowMods)
	c["ctrlplane.groupmods"] = float64(ch.GroupMods)
	c["ctrlplane.deletes"] = float64(ch.Deletes)
	c["ctrlplane.barriers"] = float64(ch.Barriers)
	c["ctrlplane.batches"] = float64(ch.Batches)
	c["ctrlplane.mods_per_batch"] = ratio(float64(ch.BatchedMods), float64(ch.Batches))
	c["ctrlplane.retransmits"] = float64(ch.Retransmits)
	c["ctrlplane.timeouts"] = float64(ch.Timeouts)
	c["ctrlplane.giveups"] = float64(ch.GiveUps)
	c["ctrlplane.table_fulls"] = float64(ch.TableFulls)
	c["ctrlplane.stale_rejects"] = float64(ch.StaleRejects)
	c["ctrlplane.heartbeats"] = float64(ch.Heartbeats)
	c["ctrlplane.hellos"] = float64(ch.Hellos)
	c["ctrlplane.dumps"] = float64(ch.Dumps)

	var pcHits, pcMisses uint64
	for _, mc := range b.controllers() {
		pcHits += mc.PathCacheHits
		pcMisses += mc.PathCacheMisses
	}
	c["mic.path_cache_hit_ratio"] = ratio(float64(pcHits), float64(pcHits+pcMisses))
	c["mic.path_cache_misses"] = float64(pcMisses)
	c["mic.live_channels_peak"] = float64(r.liveChannelsPeak)
	c["mic.rules_per_channel"] = ratio(float64(ch.FlowMods), c["mic.dials_ok"])
	c["mic.stream_retransmits"] = float64(r.streamRetransmits)
	c["mic.virt_cpu_mc_ms"] = ms(b.net.CPU.Category("mc"))
	c["mic.takeovers"] = float64(r.takeovers)
	c["mic.stepdowns"] = float64(r.stepped)
	c["mic.rules_reinstalled"] = float64(r.reinstalled)
	c["mic.rules_stale_deleted"] = float64(r.stale)
	if b.cl != nil {
		c["mic.journal_records"] = float64(b.cl.Journal.Len())
	}
	// A bed without a controller dials nothing through mic; its connects
	// are counted by the dial log like any other dial.
	for _, name := range []string{"mic.journal_records", "mic.audit_stale", "mic.audit_missing"} {
		if _, ok := c[name]; !ok {
			c[name] = 0
		}
	}

	r.virt["virt_cpu_ms"] = ms(b.net.CPU.Total())
	r.virt["fail_ratio"] = ratio(float64(r.failed), float64(r.attempted))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
