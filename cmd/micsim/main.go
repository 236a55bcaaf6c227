// Command micsim runs a single anonymous-transfer scenario and prints its
// metrics — a one-off probe for exploring configurations outside the
// registered experiments.
//
// Example:
//
//	micsim -scheme mic-tcp -mns 4 -mflows 2 -size 4194304 -from 0 -to 15
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mic/internal/chaos"
	"mic/internal/harness"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/topo"
)

func main() {
	var (
		scheme   = flag.String("scheme", "mic-tcp", "tcp | ssl | mic-tcp | mic-ssl | tor")
		mns      = flag.Int("mns", 3, "Mimic Nodes per m-flow (MIC) / relays (Tor)")
		mflows   = flag.Int("mflows", 1, "m-flows per channel (MIC)")
		fanout   = flag.Int("fanout", 1, "partial-multicast fanout (MIC)")
		size     = flag.Int("size", 4<<20, "bytes to transfer")
		from     = flag.Int("from", 0, "initiator host index (0-15)")
		to       = flag.Int("to", 15, "responder host index (0-15)")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		latency  = flag.Bool("latency", false, "also measure 10-byte ping-pong latency")
		scenario = flag.String("scenario", "", "fault scenario to play (MIC schemes only); 'help' lists them")
	)
	flag.Parse()

	s, err := parseScheme(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *scenario == "help" {
		fmt.Print(scenarioHelp())
		return
	}
	if *from == *to || *from < 0 || *to < 0 || *from > 15 || *to > 15 {
		fmt.Fprintln(os.Stderr, "micsim: -from and -to must be distinct host indices in 0..15")
		os.Exit(2)
	}
	if *size < 0 {
		fmt.Fprintln(os.Stderr, "micsim: -size must not be negative")
		os.Exit(2)
	}
	if *scenario != "" {
		sc := scenarioByName(*scenario)
		if sc == nil {
			fmt.Fprintf(os.Stderr, "micsim: unknown scenario %q; valid scenarios:\n%s", *scenario, scenarioHelp())
			os.Exit(2)
		}
		if s != harness.SchemeMICTCP && s != harness.SchemeMICSSL {
			fmt.Fprintf(os.Stderr, "micsim: -scenario %s needs a MIC scheme (%s)\n", sc.name, sc.why)
			os.Exit(2)
		}
		if err := sc.run(os.Stdout, s == harness.SchemeMICSSL, *from, *to, *mns, *mflows, *fanout, *size, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	switch s {
	case harness.SchemeMICTCP, harness.SchemeMICSSL:
		runMIC(s == harness.SchemeMICSSL, *from, *to, *mns, *mflows, *fanout, *size, *seed)
	default:
		res, err := harness.ThroughputOneFlow(s, *mns, *size, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("scheme=%v size=%d throughput=%.1f Mbps wall=%v cpu=%v\n",
			s, *size, res.Mbps, res.Wall, res.CPUTotal)
	}
	if *latency {
		d, err := harness.PingPongLatency(s, *mns, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("pingpong latency=%v\n", d)
	}
}

// scenarioSpec registers one named fault scenario: its report function (all
// scenarios share one signature and write a deterministic report), a doc
// line for -scenario help, and why it needs a MIC scheme.
type scenarioSpec struct {
	name string
	doc  string
	why  string
	run  func(w io.Writer, secure bool, from, to, mns, mflows, fanout, size int, seed uint64) error
}

// scenarios is the registry -scenario dispatches over. Adding a scenario is
// one entry here; unknown-name errors and -scenario help stay in sync for
// free.
var scenarios = []scenarioSpec{
	{
		name: "chaos",
		doc:  "five-act fabric fault storm: link flap, switch/pod crashes, control-channel loss",
		why:  "self-healing lives in the MC",
		run:  chaosReport,
	},
	{
		name: "lossy",
		doc:  "gray-failure storm: silent loss, mangling, blackhole; no control-plane events",
		why:  "the health machinery lives in the stream",
		run:  lossyReport,
	},
	{
		name: "mckill",
		doc:  "controller crash-failover: kill the active MC mid-transfer; standby takes over and reconciles",
		why:  "controller failover lives in the MC cluster",
		run:  mckillReport,
	},
	{
		name: "storm",
		doc:  "setup storm: Poisson dial burst at 4x the admission rate into capacity-bounded flow tables",
		why:  "admission control and graceful degradation live in the MC",
		run:  stormReport,
	},
	{
		name: "partition",
		doc:  "management partitions: symmetric controller split, asymmetric zombie-primary, heal-and-rejoin; lease step-down and epoch fencing",
		why:  "partition-tolerant mastership lives in the MC cluster",
		run:  partitionReport,
	},
}

// scenarioByName finds a registered scenario, or nil.
func scenarioByName(name string) *scenarioSpec {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i]
		}
	}
	return nil
}

// scenarioHelp renders one line per registered scenario.
func scenarioHelp() string {
	var b strings.Builder
	for _, sc := range scenarios {
		fmt.Fprintf(&b, "  %-8s %s\n", sc.name, sc.doc)
	}
	return b.String()
}

func parseScheme(s string) (harness.Scheme, error) {
	switch strings.ToLower(s) {
	case "tcp":
		return harness.SchemeTCP, nil
	case "ssl":
		return harness.SchemeSSL, nil
	case "mic-tcp", "mic":
		return harness.SchemeMICTCP, nil
	case "mic-ssl":
		return harness.SchemeMICSSL, nil
	case "tor", "onion":
		return harness.SchemeTor, nil
	}
	return 0, fmt.Errorf("micsim: unknown scheme %q", s)
}

// runMIC runs one plain transfer with every MIC knob reachable.
func runMIC(secure bool, from, to, mns, mflows, fanout, size int, seed uint64) {
	tb, err := harness.NewTestbed(harness.SchemeMICTCP, 4, netsim.Config{}, mic.Config{MNs: mns, MFlows: mflows, MulticastFanout: fanout, Seed: seed}, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	xfer := tb.StartTransfer(secure, from, to, make([]byte, size))
	tb.Run(0)
	if err := xfer.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("scheme=MIC secure=%v mns=%d mflows=%d fanout=%d\n", secure, mns, mflows, fanout)
	fmt.Printf("setup=%v throughput=%.1f Mbps wall=%v cpu=%v\n",
		time.Duration(xfer.Start), xfer.Mbps(), xfer.Wall(), tb.Net.CPU.Total())
	for i, f := range xfer.Channel.Flows {
		fmt.Printf("m-flow %d: entry=%v path=%s MNs=%d\n", i, f.Entry, f.Path.Render(tb.Graph), len(f.MNs))
	}
}

// playScenario is harness.PlayScenario as the fault-scenario reports call it:
// micsim's knobs, a zero payload, no probes, everything narrated to w.
// Everything printed is a function of the arguments — main_test.go diffs each
// seed-7 report against a golden file.
func playScenario(w io.Writer, title string, gen func(*topo.Graph, uint64, topo.NodeID, topo.NodeID) (chaos.Schedule, error),
	ha *mic.ClusterConfig, log harness.Log, secure bool, from, to, mns, mflows, fanout, size int, seed uint64) (*harness.Testbed, *harness.Transfer, error) {
	return harness.PlayScenario(mic.Config{MNs: mns, MFlows: mflows, MulticastFanout: fanout, Seed: seed},
		ha, secure, from, to, make([]byte, size), gen, nil, 2*time.Second, w, title, log)
}

// lossyReport plays the gray-failure storm — per-link loss, packet
// mangling, a silent blackhole — against a MIC transfer and reports what
// the degraded-mode data plane did about it: per-m-flow health, slice
// retransmissions, rebalanced traffic split. Unlike the chaos scenario,
// most of these faults never raise a control-plane event; surviving them is
// the endpoints' job.
func lossyReport(w io.Writer, secure bool, from, to, mns, mflows, fanout, size int, seed uint64) error {
	gen := func(g *topo.Graph, seed uint64, from, to topo.NodeID) (chaos.Schedule, error) {
		return chaos.LossyScenario(g, seed, chaos.LossyConfig{From: from, To: to})
	}
	tb, xfer, err := playScenario(w, "lossy", gen, nil, 0, secure, from, to, mns, mflows, fanout, size, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "slice retransmits=%d duplicate slices=%d repairs=%d\n",
		xfer.Stream.Retransmits(), xfer.Remote.SlicesDup, tb.MC.Repairs)
	for i, h := range xfer.Stream.Health() {
		fmt.Fprintf(w, "m-flow %d: state=%v srtt=%v slices-out=%d acked=%d retx-away=%d\n",
			i, h.State, h.SRTT, h.SlicesOut, h.SlicesAcked, h.Retx)
	}
	return nil
}

// chaosReport plays the standard five-act fault storm against a MIC
// transfer with auto-repair enabled and reports what the control plane did
// about it.
func chaosReport(w io.Writer, secure bool, from, to, mns, mflows, fanout, size int, seed uint64) error {
	gen := func(g *topo.Graph, seed uint64, from, to topo.NodeID) (chaos.Schedule, error) {
		return chaos.Scenario(g, seed, chaos.ScenarioConfig{From: from, To: to})
	}
	tb, _, err := playScenario(w, "chaos", gen, nil, harness.LogRepairs, secure, from, to, mns, mflows, fanout, size, seed)
	if err != nil {
		return err
	}
	mc := tb.MC
	fmt.Fprintf(w, "repairs=%d repair-failures=%d retransmits=%d timeouts=%d give-ups=%d\n",
		mc.Repairs, mc.RepairFailures, mc.Ch.Retransmits, mc.Ch.Timeouts, mc.Ch.GiveUps)
	return nil
}

// mckillReport plays the controller-kill storm against a MIC transfer
// served by a failover cluster (one active, one standby) and reports
// the takeover: detection by missed heartbeats, journal replay, switch
// reconciliation, the post-takeover repair sweep, and a final omniscient
// audit of every switch's flow table against the new active's intent.
func mckillReport(w io.Writer, secure bool, from, to, mns, mflows, fanout, size int, seed uint64) error {
	tb, _, err := playScenario(w, "failover", harness.FailoverScript, &mic.ClusterConfig{}, harness.LogTakeovers|harness.LogRepairs,
		secure, from, to, mns, mflows, fanout, size, seed)
	if err != nil {
		return err
	}
	auditAndTelemetry(w, tb.Cluster)
	return nil
}

// partitionReport plays the management-partition storm against a MIC
// transfer served by a failover cluster with lease-based mastership and
// fencing epochs: a symmetric controller split (the active steps down, the
// standby takes over, the deposed member rejoins demoted on heal), then an
// asymmetric zombie-primary partition (the active loses only its outbound
// paths — its lease expires while a mid-partition fabric cut tempts it to
// keep repairing), then a full heal. The report shows every step-down and
// takeover, the final fencing epoch, switch-side stale rejections, journal
// divergence, and the flow-table audit — the acceptance bar is stale=0,
// missing=0, divergent=0 with fencing on.
func partitionReport(w io.Writer, secure bool, from, to, mns, mflows, fanout, size int, seed uint64) error {
	tb, _, err := playScenario(w, "partition", harness.PartitionScript, &mic.ClusterConfig{}, harness.LogStepDowns|harness.LogTakeovers|harness.LogEpochs,
		secure, from, to, mns, mflows, fanout, size, seed)
	if err != nil {
		return err
	}
	cl := tb.Cluster
	var maxMark uint64
	for _, sw := range tb.Net.Switches() {
		maxMark = max(maxMark, sw.FenceEpoch)
	}
	fmt.Fprintf(w, "fencing: epoch=%d switch-mark=%d switch-rejects=%d journal-divergent=%d\n",
		cl.Fence(), maxMark, tb.StaleRejected(), cl.Journal.Divergent)
	auditAndTelemetry(w, cl)
	return nil
}

// auditAndTelemetry closes a cluster scenario's report: the omniscient
// flow-table audit, then the liveness counters.
func auditAndTelemetry(w io.Writer, cl *mic.Cluster) {
	stale, missing := cl.Audit()
	fmt.Fprintf(w, "flow-table audit: stale=%d missing=%d\n", stale, missing)
	fmt.Fprint(w, cl.Telemetry().String())
}

// stormReport plays a seeded setup storm — Poisson dial arrivals at 4x the
// MC's admission rate, from eight initiator hosts into capacity-bounded
// flow tables — and reports how the overload layer held up: every dial's
// outcome (full-F, degraded-F, typed refusal, timeout), dial-latency p99,
// steady-state goodput of the streams that were admitted, and the MC's
// admission telemetry. -from/-to are ignored (the storm picks its own host
// pairs); each admitted stream sends size/128 bytes (clamped to [4 KiB,
// 1 MiB]) so the default -size stays tractable across ~100 admitted dials.
// Everything it prints is a function of its arguments — main_test.go diffs
// the seed-7 report against a golden file.
func stormReport(w io.Writer, secure bool, from, to, mns, mflows, fanout, size int, seed uint64) error {
	pay := size / 128
	if pay < 4<<10 {
		pay = 4 << 10
	}
	if pay > 1<<20 {
		pay = 1 << 20
	}
	if mflows < 2 {
		mflows = 4 // the degradation ladder needs headroom below the request
	}
	admission := harness.StormAdmission()
	opts := harness.StormOptions{
		Seed: seed, Rate: 4 * admission.Rate,
		MFlows: mflows, MNs: mns, Fanout: fanout, Secure: secure,
		Payload: pay, Admission: admission,
	}
	res, err := harness.RunStorm(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "setup storm (seed %d): %d dials offered at %.0f/s, admission rate %.0f/s, table capacity %d\n",
		seed, res.Dials, opts.Rate, admission.Rate, harness.StormTableCapacity)
	fmt.Fprintf(w, "outcomes: ok=%d degraded=%d refused=%d timed-out=%d failed=%d (answered %d/%d)\n",
		res.OK, res.Degraded, res.Refused, res.TimedOut, res.Failed, res.Answered, res.Dials)
	if res.Answered != res.Dials {
		return fmt.Errorf("micsim: %d dials silently dropped", res.Dials-res.Answered)
	}
	fmt.Fprintf(w, "client retries: %d, p99 dial latency: %.3f ms, achieved F: %.2f of %d requested\n",
		res.Retries, res.P99DialMs, res.AchievedF, mflows)
	fmt.Fprintf(w, "steady-state goodput_mbps: %.1f\n", res.GoodputMbps)
	fmt.Fprint(w, res.Counters.String())
	return nil
}
