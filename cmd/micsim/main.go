// Command micsim runs a single anonymous-transfer scenario and prints its
// metrics — a one-off probe for exploring configurations outside the
// registered experiments.
//
// Example:
//
//	micsim -scheme mic-tcp -mns 4 -mflows 2 -size 4194304 -from 0 -to 15
package main

import (
	"errors"
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
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values: 0 on success, 1 if
// the run failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("micsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scheme   = fs.String("scheme", "mic-tcp", "tcp | ssl | mic-tcp | mic-ssl | tor")
		mns      = fs.Int("mns", 3, "Mimic Nodes per m-flow (MIC) / relays (Tor)")
		mflows   = fs.Int("mflows", 1, "m-flows per channel (MIC)")
		fanout   = fs.Int("fanout", 1, "partial-multicast fanout (MIC)")
		size     = fs.Int("size", 4<<20, "bytes to transfer")
		from     = fs.Int("from", 0, "initiator host index (0-15)")
		to       = fs.Int("to", 15, "responder host index (0-15)")
		seed     = fs.Uint64("seed", 1, "RNG seed")
		latency  = fs.Bool("latency", false, "also measure 10-byte ping-pong latency")
		scenario = fs.String("scenario", "", "fault scenario to play (MIC schemes only); 'help' lists them")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	s, err := parseScheme(*scheme)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *scenario == "help" {
		fmt.Fprint(stdout, scenarioHelp())
		return 0
	}
	if *from == *to || *from < 0 || *to < 0 || *from > 15 || *to > 15 {
		fmt.Fprintln(stderr, "micsim: -from and -to must be distinct host indices in 0..15")
		return 2
	}
	if *size < 0 {
		fmt.Fprintln(stderr, "micsim: -size must not be negative")
		return 2
	}
	if *scenario != "" {
		e := lookup(*scenario)
		if e == nil {
			fmt.Fprintf(stderr, "micsim: unknown scenario %q; -scenario help lists them\n", *scenario)
			return 2
		}
		if s != harness.SchemeMICTCP && s != harness.SchemeMICSSL {
			fmt.Fprintf(stderr, "micsim: -scenario %s needs a MIC scheme (%s)\n", e.name, e.why)
			return 2
		}
		if *latency {
			fmt.Fprintln(stderr, "micsim: -latency measures a plain transfer; it does not combine with -scenario")
			return 2
		}
		p := harness.Params{Seed: *seed, From: *from, To: *to, Size: *size, Secure: s == harness.SchemeMICSSL}
		if err := e.play(stdout, p, *mns, *mflows, *fanout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	cfg := mic.Config{MNs: *mns, MFlows: *mflows, MulticastFanout: *fanout, Seed: *seed}
	if err := transfer(stdout, s, cfg, *from, *to, *size); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *latency {
		// On a fresh bed of the transfer's configuration, so that the
		// transfer's queues do not colour the ping-pong.
		tb, err := harness.NewTestbed(s, 4, netsim.Config{Seed: cfg.Seed}, cfg, nil)
		var d time.Duration
		if err == nil {
			d, err = tb.PingPong(s, *from, *to, *mns)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "pingpong latency=%v\n", d)
	}
	return 0
}

// entry is one row of the scenario table: a name, a line for -scenario help,
// why the scenario needs a MIC scheme, and the scenario itself.
type entry struct {
	name, doc, why string
	harness.Scenario
}

// healing is the control plane of every fault scenario, besides micsim's
// channel-shape flags: self-healing, with retries to spare.
var healing = mic.Config{AutoRepair: true, RepairMaxRetries: 20}

// scenarios is the table -scenario and -scenario help read. Adding a
// scenario is one entry here.
var scenarios = []entry{
	{
		name: "chaos",
		doc:  "five-act fabric fault storm: link flap, switch/pod crashes, control-channel loss",
		why:  "self-healing lives in the MC",
		Scenario: harness.Scenario{Title: "chaos", MIC: healing, Transfer: true,
			Faults: chaos.Fabric, Log: harness.LogRepairs, Report: chaosReport},
	},
	{
		name: "lossy",
		doc:  "gray-failure storm: silent loss, mangling, blackhole; no control-plane events",
		why:  "the health machinery lives in the stream",
		Scenario: harness.Scenario{Title: "lossy", MIC: healing, Transfer: true,
			Faults: chaos.Lossy, Report: lossyReport},
	},
	{
		name: "mckill",
		doc:  "controller crash-failover: kill the active MC mid-transfer; standby takes over and reconciles",
		why:  "controller failover lives in the MC cluster",
		Scenario: harness.Scenario{Title: "failover", Cluster: &mic.ClusterConfig{}, MIC: healing, Transfer: true,
			Faults: chaos.Failover,
			Log:    harness.LogTakeovers | harness.LogRepairs, Window: 2 * time.Second, Report: clusterReport},
	},
	{
		name:     "storm",
		doc:      "setup storm: Poisson dial burst at 4x the admission rate into capacity-bounded flow tables",
		why:      "admission control and graceful degradation live in the MC",
		Scenario: stormScenario(),
	},
	{
		name: "partition",
		doc:  "management partitions: symmetric controller split, asymmetric zombie-primary, heal-and-rejoin; lease step-down and epoch fencing",
		why:  "partition-tolerant mastership lives in the MC cluster",
		Scenario: harness.Scenario{Title: "partition", Cluster: &mic.ClusterConfig{}, MIC: healing, Transfer: true,
			Faults: chaos.Partition, Log: harness.LogStepDowns | harness.LogTakeovers | harness.LogEpochs,
			Window: 2 * time.Second, Report: partitionReport},
	},
}

// lookup finds a scenario in the table, or nil.
func lookup(name string) *entry {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i]
		}
	}
	return nil
}

// scenarioHelp renders one line per scenario in the table.
func scenarioHelp() string {
	var b strings.Builder
	for _, e := range scenarios {
		fmt.Fprintf(&b, "  %-8s %s\n", e.name, e.doc)
	}
	return b.String()
}

// play runs e at p with micsim's channel-shape flags, narrating to w.
// Everything printed is a function of the arguments — main_test.go diffs
// each seed-7 report against a golden file.
func (e *entry) play(w io.Writer, p harness.Params, mns, mflows, fanout int) error {
	s := e.Scenario
	s.MIC.MNs, s.MIC.MFlows, s.MIC.MulticastFanout = mns, mflows, fanout
	_, err := harness.Run(s, p, w)
	return err
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

// transfer carries size bytes from host `from` to host `to` under the
// scheme, the MIC schemes' MC running cfg (-mns is also Tor's relay count),
// and prints the transfer's metrics and its m-flows (MIC) or circuit (Tor).
func transfer(w io.Writer, s harness.Scheme, cfg mic.Config, from, to, size int) error {
	tb, err := harness.NewTestbed(s, 4, netsim.Config{Seed: cfg.Seed}, cfg, nil)
	if err != nil {
		return err
	}
	x := tb.StartTransfer(s, from, to, 80, cfg.MNs, size)
	tb.Run(0)
	if err := x.Err(); err != nil {
		return err
	}
	cpu := tb.Net.CPU.Total() - x.CPUAtStart // the transfer's, under every scheme
	if x.Channel == nil {
		fmt.Fprintf(w, "scheme=%v size=%d throughput=%.1f Mbps wall=%v cpu=%v\n",
			s, size, x.Mbps(), x.Wall(), cpu)
		if x.Circuit != nil {
			fmt.Fprintf(w, "circuit: %s->%s\n", strings.Join(x.Circuit.Hosts(), "->"), tb.Stacks[to].Host.Name)
		}
		return nil
	}
	fmt.Fprintf(w, "scheme=MIC secure=%v mns=%d mflows=%d fanout=%d\n",
		s == harness.SchemeMICSSL, cfg.MNs, cfg.MFlows, cfg.MulticastFanout)
	fmt.Fprintf(w, "setup=%v throughput=%.1f Mbps wall=%v cpu=%v\n",
		time.Duration(x.Start), x.Mbps(), x.Wall(), cpu)
	for i, f := range x.Channel.Flows {
		fmt.Fprintf(w, "m-flow %d: entry=%v path=%s MNs=%d\n", i, f.Entry, f.Path.Render(tb.Graph), len(f.MNs))
	}
	return nil
}

// lossyReport closes the gray-failure storm's narration — per-link loss,
// packet mangling, a silent blackhole — with what the degraded-mode data
// plane did about it: per-m-flow health, slice retransmissions, rebalanced
// traffic split. Unlike the chaos scenario, most of these faults never raise
// a control-plane event; surviving them is the endpoints' job.
func lossyReport(w io.Writer, o *harness.Outcome) error {
	xfer := o.Transfer
	fmt.Fprintf(w, "slice retransmits=%d duplicate slices=%d repairs=%d\n",
		xfer.Stream.Retransmits(), xfer.Remote.SlicesDup, o.Bed.MC.Repairs)
	for i, h := range xfer.Stream.Health() {
		fmt.Fprintf(w, "m-flow %d: state=%v srtt=%v slices-out=%d acked=%d retx-away=%d\n",
			i, h.State, h.SRTT, h.SlicesOut, h.SlicesAcked, h.Retx)
	}
	return nil
}

// chaosReport closes the five-act fault storm's narration with what the
// self-healing control plane did about it.
func chaosReport(w io.Writer, o *harness.Outcome) error {
	mc := o.Bed.MC
	fmt.Fprintf(w, "repairs=%d repair-failures=%d retransmits=%d timeouts=%d give-ups=%d\n",
		mc.Repairs, mc.RepairFailures, mc.Ch.Retransmits, mc.Ch.Timeouts, mc.Ch.GiveUps)
	return nil
}

// clusterReport closes a cluster scenario's narration — for mckill, a
// failover cluster (one active, one standby) detecting the kill by missed
// heartbeats, replaying the journal, reconciling switches and sweeping for
// repairs — with an omniscient audit of every switch's flow table against
// the active's intent, then the liveness counters.
func clusterReport(w io.Writer, o *harness.Outcome) error {
	cl := o.Bed.Cluster
	stale, missing := cl.Audit()
	fmt.Fprintf(w, "flow-table audit: stale=%d missing=%d\n", stale, missing)
	fmt.Fprint(w, cl.Telemetry().String())
	return nil
}

// partitionReport closes the management-partition storm's narration. A
// failover cluster with lease-based mastership and fencing epochs rides a
// symmetric controller split (the active steps down, the standby takes over,
// the deposed member rejoins demoted on heal), then an asymmetric
// zombie-primary partition (the active loses only its outbound paths — its
// lease expires while a mid-partition fabric cut tempts it to keep
// repairing), then a full heal. The report shows the final fencing epoch,
// switch-side stale rejections and journal divergence, then clusterReport —
// the acceptance bar is stale=0, missing=0, divergent=0 with fencing on.
func partitionReport(w io.Writer, o *harness.Outcome) error {
	tb, cl := o.Bed, o.Bed.Cluster
	var maxMark uint64
	for _, sw := range tb.Net.Switches() {
		maxMark = max(maxMark, sw.FenceEpoch)
	}
	fmt.Fprintf(w, "fencing: epoch=%d switch-mark=%d switch-rejects=%d journal-divergent=%d\n",
		cl.Fence(), maxMark, tb.StaleRejected(), cl.Journal.Divergent)
	return clusterReport(w, o)
}

// stormScenario is harness.StormScenario at 4x the admission rate, reported
// by stormReport. -from/-to are ignored (the storm picks its own host pairs).
func stormScenario() harness.Scenario {
	s := harness.StormScenario(4)
	s.Report = stormReport
	return s
}

// stormReport reports how the overload layer held up: every dial's outcome
// (full-F, degraded-F, typed refusal, timeout), dial-latency p99,
// steady-state goodput of the streams that were admitted, and the MC's
// admission telemetry. A dial never answered is an error.
func stormReport(w io.Writer, o *harness.Outcome) error {
	s, res := o.Scenario, o.Storm
	fmt.Fprintf(w, "setup storm (seed %d): %d dials offered at %.0f/s, admission rate %.0f/s, table capacity %d\n",
		s.MIC.Seed, res.Dials, s.Storm.Rate, s.MIC.Admission.Rate, s.Net.FlowTableCapacity)
	fmt.Fprintf(w, "outcomes: ok=%d degraded=%d refused=%d timed-out=%d failed=%d (answered %d/%d)\n",
		res.OK, res.Degraded, res.Refused, res.TimedOut, res.Failed, res.Answered, res.Dials)
	if res.Answered != res.Dials {
		return fmt.Errorf("micsim: %d dials silently dropped", res.Dials-res.Answered)
	}
	fmt.Fprintf(w, "client retries: %d, p99 dial latency: %.3f ms, achieved F: %.2f of %d requested\n",
		res.Retries, res.P99DialMs, res.AchievedF, s.MIC.MFlows)
	fmt.Fprintf(w, "steady-state goodput_mbps: %.1f\n", res.GoodputMbps)
	fmt.Fprint(w, res.Counters.String())
	return nil
}
