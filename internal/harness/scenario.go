package harness

import (
	"fmt"
	"io"
	"time"

	"mic/internal/chaos"
	"mic/internal/ctrlplane"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/sim"
)

// This file is the one way a fault scenario runs: a Scenario value — control
// plane, fabric, workload, fault script, narration, run window and report —
// played on a fresh bed by Run. Every micsim scenario and the trials of figs
// s8, s9 and s11 are values of it.

// Scenario is one fault scenario as data. Its workload is a bulk transfer, a
// setup storm, or both; its faults are a chaos.Script whose victims are
// named by role, resolved for the transfer's endpoints at the run's seed.
type Scenario struct {
	Title string // heads the narrated schedule

	// Cluster, when non-nil, runs the control plane as a failover cluster
	// under it (its ablation flags included); nil runs a standalone MC.
	Cluster *mic.ClusterConfig
	Net     netsim.Config // the fat-tree(4) fabric's configuration; Run sets its Seed
	MIC     mic.Config    // what the control plane runs; Run sets its Seed

	// Transfer carries one bulk MIC stream of Params.Size bytes from host
	// Params.From to host Params.To.
	Transfer bool
	// Storm, when non-nil, dials a chaos.SetupStorm at the run's seed; see
	// startStorm.
	Storm *chaos.StormConfig

	// Faults is the fault script; an empty one plays none. Probes are
	// blackout dials, each timed against one of its faults.
	Faults chaos.Script
	Probes []Probe

	Log Log // the control-plane reactions narrated besides the faults

	// Window is how long a clustered bed runs before its heartbeat tickers,
	// which never drain, stop and the rest drains; a standalone bed drains at
	// once. A storm ends at Window instead: the peers of its closed channels
	// retransmit on a capped RTO until their conns give up, 100 s of
	// virtual time without new data acknowledged, far past any storm.
	Window time.Duration

	// Report, when non-nil, ends the narration with the outcome's summary.
	Report func(w io.Writer, o *Outcome) error
}

// Params is what one run of a scenario varies.
type Params struct {
	Seed     uint64
	From, To int // the transfer's host indices
	// Size is the bytes the transfer carries; each admitted storm stream
	// sends Size/128, clamped to [4 KiB, 1 MiB].
	Size   int
	Secure bool // MIC-SSL instead of MIC-TCP
}

// Probe is a blackout probe: a fresh tenant's dial from host From to a
// listener on host To, issued At after fault number Fault of the scenario's
// script. Its setup latency is the control-plane outage seen from there.
type Probe struct {
	Fault    int
	At       time.Duration
	From, To int
}

// Outcome is what one run left behind.
type Outcome struct {
	Scenario Scenario // as run: the seeds and a storm's m-flow request resolved
	Bed      *Testbed
	Transfer *Transfer    // nil without a transfer
	Storm    *StormResult // nil without a storm
	ProbeMs  []float64    // each probe's setup latency, in Probes order
}

// Run plays s with p on a fresh fat-tree(4) bed: the workload starts, the
// fault script is resolved and played, the probes are armed against it, and
// the engine runs as s.Window says. With w non-nil the schedule,
// every fault, the reactions s.Log selects, the delivery line and s.Report
// are narrated to it; everything printed is a function of s and p. A script
// the runner refuses, a probe timed against a fault the script does not
// have, a transfer that does not complete, and a probe dial that fails or
// never completes are errors.
func Run(s Scenario, p Params, w io.Writer) (*Outcome, error) {
	s.Net.Seed, s.MIC.Seed = p.Seed, p.Seed
	if s.Storm != nil && s.MIC.MFlows < 2 {
		s.MIC.MFlows = 4 // the degradation ladder needs headroom below the request
	}
	tb, err := NewTestbed(SchemeMICTCP, 4, s.Net, s.MIC, s.Cluster)
	if err != nil {
		return nil, err
	}
	o := &Outcome{Scenario: s, Bed: tb}
	if s.Transfer {
		scheme := SchemeMICTCP
		if p.Secure {
			scheme = SchemeMICSSL
		}
		o.Transfer = tb.StartTransfer(scheme, p.From, p.To, 80, 0, p.Size)
	}
	var storm *stormRun
	if s.Storm != nil {
		if storm, err = tb.startStorm(*s.Storm, s.MIC.MFlows, p); err != nil {
			return nil, err
		}
	}
	var sched chaos.Schedule
	if len(s.Faults.Faults) > 0 {
		hosts := tb.Graph.Hosts()
		if sched, err = s.Faults.Resolve(tb.Graph, p.Seed, hosts[p.From], hosts[p.To]); err != nil {
			return nil, err
		}
		if w != nil {
			fmt.Fprintf(w, "%s schedule (seed %d):\n%s", s.Title, p.Seed, sched.Render(tb.Graph))
		}
	}
	var ch *ctrlplane.Channel
	if tb.MC != nil {
		ch = tb.MC.Ch // control-loss faults degrade the standalone MC's channel
	}
	runner := chaos.NewRunner(tb.Net, ch)
	if w != nil {
		runner.OnFault = func(f chaos.Fault) {
			fmt.Fprintf(w, "%12v  fault  %s\n", time.Duration(tb.Eng.Now()), f.Kind)
		}
		tb.narrate(w, s.Log)
	}
	if err := runner.Play(sched); err != nil {
		return nil, err
	}
	var probes []*probe
	for _, pr := range s.Probes {
		if pr.Fault < 0 || pr.Fault >= len(s.Faults.Faults) {
			return nil, fmt.Errorf("harness: a probe times against fault %d of a %d-fault script",
				pr.Fault, len(s.Faults.Faults))
		}
		probes = append(probes, tb.probeDial(s.Faults.Faults[pr.Fault].At+pr.At, pr))
	}

	if storm != nil {
		tb.Eng.RunUntil(sim.Time(s.Window))
	} else {
		tb.Run(s.Window)
	}

	if x := o.Transfer; x != nil {
		if err := x.Err(); err != nil {
			return nil, err
		}
		if w != nil {
			fmt.Fprintf(w, "delivered %d bytes in %v (%.1f Mbps) through %d faults",
				x.Got, x.Wall(), x.Mbps(), len(runner.Applied))
			if tb.Cluster != nil {
				fmt.Fprintf(w, " and %d takeover(s)", tb.Cluster.Takeovers())
			}
			fmt.Fprintln(w)
		}
	}
	if storm != nil {
		o.Storm = storm.result(tb)
	}
	for i, pr := range probes {
		if pr.err != nil {
			return nil, pr.err
		}
		if pr.done == 0 {
			return nil, fmt.Errorf("harness: probe dial %d never completed", i)
		}
		o.ProbeMs = append(o.ProbeMs, time.Duration(pr.done-pr.issued).Seconds()*1e3)
	}
	if w != nil && s.Report != nil {
		return o, s.Report(w, o)
	}
	return o, nil
}

// Log selects which control-plane reactions Run narrates, besides the
// faults themselves.
type Log uint

const (
	LogRepairs   Log = 1 << iota // completed self-healing jobs
	LogTakeovers                 // cluster takeovers
	LogStepDowns                 // cluster lease-loss step-downs
	LogEpochs                    // takeover lines carry the fencing epoch
)

// narrate attaches the reaction printers log selects.
func (tb *Testbed) narrate(w io.Writer, log Log) {
	if log&LogRepairs != 0 {
		tb.controlPlane().SubscribeRepair(func(ev mic.RepairEvent) {
			verdict := "repaired"
			if ev.Err != nil {
				verdict = "FAILED: " + ev.Err.Error()
			}
			fmt.Fprintf(w, "%12v  repair channel %d attempts=%d latency=%v %s\n",
				time.Duration(ev.CompletedAt), ev.Channel, ev.Attempts, ev.CompletedAt.Sub(ev.DetectedAt), verdict)
		})
	}
	cl := tb.Cluster
	if cl == nil {
		return
	}
	if log&LogStepDowns != 0 {
		cl.OnStepDown = func(member int, at sim.Time) {
			fmt.Fprintf(w, "%12v  step-down member=%d (lease expired)\n", time.Duration(at), member)
		}
	}
	if log&LogTakeovers != 0 {
		cl.OnTakeover = func(ts mic.TakeoverStats) {
			epoch := ""
			if log&LogEpochs != 0 {
				epoch = fmt.Sprintf(" epoch=%d", cl.Fence())
			}
			fmt.Fprintf(w, "%12v  takeover member=%d%s channels=%d reinstalled=%d stale-deleted=%d\n",
				time.Duration(ts.At), ts.Member, epoch, ts.Channels, ts.Reinstalled, ts.StaleDeleted)
		}
	}
}

// Run drives the engine to quiescence. A cluster's heartbeat tickers never
// drain, so a clustered bed runs for window of virtual time, stops the
// tickers, then drains what remains; a standalone bed ignores window.
func (tb *Testbed) Run(window time.Duration) {
	if tb.Cluster != nil {
		tb.Eng.RunUntil(sim.Time(window))
		tb.Cluster.Stop()
	}
	tb.Eng.Run()
}

// StaleRejected sums, over every switch, the mutations refused for carrying
// a stale fencing epoch.
func (tb *Testbed) StaleRejected() uint64 {
	var n uint64
	for _, sw := range tb.Net.Switches() {
		n += sw.StaleRejected
	}
	return n
}

// probe is a Probe in flight.
type probe struct {
	issued, done sim.Time
	err          error
}

// probeDial schedules pr's dial at.
func (tb *Testbed) probeDial(at time.Duration, pr Probe) *probe {
	p := &probe{}
	mic.Listen(tb.Stacks[pr.To], 80, false, func(*mic.Stream) {})
	tb.Eng.After(at, func() {
		p.issued = tb.Eng.Now()
		client := mic.NewClient(tb.Stacks[pr.From], tb.controlPlane())
		client.Dial(tb.hostIP(pr.To).String(), 80, func(_ *mic.Stream, err error) {
			if err != nil {
				p.err = err
				return
			}
			p.done = tb.Eng.Now()
		})
	})
	return p
}
