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
	"mic/internal/topo"
)

// This file is the part of the bed every fault scenario shares: one bulk MIC
// transfer, a chaos script played against the fabric with its events
// narrated, the run-to-quiescence driver, and PlayScenario, which strings
// them together.

// Transfer is the bed's bulk transfer: one MIC stream carrying Size bytes
// between two hosts, observed from the receiving end.
type Transfer struct {
	Size       int
	Got        int      // bytes the listener has received
	Start, End sim.Time // stream ready (send begins); last byte received
	DialErr    error

	// Stream is the initiator's end, Remote the listener's, Channel what the
	// MC granted the initiator; nil until the dial completes.
	Stream, Remote *mic.Stream
	Channel        *mic.ChannelInfo
}

// StartTransfer listens on host `to`, dials it from host `from` through the
// bed's control plane and sends data once the stream is up. The transfer's
// progress accumulates in the returned value as the engine runs.
func (tb *Testbed) StartTransfer(secure bool, from, to int, data []byte) *Transfer {
	t := &Transfer{Size: len(data)}
	mic.Listen(tb.Stacks[to], 80, secure, func(s *mic.Stream) {
		t.Remote = s
		s.OnData(func(b []byte) {
			t.Got += len(b)
			if t.Got >= t.Size && t.End == 0 {
				t.End = tb.Eng.Now()
			}
		})
	})
	client := mic.NewClient(tb.Stacks[from], tb.controlPlane())
	client.Secure = secure
	target := tb.hostIP(to).String()
	client.Dial(target, 80, func(s *mic.Stream, err error) {
		if err != nil {
			t.DialErr = err
			return
		}
		t.Stream = s
		t.Channel, _ = client.Channel(target)
		t.Start = tb.Eng.Now()
		s.Send(data)
	})
	return t
}

// Err reports why the transfer did not complete, or nil if it did.
func (t *Transfer) Err() error {
	if t.DialErr != nil {
		return t.DialErr
	}
	if t.Got < t.Size {
		return fmt.Errorf("harness: transfer incomplete (%d/%d bytes)", t.Got, t.Size)
	}
	return nil
}

// Wall is the transfer time, stream ready to last byte.
func (t *Transfer) Wall() time.Duration { return time.Duration(t.End - t.Start) }

// Mbps is the transfer's goodput over Wall.
func (t *Transfer) Mbps() float64 { return mbps(t.Size, t.Wall()) }

// Log selects which control-plane reactions Play narrates, besides the
// faults themselves.
type Log uint

const (
	LogRepairs   Log = 1 << iota // completed self-healing jobs
	LogTakeovers                 // cluster takeovers
	LogStepDowns                 // cluster lease-loss step-downs
	LogEpochs                    // takeover lines carry the fencing epoch
)

// Play schedules the chaos script against the bed and, when w is non-nil,
// narrates every fault as it fires plus the reactions log selects, one
// timestamped line each. The returned runner counts what was applied.
func (tb *Testbed) Play(sched chaos.Schedule, w io.Writer, log Log) *chaos.Runner {
	var ch *ctrlplane.Channel
	if tb.MC != nil {
		ch = tb.MC.Ch // control-loss faults degrade the standalone MC's channel
	}
	runner := chaos.NewRunner(tb.Net, ch)
	if w != nil {
		runner.OnFault = func(f chaos.Fault) {
			fmt.Fprintf(w, "%12v  fault  %s\n", time.Duration(tb.Eng.Now()), f.Kind)
		}
		tb.narrate(w, log)
	}
	runner.Play(sched)
	return runner
}

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

// PlayScenario is what every fault scenario — a micsim report or a harness
// trial — shares: the paper's testbed under a self-healing control plane
// running micCfg (a failover cluster when ha is non-nil), one bulk transfer
// of data from host `from` to host `to`, the chaos script gen writes for that
// pair at micCfg.Seed, played; arm (if non-nil) to time probes against the
// schedule before the engine starts; the run to quiescence; and the delivery
// check. With w non-nil the schedule, every fault, the reactions log selects
// and the delivery line are narrated to it under title.
func PlayScenario(micCfg mic.Config, ha *mic.ClusterConfig, secure bool, from, to int, data []byte,
	gen func(g *topo.Graph, seed uint64, from, to topo.NodeID) (chaos.Schedule, error),
	arm func(tb *Testbed, sched chaos.Schedule), window time.Duration,
	w io.Writer, title string, log Log) (*Testbed, *Transfer, error) {
	micCfg.AutoRepair, micCfg.RepairMaxRetries = true, 20
	tb, err := NewTestbed(SchemeMICTCP, 4, netsim.Config{}, micCfg, ha)
	if err != nil {
		return nil, nil, err
	}
	xfer := tb.StartTransfer(secure, from, to, data)
	hosts := tb.Graph.Hosts()
	sched, err := gen(tb.Graph, micCfg.Seed, hosts[from], hosts[to])
	if err != nil {
		return nil, nil, err
	}
	if w != nil {
		fmt.Fprintf(w, "%s schedule (seed %d):\n%s", title, micCfg.Seed, sched.Render(tb.Graph))
	}
	runner := tb.Play(sched, w, log)
	if arm != nil {
		arm(tb, sched)
	}
	tb.Run(window)
	if err := xfer.Err(); err != nil {
		return nil, nil, err
	}
	if w != nil {
		fmt.Fprintf(w, "delivered %d bytes in %v (%.1f Mbps) through %d faults",
			xfer.Got, xfer.Wall(), xfer.Mbps(), len(runner.Applied))
		if ha != nil {
			fmt.Fprintf(w, " and %d takeover(s)", tb.Cluster.Takeovers())
		}
		fmt.Fprintln(w)
	}
	return tb, xfer, nil
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

// probe is a blackout probe: a fresh tenant's dial issued at a chosen
// instant, whose setup latency is the control-plane outage seen from there.
type probe struct {
	issued, done sim.Time
	err          error
}

// probeDial schedules a dial from host `from` to a listener on host `to` at
// virtual time at.
func (tb *Testbed) probeDial(at time.Duration, from, to int) *probe {
	p := &probe{}
	mic.Listen(tb.Stacks[to], 80, false, func(*mic.Stream) {})
	tb.Eng.After(at, func() {
		p.issued = tb.Eng.Now()
		client := mic.NewClient(tb.Stacks[from], tb.controlPlane())
		client.Dial(tb.hostIP(to).String(), 80, func(_ *mic.Stream, err error) {
			if err != nil {
				p.err = err
				return
			}
			p.done = tb.Eng.Now()
		})
	})
	return p
}

// ms is the probe's setup latency in milliseconds.
func (p *probe) ms() float64 { return time.Duration(p.done-p.issued).Seconds() * 1e3 }
