// Package workload generates background data center traffic: flows with
// heavy-tailed sizes arriving as a Poisson-like process between random host
// pairs. Experiments use it to measure MIC's behaviour in a busy fabric and
// to give the adversary a realistic confusion set — a quiet network makes
// every attack look artificially easy.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package workload

import (
	"fmt"
	"math"
	"time"

	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/transport"
)

// SizeDist is a flow-size distribution. Implementations must be
// deterministic given the RNG.
type SizeDist interface {
	Sample(rng *sim.RNG) int
}

// Pareto is a bounded Pareto distribution, the standard model for
// heavy-tailed data center flow sizes (many mice, few elephants).
type Pareto struct {
	Alpha    float64 // tail index (≈1.2-1.5 in DC measurements)
	Min, Max int     // size bounds in bytes
}

// Sample draws one flow size by inverse-transform sampling.
func (p Pareto) Sample(rng *sim.RNG) int {
	if p.Alpha <= 0 || p.Min <= 0 || p.Max < p.Min {
		panic(fmt.Sprintf("workload: bad Pareto %+v", p))
	}
	u := rng.Float64()
	lo, hi := float64(p.Min), float64(p.Max)
	// Bounded Pareto inverse CDF.
	x := math.Pow(
		-(u*math.Pow(hi, p.Alpha)-u*math.Pow(lo, p.Alpha)-math.Pow(hi, p.Alpha))/
			(math.Pow(lo, p.Alpha)*math.Pow(hi, p.Alpha)),
		-1/p.Alpha,
	)
	n := int(x)
	if n < p.Min {
		n = p.Min
	}
	if n > p.Max {
		n = p.Max
	}
	return n
}

// WebSearch approximates the DCTCP "web search" flow mix.
var WebSearch = Pareto{Alpha: 1.3, Min: 2 << 10, Max: 2 << 20}

// Config describes a background traffic run.
type Config struct {
	// Pairs are (src, dst) host indices allowed to exchange flows.
	Pairs [][2]int
	// MeanInterarrival between flow starts (exponential).
	MeanInterarrival time.Duration
	// Sizes draws flow sizes.
	Sizes SizeDist
	// Port is the server port on every destination.
	Port uint16
}

// Generator launches background flows on a fabric.
type Generator struct {
	cfg    Config
	eng    *sim.Engine
	stacks []*transport.Stack
	rng    *sim.RNG

	// Counters.
	Started   int
	Completed int
	Bytes     int64
}

// New prepares a generator over the given per-host stacks (indexed like the
// topology's hosts). Destinations get a byte-sink listener installed.
func New(net *netsim.Network, stacks []*transport.Stack, cfg Config) (*Generator, error) {
	if len(cfg.Pairs) == 0 {
		return nil, fmt.Errorf("workload: no host pairs")
	}
	if cfg.MeanInterarrival <= 0 {
		return nil, fmt.Errorf("workload: non-positive interarrival")
	}
	if cfg.Sizes == nil {
		cfg.Sizes = WebSearch
	}
	if cfg.Port == 0 {
		cfg.Port = 9900
	}
	g := &Generator{cfg: cfg, eng: net.Eng, stacks: stacks, rng: net.Stream("workload")}
	listeners := map[int]bool{}
	for _, pr := range cfg.Pairs {
		if pr[0] < 0 || pr[0] >= len(stacks) || pr[1] < 0 || pr[1] >= len(stacks) || pr[0] == pr[1] {
			return nil, fmt.Errorf("workload: bad pair %v", pr)
		}
		if !listeners[pr[1]] {
			listeners[pr[1]] = true
			stacks[pr[1]].Listen(cfg.Port, func(c *transport.Conn) {
				var got int64
				c.OnData(func(b []byte) { got += int64(len(b)) })
				// The client half-closes after its payload; the FIN's
				// arrival here marks flow completion.
				c.OnClose(func() {
					g.Completed++
					g.Bytes += got
					c.Close()
				})
			})
		}
	}
	return g, nil
}

// Run schedules flow arrivals until the deadline. Call before eng.Run().
func (g *Generator) Run(until sim.Time) {
	g.scheduleNext(until)
}

func (g *Generator) scheduleNext(until sim.Time) {
	// Exponential interarrival via inverse transform.
	u := g.rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	gap := time.Duration(-math.Log(u) * float64(g.cfg.MeanInterarrival))
	next := g.eng.Now().Add(gap)
	if next > until {
		return
	}
	g.eng.At(next, func() {
		g.launch()
		g.scheduleNext(until)
	})
}

func (g *Generator) launch() {
	pr := g.cfg.Pairs[g.rng.Intn(len(g.cfg.Pairs))]
	size := g.cfg.Sizes.Sample(g.rng)
	g.Started++
	src, dst := g.stacks[pr[0]], g.stacks[pr[1]]
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(int(g.rng.Uint32()) + i) // distinct content per flow
	}
	src.Dial(dst.Host.IP, g.cfg.Port, func(c *transport.Conn, err error) {
		if err != nil {
			return
		}
		c.Send(payload)
		c.Close()
	})
}
