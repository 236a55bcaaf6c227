package harness

import (
	"fmt"
	"time"

	"mic/internal/chaos"
	"mic/internal/maga"
	"mic/internal/metrics"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "s10",
		Title: "Scale-out: channel-setup throughput vs controller planning cores and plan cache",
		Run:   runS10ScaleOut,
	})
}

// The setup bench's fixed storm shape. Channels close benchHold after
// establishment: closing recycles flow IDs and address reservations, so the
// storm exercises steady-state churn rather than draining the ID space.
const (
	benchPairs  = 32                    // initiator/responder host pairs
	benchRate   = 60000                 // offered dial rate, dials/sec
	benchWindow = 20 * time.Millisecond // arrival window
	benchMFlows = 2                     // m-flows per channel
	benchHold   = 5 * time.Millisecond
)

// SetupBenchOptions parameterizes one channel-setup-throughput run: a
// control-plane-only dial storm (no transport payload) against one Mimic
// Controller, measuring how fast the plan/alloc/install pipeline turns dials
// into established channels.
type SetupBenchOptions struct {
	Seed uint64

	Arity        int  // fat-tree k
	Cores        int  // the controller's planning cores (mic.Config.PlanCores)
	DisableCache bool // ablate the path-plan cache
	MaxDials     int  // schedule cap
}

// SetupBenchResult aggregates one setup-throughput run.
type SetupBenchResult struct {
	Dials  int // dials scheduled
	OK     int // channels established
	Failed int // typed errors (refusal, exhaustion)

	MakespanMs     float64 // first dial issued to last acknowledgement
	ChannelsPerSec float64 // OK / makespan
	P50Ms, P99Ms   float64 // per-dial setup latency percentiles

	CacheHits, CacheMisses uint64 // plan-cache accounting
	Batches, BatchedMods   uint64 // southbound coalescing
}

// RunSetupBench drives one seeded control-plane dial storm against an MC
// and measures channel-setup throughput. Channels are opened via
// EstablishChannel directly — no transport stacks — so the pipeline under
// test is exactly planner -> allocator -> batched installer, paced by the
// virtual planning cores. Deterministic for a given options value.
func RunSetupBench(opts SetupBenchOptions) (*SetupBenchResult, error) {
	tb, err := newFabric(opts.Arity, netsim.Config{})
	if err != nil {
		return nil, err
	}
	eng, g := tb.Eng, tb.Graph
	mc, err := mic.NewMC(tb.Net, mic.Config{
		MFlows: benchMFlows, Seed: opts.Seed,
		Widths:           maga.FitWidths(len(g.Switches())),
		DisablePathCache: opts.DisableCache,
		PlanCores:        opts.Cores,
	})
	if err != nil {
		return nil, err
	}
	dials, err := chaos.SetupStorm(g, opts.Seed, chaos.StormConfig{
		Pairs: benchPairs, Rate: benchRate, Window: benchWindow, MaxDials: opts.MaxDials,
	})
	if err != nil {
		return nil, err
	}

	res := &SetupBenchResult{Dials: len(dials)}
	var lat metrics.Sample
	var firstIssue, lastAck sim.Time
	firstIssue = sim.Time(dials[0].At)
	for _, d := range dials {
		eng.After(d.At, func() {
			issued := eng.Now()
			initIP := g.Node(d.From).IP
			target := g.Node(d.To).IP.String()
			mc.EstablishChannel(initIP, target, mic.ChannelOptions{}, func(info *mic.ChannelInfo, err error) {
				if err != nil {
					res.Failed++
					return
				}
				res.OK++
				lat.Add(eng.Now().Sub(issued).Seconds() * 1e3)
				if now := eng.Now(); now > lastAck {
					lastAck = now
				}
				eng.After(benchHold, func() {
					// lint:ignore errdrop bench teardown is best-effort; a failed close only means the channel already went away
					_ = mc.CloseChannel(info.ID, nil)
				})
			})
		})
	}
	eng.Run()

	if lastAck > firstIssue {
		makespan := lastAck.Sub(firstIssue).Seconds()
		res.MakespanMs = makespan * 1e3
		res.ChannelsPerSec = float64(res.OK) / makespan
	}
	res.P50Ms = lat.Percentile(50)
	res.P99Ms = lat.Percentile(99)
	res.CacheHits, res.CacheMisses = mc.PathCacheHits, mc.PathCacheMisses
	res.Batches, res.BatchedMods = mc.Ch.Batches, mc.Ch.BatchedMods
	return res, nil
}

// s10Dials sizes the storm to the fabric's flow-ID space: large fat-trees
// spend label bits on switch classes (maga.FitWidths), leaving fewer
// concurrent flow IDs, so the k16 storm must stay well inside its budget.
func s10Dials(arity int, quick bool) int {
	n := 1200
	if arity >= 16 {
		n = 200
	}
	if quick {
		n /= 4
	}
	return n
}

// runS10ScaleOut regenerates the scale-out figure: the same dial storm
// against a controller with 1, 2 and 4 planning cores, with and without the
// path-plan cache. The (1, off) row is the pre-scale-out controller; the
// headline ratio is (4, on) over it.
func runS10ScaleOut(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	coreCounts := []int{1, 2, 4}
	if cfg.Quick {
		coreCounts = []int{1, 4}
	}
	tbl := metrics.NewTable("cores", "cache", "dials", "ok", "failed", "channels_per_s", "p50_ms", "p99_ms", "cache_hits", "cache_misses", "sb_batches")
	var base, best float64
	for _, cores := range coreCounts {
		for _, disable := range []bool{false, true} {
			r, err := RunSetupBench(SetupBenchOptions{
				Seed: cfg.Seed, Arity: cfg.Arity, Cores: cores, DisableCache: disable,
				MaxDials: s10Dials(cfg.Arity, cfg.Quick),
			})
			if err != nil {
				return nil, fmt.Errorf("s10 cores=%d cache=%v: %w", cores, !disable, err)
			}
			cache := "on"
			if disable {
				cache = "off"
			}
			tbl.AddRow(cores, cache, r.Dials, r.OK, r.Failed,
				r.ChannelsPerSec, r.P50Ms, r.P99Ms, r.CacheHits, r.CacheMisses, r.Batches)
			if cores == 1 && disable {
				base = r.ChannelsPerSec
			}
			if cores == coreCounts[len(coreCounts)-1] && !disable {
				best = r.ChannelsPerSec
			}
		}
	}
	speedup := 0.0
	if base > 0 {
		speedup = best / base
	}
	return &Result{
		ID: "s10", Title: fmt.Sprintf("Channel-setup throughput, fat-tree(%d)", cfg.Arity), Table: tbl,
		Notes: []string{
			fmt.Sprintf("speedup (max cores + cache vs 1 core, cache off): %.2fx", speedup),
			"the (1, off) row is the pre-scale-out controller: one serialized planning core running a full graph search per m-flow",
			"each added core plans another dial at once; the plan cache turns repeat edge-pair searches into segment reattachment",
			"every dial is acknowledged or typed-failed; channels close 5ms after setup so flow IDs recycle through the storm",
		},
	}, nil
}
