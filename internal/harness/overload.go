package harness

import (
	"errors"
	"fmt"
	"time"

	"mic/internal/chaos"
	"mic/internal/metrics"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

func init() {
	register(Experiment{
		ID:    "s9",
		Title: "Overload: admission control and graceful degradation under setup storms",
		Run:   runS9Overload,
	})
}

// StormOptions parameterizes one setup-storm run. Zero fields pick defaults
// sized for a fat-tree(4) with capacity-constrained flow tables.
type StormOptions struct {
	Seed uint64

	// Storm shape (see chaos.StormConfig).
	Pairs    int           // initiator/responder host pairs (default 8)
	Rate     float64       // offered dial rate, dials/sec (default 2000)
	Window   time.Duration // arrival window (default 50ms)
	MaxDials int           // schedule cap (default 4096)

	// Fabric and channel shape.
	MFlows   int  // requested m-flows per channel (default 4)
	MNs      int  // Mimic Nodes per m-flow (default 3)
	Fanout   int  // partial-multicast fanout (default 1)
	Secure   bool // MIC-SSL instead of MIC-TCP
	Capacity int  // per-switch flow-table capacity (default 48; 32 is common routing)

	// Load shape.
	Payload int           // bytes each admitted stream sends (default 32 KiB)
	Hold    time.Duration // channel lifetime after the send completes (default 25ms)

	// Control-plane knobs.
	Admission    mic.AdmissionConfig
	Retries      int           // client DialRetries (0 = client default, <0 disables)
	SetupTimeout time.Duration // client setup deadline (default 250ms)
}

func (o StormOptions) withDefaults() StormOptions {
	if o.Pairs <= 0 {
		o.Pairs = 8
	}
	if o.Rate <= 0 {
		o.Rate = 2000
	}
	if o.Window <= 0 {
		o.Window = 50 * time.Millisecond
	}
	if o.MFlows <= 0 {
		o.MFlows = 4
	}
	if o.MNs <= 0 {
		o.MNs = 3
	}
	if o.Fanout <= 0 {
		o.Fanout = 1
	}
	if o.Capacity == 0 {
		o.Capacity = 48
	}
	if o.Payload <= 0 {
		o.Payload = 32 << 10
	}
	if o.Hold <= 0 {
		o.Hold = 25 * time.Millisecond
	}
	if o.SetupTimeout <= 0 {
		o.SetupTimeout = 250 * time.Millisecond
	}
	return o
}

// StormResult aggregates one storm run. The zero-silent-drop invariant is
// Answered == Dials: every scheduled dial's callback fired with a stream or
// a typed error.
type StormResult struct {
	Capacity int // per-switch flow-table capacity in force (defaults applied)

	Dials    int // dials scheduled
	Answered int // dial callbacks that fired (any outcome)
	OK       int // admitted at full requested F
	Degraded int // admitted with fewer m-flows than requested
	Refused  int // typed ErrOverloaded after client retries
	TimedOut int // setup deadline exceeded after client retries
	Failed   int // any other error

	// FirstFailure is the first untyped dial error's text (empty when
	// Failed == 0) — a diagnostic for classification gaps.
	FirstFailure string

	Retries     uint64  // client re-dial attempts, summed
	P99DialMs   float64 // p99 dial latency of admitted dials (issue -> stream ready)
	GoodputMbps float64 // mean per-stream receive goodput of completed streams
	AchievedF   float64 // mean m-flow count of admitted streams

	Counters *metrics.Counters // the MC's admission telemetry
}

// RefusalRate is the fraction of answered dials that ended in any typed
// failure (refused, timed out, or other).
func (r StormResult) RefusalRate() float64 {
	if r.Answered == 0 {
		return 0
	}
	return float64(r.Answered-r.OK-r.Degraded) / float64(r.Answered)
}

// RunStorm drives one seeded setup storm against a standalone MC with
// capacity-bounded flow tables: each scheduled dial gets a fresh client (so
// every dial is a distinct channel-open hitting admission control), admitted
// streams push Payload bytes and close Hold later, and the result classifies
// every dial by outcome. Deterministic for a given options value.
func RunStorm(opts StormOptions) (*StormResult, error) {
	opts = opts.withDefaults()
	g, err := topo.FatTree(4)
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{FlowTableCapacity: opts.Capacity})
	mc, err := mic.NewMC(net, mic.Config{
		MNs: opts.MNs, MFlows: opts.MFlows, MulticastFanout: opts.Fanout,
		Seed: opts.Seed, Admission: opts.Admission,
	})
	if err != nil {
		return nil, err
	}
	stacks := make(map[topo.NodeID]*transport.Stack)
	for _, hid := range g.Hosts() {
		stacks[hid] = transport.NewStack(net.Host(hid))
	}

	dials, err := chaos.SetupStorm(g, opts.Seed, chaos.StormConfig{
		Pairs: opts.Pairs, Rate: opts.Rate, Window: opts.Window, MaxDials: opts.MaxDials,
	})
	if err != nil {
		return nil, err
	}

	// Responder side: every responder host listens once; per-stream receive
	// stats feed the goodput figure.
	type recvStat struct {
		got         int
		first, last sim.Time
	}
	var recvs []*recvStat
	seen := make(map[topo.NodeID]bool)
	for _, d := range dials {
		if seen[d.To] {
			continue
		}
		seen[d.To] = true
		mic.Listen(stacks[d.To], 80, opts.Secure, func(s *mic.Stream) {
			st := &recvStat{}
			recvs = append(recvs, st)
			s.OnData(func(b []byte) {
				if st.got == 0 {
					st.first = eng.Now()
				}
				st.got += len(b)
				st.last = eng.Now()
			})
		})
	}

	res := &StormResult{Dials: len(dials), Capacity: opts.Capacity}
	var lat metrics.Sample
	var achieved metrics.Sample
	clients := make([]*mic.Client, 0, len(dials))
	data := payload(opts.Payload)
	for i, d := range dials {
		i, d := i, d
		eng.After(d.At, func() {
			client := mic.NewClientSeeded(stacks[d.From], mc, uint64(i)+1)
			client.Secure = opts.Secure
			client.Opts = mic.ChannelOptions{MFlows: opts.MFlows}
			client.SetupTimeout = opts.SetupTimeout
			client.DialRetries = opts.Retries
			clients = append(clients, client)
			issued := eng.Now()
			target := stacks[d.To].Host.IP.String()
			client.Dial(target, 80, func(s *mic.Stream, err error) {
				res.Answered++
				switch {
				case err == nil:
					lat.Add(eng.Now().Sub(issued).Seconds() * 1e3)
					achieved.Add(float64(s.FlowCount()))
					if s.FlowCount() < opts.MFlows {
						res.Degraded++
					} else {
						res.OK++
					}
					s.Send(data)
					eng.After(opts.Hold, func() {
						s.Close()
						// lint:ignore errdrop load-driver teardown is best-effort; a failed close only means the channel already went away
						_ = client.CloseChannel(target, nil)
					})
				case errors.Is(err, mic.ErrOverloaded):
					res.Refused++
				case errors.Is(err, mic.ErrSetupTimeout):
					res.TimedOut++
				default:
					res.Failed++
					if res.FirstFailure == "" {
						res.FirstFailure = err.Error()
					}
				}
			})
		})
	}

	// A fixed virtual-time horizon, not Run-to-quiescence: torn-down
	// channels can leave peers retransmitting on a capped RTO forever
	// (there is deliberately no transport give-up timer), so the event
	// queue never empties. Steady state is reached well before the
	// horizon — every dial is answered and every admitted stream has
	// completed or stalled for good by then — and a fixed deadline is
	// exactly as deterministic as a drain.
	eng.RunUntil(sim.Time(5 * time.Second))
	mc.StopProber()

	for _, c := range clients {
		res.Retries += c.DialRetryCount
	}
	var good metrics.Sample
	for _, st := range recvs {
		if st.got >= opts.Payload && st.last > st.first {
			good.Add(float64(st.got) * 8 / st.last.Sub(st.first).Seconds() / 1e6)
		}
	}
	res.P99DialMs = lat.Percentile(99)
	res.GoodputMbps = good.Mean()
	res.AchievedF = achieved.Mean()
	res.Counters = mc.Telemetry()
	return res, nil
}

// runS9Overload regenerates the overload figure: seeded setup storms at
// increasing offered dial rates against capacity-bounded tables, for full
// admission control and two ablations (shedding off, eviction off). Columns
// track goodput of admitted streams, p99 dial latency, refusal rate, and the
// achieved m-flow count — the degradation ladder makes achieved_f slide
// below the requested 4 before refusals climb.
func runS9Overload(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	// SwitchRuleBudget 24 over-subscribes the 16 physical m-flow slots per
	// switch (capacity 48 - 32 common), so admitted intent exceeds table
	// space and the eviction/reinstall machinery actually engages.
	admission := mic.AdmissionConfig{
		Enabled: true, Rate: 1000, Burst: 8,
		QueueLimit: 32, QueueDeadline: 10 * time.Millisecond,
		EvictIdle: true, SwitchRuleBudget: 24,
	}
	variants := []struct {
		name string
		mut  func(*mic.AdmissionConfig)
	}{
		{"admission", func(a *mic.AdmissionConfig) {}},
		{"shed_off", func(a *mic.AdmissionConfig) { a.DisableShed = true }},
		{"evict_off", func(a *mic.AdmissionConfig) { a.EvictIdle = false }},
	}
	multipliers := []float64{1, 2, 4}
	if cfg.Quick {
		multipliers = []float64{4}
	}
	tbl := metrics.NewTable("variant", "offered_per_s", "goodput_mbps", "p99_dial_ms", "refusal_rate", "achieved_f")
	for _, v := range variants {
		for _, m := range multipliers {
			var good, p99, refuse, af metrics.Sample
			var firstErr error
			for i := 0; i < cfg.Trials; i++ {
				seed := cfg.Seed + uint64(i)*1000003
				a := admission
				v.mut(&a)
				r, err := RunStorm(StormOptions{
					Seed: seed, Rate: admission.Rate * m, Admission: a,
				})
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				if r.Answered != r.Dials {
					return nil, fmt.Errorf("s9 %s x%g: %d of %d dials never answered",
						v.name, m, r.Dials-r.Answered, r.Dials)
				}
				good.Add(r.GoodputMbps)
				p99.Add(r.P99DialMs)
				refuse.Add(r.RefusalRate())
				af.Add(r.AchievedF)
			}
			if good.N() == 0 && firstErr != nil {
				return nil, fmt.Errorf("s9 %s: %w", v.name, firstErr)
			}
			tbl.AddRow(fmt.Sprintf("%s_x%g", v.name, m), admission.Rate*m, good.Mean(), p99.Mean(), refuse.Mean(), af.Mean())
		}
	}
	return &Result{
		ID: "s9", Title: "Goodput, dial latency and refusals vs offered dial rate", Table: tbl,
		Notes: []string{
			"every dial is a fresh channel-open against fat-tree(4) switches capped at 48 flow entries (32 of which are common routing), so table pressure — not just controller rate — limits admission",
			"achieved_f slides below the requested 4 before refusal_rate climbs: the MC answers dials with fewer m-flows under table pressure and restores F via the repair machinery as channels close",
			"shed_off ablation: the admission queue grows without bound and requests wait forever, so p99 dial latency explodes and timed-out dials replace typed refusals",
			"evict_off ablation: idle m-flow rules pin their table slots until the channel closes, so the fabric saturates within the first few dozen dials and most of the storm is refused outright even at 1x the admission rate",
			"zero silent drops by construction: the harness fails if any dial's callback never fires",
		},
	}, nil
}
