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

// The storm's fixed shape, sized for a fat-tree(4) with capacity-constrained
// flow tables.
const (
	stormPairs        = 8                     // initiator/responder host pairs
	stormWindow       = 50 * time.Millisecond // arrival window
	stormHold         = 25 * time.Millisecond // channel lifetime after the send completes
	stormSetupTimeout = 250 * time.Millisecond

	// StormTableCapacity is the per-switch flow-table capacity; 32 entries of
	// it are common routing.
	StormTableCapacity = 48
)

// StormAdmission is the admission config of every storm the repository runs
// (micsim's storm scenario, fig s9, the acceptance tests). SwitchRuleBudget
// 24 over-subscribes the 16 physical m-flow slots per switch (capacity 48 -
// 32 common), so admitted intent exceeds table space and the
// eviction/reinstall machinery actually engages.
func StormAdmission() mic.AdmissionConfig {
	return mic.AdmissionConfig{
		Enabled: true, Rate: 1000, Burst: 8,
		QueueLimit: 32, QueueDeadline: 10 * time.Millisecond,
		EvictIdle: true, SwitchRuleBudget: 24,
	}
}

// StormOptions parameterizes one setup-storm run.
type StormOptions struct {
	Seed uint64

	Rate     float64 // offered dial rate, dials/sec
	MaxDials int     // schedule cap (default 4096)

	// Channel shape.
	MFlows int  // requested m-flows per channel (default 4)
	MNs    int  // Mimic Nodes per m-flow (0 = the MC's default)
	Fanout int  // partial-multicast fanout (0 = the MC's default)
	Secure bool // MIC-SSL instead of MIC-TCP

	Payload int // bytes each admitted stream sends (default 32 KiB)

	Admission mic.AdmissionConfig
}

func (o StormOptions) withDefaults() StormOptions {
	if o.MFlows <= 0 {
		o.MFlows = 4
	}
	if o.Payload <= 0 {
		o.Payload = 32 << 10
	}
	return o
}

// StormResult aggregates one storm run. The zero-silent-drop invariant is
// Answered == Dials: every scheduled dial's callback fired with a stream or
// a typed error.
type StormResult struct {
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
// streams push Payload bytes and close stormHold later, and the result classifies
// every dial by outcome. Deterministic for a given options value.
func RunStorm(opts StormOptions) (*StormResult, error) {
	opts = opts.withDefaults()
	tb, err := NewTestbed(SchemeMICTCP, 4, netsim.Config{FlowTableCapacity: StormTableCapacity}, mic.Config{
		MNs: opts.MNs, MFlows: opts.MFlows, MulticastFanout: opts.Fanout,
		Seed: opts.Seed, Admission: opts.Admission,
	}, nil)
	if err != nil {
		return nil, err
	}
	eng, mc := tb.Eng, tb.MC
	stacks := make(map[topo.NodeID]*transport.Stack)
	for i, hid := range tb.Graph.Hosts() {
		stacks[hid] = tb.Stacks[i]
	}

	dials, err := chaos.SetupStorm(tb.Graph, opts.Seed, chaos.StormConfig{
		Pairs: stormPairs, Rate: opts.Rate, Window: stormWindow, MaxDials: opts.MaxDials,
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

	res := &StormResult{Dials: len(dials)}
	var lat metrics.Sample
	var achieved metrics.Sample
	clients := make([]*mic.Client, 0, len(dials))
	data := payload(opts.Payload)
	for i, d := range dials {
		eng.After(d.At, func() {
			client := mic.NewClientSeeded(stacks[d.From], mc, uint64(i)+1)
			client.Secure = opts.Secure
			client.Opts = mic.ChannelOptions{MFlows: opts.MFlows}
			client.SetupTimeout = stormSetupTimeout
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
					eng.After(stormHold, func() {
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
	admission := StormAdmission()
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
			a := admission
			v.mut(&a)
			cols, err := runTrialColumns(cfg.Trials, cfg.Seed, func(seed uint64) ([]float64, error) {
				r, err := RunStorm(StormOptions{Seed: seed, Rate: admission.Rate * m, Admission: a})
				if err != nil {
					return nil, err
				}
				if r.Answered != r.Dials {
					return nil, fmt.Errorf("%d of %d dials never answered", r.Dials-r.Answered, r.Dials)
				}
				return []float64{r.GoodputMbps, r.P99DialMs, r.RefusalRate(), r.AchievedF}, nil
			})
			if err != nil {
				return nil, fmt.Errorf("s9 %s x%g: %w", v.name, m, err)
			}
			tbl.AddRow(fmt.Sprintf("%s_x%g", v.name, m), admission.Rate*m, cols[0].Mean(), cols[1].Mean(), cols[2].Mean(), cols[3].Mean())
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
