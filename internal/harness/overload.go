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
	stormSize         = 4 << 20 // fig s9's Params.Size: each admitted stream sends 32 KiB
	stormPort         = 81      // apart from the transfer's and the probes' port 80
)

// StormScenario is the setup storm every storm the repository runs shares
// (micsim's storm scenario, fig s9, the acceptance tests): Poisson dials at
// load times the admission rate from eight host pairs over 50 ms, against a
// standalone MC whose fat-tree(4) switches hold 48 flow entries, 32 of them
// common routing, measured at a 5 s horizon. Its admission's
// SwitchRuleBudget 24 over-subscribes the 16 physical m-flow slots per
// switch, so admitted intent exceeds table space and the eviction/reinstall
// machinery actually engages.
func StormScenario(load float64) Scenario {
	adm := mic.AdmissionConfig{
		Enabled: true, Rate: 1000, Burst: 8,
		QueueLimit: 32, QueueDeadline: 10 * time.Millisecond,
		EvictIdle: true, SwitchRuleBudget: 24,
	}
	return Scenario{
		Net:    netsim.Config{FlowTableCapacity: 48},
		MIC:    mic.Config{Admission: adm},
		Storm:  &chaos.StormConfig{Pairs: stormPairs, Rate: load * adm.Rate, Window: stormWindow},
		Window: 5 * time.Second,
	}
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

// stormRun is a storm in flight: each dial's outcome and each admitted
// stream's receive stats accumulate in it as the engine runs.
type stormRun struct {
	res           StormResult
	lat, achieved metrics.Sample
	clients       []*mic.Client
	recvs         []*stormRecv
	payload       int // bytes each admitted stream sends
}

type stormRecv struct {
	got         int
	first, last sim.Time
}

// startStorm schedules cfg's dials at p.Seed. Each dial gets a fresh client
// (so every dial is a distinct channel-open hitting admission control)
// asking for mflows m-flows; each admitted stream sends its share of p.Size
// and closes stormHold later. Every responder host listens once.
func (tb *Testbed) startStorm(cfg chaos.StormConfig, mflows int, p Params) (*stormRun, error) {
	dials, err := chaos.SetupStorm(tb.Graph, p.Seed, cfg)
	if err != nil {
		return nil, err
	}
	eng := tb.Eng
	stacks := make(map[topo.NodeID]*transport.Stack)
	for i, hid := range tb.Graph.Hosts() {
		stacks[hid] = tb.Stacks[i]
	}
	st := &stormRun{res: StormResult{Dials: len(dials)}, payload: min(max(p.Size/128, 4<<10), 1<<20)}
	seen := make(map[topo.NodeID]bool)
	for _, d := range dials {
		if seen[d.To] {
			continue
		}
		seen[d.To] = true
		mic.Listen(stacks[d.To], stormPort, p.Secure, func(s *mic.Stream) {
			r := &stormRecv{}
			st.recvs = append(st.recvs, r)
			s.OnData(func(b []byte) {
				if r.got == 0 {
					r.first = eng.Now()
				}
				r.got += len(b)
				r.last = eng.Now()
			})
		})
	}

	res := &st.res
	data := payload(st.payload)
	for i, d := range dials {
		eng.After(d.At, func() {
			client := mic.NewClientSeeded(stacks[d.From], tb.controlPlane(), uint64(i)+1)
			client.Secure = p.Secure
			client.Opts = mic.ChannelOptions{MFlows: mflows}
			client.SetupTimeout = stormSetupTimeout
			st.clients = append(st.clients, client)
			issued := eng.Now()
			target := stacks[d.To].Host.IP.String()
			client.Dial(target, stormPort, func(s *mic.Stream, err error) {
				res.Answered++
				switch {
				case err == nil:
					st.lat.Add(eng.Now().Sub(issued).Seconds() * 1e3)
					st.achieved.Add(float64(s.FlowCount()))
					if s.FlowCount() < mflows {
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
	return st, nil
}

// result closes the storm's books once the engine has stopped.
func (st *stormRun) result(tb *Testbed) *StormResult {
	res := &st.res
	for _, c := range st.clients {
		res.Retries += c.DialRetryCount
	}
	var good metrics.Sample
	for _, r := range st.recvs {
		if r.got >= st.payload && r.last > r.first {
			good.Add(float64(r.got) * 8 / r.last.Sub(r.first).Seconds() / 1e6)
		}
	}
	res.P99DialMs = st.lat.Percentile(99)
	res.GoodputMbps = good.Mean()
	res.AchievedF = st.achieved.Mean()
	if tb.Cluster != nil {
		res.Counters = tb.Cluster.Telemetry()
	} else {
		res.Counters = tb.MC.Telemetry()
	}
	return res
}

// runS9Overload regenerates the overload figure: seeded setup storms at
// increasing offered dial rates against capacity-bounded tables, for full
// admission control and two ablations (shedding off, eviction off). Columns
// track goodput of admitted streams, p99 dial latency, refusal rate, and the
// achieved m-flow count — the degradation ladder makes achieved_f slide
// below the requested 4 before refusals climb.
func runS9Overload(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
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
			s := StormScenario(m)
			v.mut(&s.MIC.Admission)
			cols, err := runTrialColumns(cfg.Trials, cfg.Seed, func(seed uint64) ([]float64, error) {
				o, err := Run(s, Params{Seed: seed, Size: stormSize}, nil)
				if err != nil {
					return nil, err
				}
				r := o.Storm
				if r.Answered != r.Dials {
					return nil, fmt.Errorf("%d of %d dials never answered", r.Dials-r.Answered, r.Dials)
				}
				return []float64{r.GoodputMbps, r.P99DialMs, r.RefusalRate(), r.AchievedF}, nil
			})
			if err != nil {
				return nil, fmt.Errorf("s9 %s x%g: %w", v.name, m, err)
			}
			tbl.AddRow(fmt.Sprintf("%s_x%g", v.name, m), s.Storm.Rate, cols[0].Mean(), cols[1].Mean(), cols[2].Mean(), cols[3].Mean())
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
