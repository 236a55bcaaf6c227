package mic

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mic/internal/addr"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// newCapFixture is newFixture with a per-switch flow-table capacity, the
// testbed for admission control and the degradation ladder.
func newCapFixture(t testing.TB, cfg Config, capacity int) *fixture {
	t.Helper()
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{PoolDebug: true, FlowTableCapacity: capacity})
	mc, err := NewMC(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{eng: eng, net: net, mc: mc, graph: g}
	for _, hid := range g.Hosts() {
		f.stacks = append(f.stacks, transport.NewStack(net.Host(hid)))
	}
	return f
}

// TestClusterConfigDefaults pins the failover defaults: one standby, a 2ms
// beat, 3 misses and the 6ms lease they make.
func TestClusterConfigDefaults(t *testing.T) {
	d := ClusterConfig{}.withDefaults()
	if d.Standbys != 1 {
		t.Errorf("default standbys = %d, want 1", d.Standbys)
	}
	if DefaultHeartbeatInterval != 2*time.Millisecond || DefaultHeartbeatMisses != 3 {
		t.Errorf("heartbeat defaults drifted: %v / %d", DefaultHeartbeatInterval, DefaultHeartbeatMisses)
	}
	if leaseDuration != 6*time.Millisecond {
		t.Errorf("lease = %v, want 6ms", leaseDuration)
	}
}

// probeAdmission sends dials that reach admission one request latency
// later and records each one's answer, in call order. Their initiator is no
// host of the fabric, so a dial granted a token is answered one request
// latency after the grant with the planner's refusal and one refused at
// admission with ErrOverloaded, as long after the refusal: admission's
// verdicts and their instants are all that show.
type probeAdmission struct {
	f       *fixture
	answers [][]probeAnswer
}

type probeAnswer struct {
	at      sim.Time
	granted bool
	err     error
}

func (p *probeAdmission) dial() {
	i := len(p.answers)
	p.answers = append(p.answers, nil)
	p.f.mc.EstablishChannel(0, p.f.hostIP(15).String(), ChannelOptions{}, func(_ *ChannelInfo, err error) {
		p.answers[i] = append(p.answers[i], probeAnswer{p.f.eng.Now(), !errors.Is(err, ErrOverloaded), err})
	})
}

// TestAdmissionTokenBucket walks the whole limiter with seven concurrent
// requests: the full bucket admits Burst immediately, the next requests
// queue up to QueueLimit, overflow is refused on the spot, the first queued
// request drains when a token accrues, and the second outlives its deadline
// and is shed. Every request is answered exactly once — the zero-silent-drop
// guarantee.
func TestAdmissionTokenBucket(t *testing.T) {
	f := newFixture(t, Config{Admission: AdmissionConfig{
		Enabled: true, Rate: 100, Burst: 2,
		QueueLimit: 2, QueueDeadline: 15 * time.Millisecond,
	}})
	p := &probeAdmission{f: f}
	f.eng.After(time.Millisecond-requestLatency, func() {
		for i := 0; i < 7; i++ {
			p.dial()
		}
	})
	f.eng.Run()

	for i, answers := range p.answers {
		if n := len(answers); n != 1 {
			t.Fatalf("request %d answered %d times, want exactly 1", i, n)
		}
	}
	// An answer leaves one request latency after admission's verdict.
	ms := func(d time.Duration) sim.Time { return sim.Time(d + requestLatency) }
	// Bucket starts full: requests 0 and 1 are admitted at arrival.
	for _, i := range []int{0, 1} {
		if r := p.answers[i][0]; !r.granted || r.at != ms(time.Millisecond) {
			t.Errorf("request %d: got (%v, t=%v), want admitted at 1ms", i, r.err, r.at)
		}
	}
	// Request 2 queues and drains when the first token accrues (1/Rate = 10ms).
	if r := p.answers[2][0]; !r.granted || r.at != ms(11*time.Millisecond) {
		t.Errorf("request 2: got (%v, t=%v), want admitted at 11ms", r.err, r.at)
	}
	// Request 3 queues behind it and outlives the 15ms deadline: shed at 16ms.
	if r := p.answers[3][0]; r.granted || r.at != ms(16*time.Millisecond) {
		t.Errorf("request 3: got (%v, t=%v), want shed with ErrOverloaded at 16ms", r.err, r.at)
	}
	// Requests 4-6 find the queue full and are refused immediately.
	for _, i := range []int{4, 5, 6} {
		if r := p.answers[i][0]; r.granted || r.at != ms(time.Millisecond) {
			t.Errorf("request %d: got (%v, t=%v), want queue-full refusal at 1ms", i, r.err, r.at)
		}
	}
	if f.mc.RequestsAdmitted != 3 || f.mc.RequestsShed != 4 {
		t.Errorf("admitted/shed = %d/%d, want 3/4", f.mc.RequestsAdmitted, f.mc.RequestsShed)
	}
	if f.mc.QueuePeak != 2 {
		t.Errorf("QueuePeak = %d, want 2", f.mc.QueuePeak)
	}
}

// TestAdmissionDisabledIsPassThrough: the zero AdmissionConfig must keep the
// seed behaviour — every request is served at once, nothing is counted.
func TestAdmissionDisabledIsPassThrough(t *testing.T) {
	f := newFixture(t, Config{})
	p := &probeAdmission{f: f}
	for i := 0; i < 100; i++ {
		p.dial()
	}
	f.eng.Run()
	for i, answers := range p.answers {
		if len(answers) != 1 || !answers[0].granted || answers[0].at != sim.Time(2*requestLatency) {
			t.Fatalf("request %d answered %v, want served on arrival with admission disabled", i, answers)
		}
	}
	if f.mc.RequestsAdmitted != 0 {
		t.Fatalf("admitted=%d, want no accounting", f.mc.RequestsAdmitted)
	}
}

// TestCrashStopsAdmissionDrain: a dial queued for a token when its
// controller crashes is never granted one by the dead life — crash stops the
// drain timer — and the revived life starts with an empty queue and a full
// bucket.
func TestCrashStopsAdmissionDrain(t *testing.T) {
	f := newFixture(t, Config{Admission: AdmissionConfig{
		Enabled: true, Rate: 100, Burst: 1, QueueLimit: 4, QueueDeadline: time.Second,
	}})
	p := &probeAdmission{f: f}
	for i := 0; i < 2; i++ {
		p.dial()
	}
	f.eng.RunFor(requestLatency)
	if f.mc.RequestsAdmitted != 1 || len(f.mc.admitQueue) != 1 || !f.mc.drain.Armed() {
		t.Fatalf("admitted %d, queued %d, drain armed %v; want 1, 1, true", f.mc.RequestsAdmitted, len(f.mc.admitQueue), f.mc.drain.Armed())
	}
	f.mc.crash()
	f.eng.Run()
	if len(p.answers[1]) != 0 || f.mc.RequestsAdmitted != 1 {
		t.Fatalf("the dead life admitted its queue: answers %v, admitted %d", p.answers[1], f.mc.RequestsAdmitted)
	}
	f.mc.revive()
	if len(f.mc.admitQueue) != 0 || f.mc.drain.Armed() || f.mc.admitTokens != 1 {
		t.Fatalf("revived limiter: queued %d, drain armed %v, tokens %v", len(f.mc.admitQueue), f.mc.drain.Armed(), f.mc.admitTokens)
	}
}

// delayedCP delays the MC's channel-establishment reply, modelling a
// controller that answers after the client has given up.
type delayedCP struct {
	*MC
	delay time.Duration
}

func (d *delayedCP) EstablishChannel(init addr.IP, target string, opts ChannelOptions, cb func(*ChannelInfo, error)) {
	d.MC.EstablishChannel(init, target, opts, func(info *ChannelInfo, err error) {
		d.MC.Engine().After(d.delay, func() { cb(info, err) })
	})
}

// TestDialTimeoutCancelsLateChannelReply is the regression for the setup
// leak: a channel reply landing after the dial's deadline must not register
// client state, and the orphaned channel must be closed back at the MC.
func TestDialTimeoutCancelsLateChannelReply(t *testing.T) {
	f := newFixture(t, Config{})
	Listen(f.stacks[15], 80, false, func(s *Stream) {})
	cp := &delayedCP{MC: f.mc, delay: 50 * time.Millisecond}
	client := NewClient(f.stacks[0], cp)
	client.SetupTimeout = 2 * time.Millisecond
	client.DialRetries = -1
	target := f.hostIP(15).String()

	var dialErr error
	calls := 0
	client.Dial(target, 80, func(s *Stream, err error) {
		calls++
		dialErr = err
		if s != nil {
			t.Error("timed-out dial produced a stream")
		}
	})
	f.eng.Run()

	if calls != 1 {
		t.Fatalf("dial callback fired %d times, want 1", calls)
	}
	if !errors.Is(dialErr, ErrSetupTimeout) {
		t.Fatalf("dial error = %v, want ErrSetupTimeout", dialErr)
	}
	if client.channels[target] != nil {
		t.Error("late channel reply registered in the client's reuse cache")
	}
	if n := f.mc.LiveChannels(); n != 0 {
		t.Errorf("timed-out dial leaked %d live channels at the MC", n)
	}
}

// flakyCP refuses the first failures establishment attempts with
// ErrOverloaded, then delegates to the real MC.
type flakyCP struct {
	*MC
	failures int
	calls    int
}

func (f *flakyCP) EstablishChannel(init addr.IP, target string, opts ChannelOptions, cb func(*ChannelInfo, error)) {
	f.calls++
	if f.calls <= f.failures {
		f.MC.Engine().After(100*time.Microsecond, func() {
			cb(nil, fmt.Errorf("synthetic refusal %d: %w", f.calls, ErrOverloaded))
		})
		return
	}
	f.MC.EstablishChannel(init, target, opts, cb)
}

// TestDialRetriesOnOverload: a refusal is retryable — the client backs off
// (seeded jitter, capped exponential) and re-dials up to DialRetries times.
func TestDialRetriesOnOverload(t *testing.T) {
	f := newFixture(t, Config{})
	Listen(f.stacks[15], 80, false, func(s *Stream) {
		s.OnData(func(b []byte) { s.Send(b) })
	})
	cp := &flakyCP{MC: f.mc, failures: 2}
	client := NewClient(f.stacks[0], cp)
	client.DialRetries = 3
	client.RetryBackoff = time.Millisecond

	var got *Stream
	var dialErr error
	client.Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) { got, dialErr = s, err })
	f.eng.Run()

	if dialErr != nil || got == nil {
		t.Fatalf("dial after retries: %v", dialErr)
	}
	if cp.calls != 3 {
		t.Fatalf("EstablishChannel called %d times, want 3 (2 refusals + success)", cp.calls)
	}
	if client.DialRetryCount != 2 {
		t.Fatalf("DialRetryCount = %d, want 2", client.DialRetryCount)
	}
}

// TestDialRetriesExhausted: when every attempt is refused the final typed
// error surfaces and the retry counter shows the full budget was spent.
func TestDialRetriesExhausted(t *testing.T) {
	f := newFixture(t, Config{})
	cp := &flakyCP{MC: f.mc, failures: 1 << 30}
	client := NewClient(f.stacks[0], cp)
	client.DialRetries = 2
	client.RetryBackoff = time.Millisecond

	var dialErr error
	client.Dial(f.hostIP(15).String(), 80, func(s *Stream, err error) { dialErr = err })
	f.eng.Run()

	if !errors.Is(dialErr, ErrOverloaded) {
		t.Fatalf("dial error = %v, want ErrOverloaded", dialErr)
	}
	if cp.calls != 3 || client.DialRetryCount != 2 {
		t.Fatalf("calls=%d retries=%d, want 3 attempts / 2 retries", cp.calls, client.DialRetryCount)
	}
}

// TestRetryDelayBounds: the backoff is base<<n capped at 8x base, with
// jitter in [0.5, 1.5) — never zero, never unbounded.
func TestRetryDelayBounds(t *testing.T) {
	f := newFixture(t, Config{})
	client := NewClient(f.stacks[0], f.mc)
	base := client.RetryBackoff
	if base == 0 {
		base = DefaultRetryBackoff
	}
	for n := 0; n < 8; n++ {
		exp := base << n
		if lim := 8 * base; exp > lim {
			exp = lim
		}
		for trial := 0; trial < 50; trial++ {
			d := client.retryDelay(n)
			if d < exp/2 || d >= exp+exp/2 {
				t.Fatalf("retryDelay(%d) = %v, want in [%v, %v)", n, d, exp/2, exp+exp/2)
			}
		}
	}
}

// dialOutcome is one sequential dial's result in the ladder tests.
type dialOutcome struct {
	flows int
	err   error
}

// runLadder dials the listener on host 15 once per initiator host, 5ms
// apart (each settles before the next), with a fresh client per dial so
// every dial is a distinct channel-open. Returns outcomes in dial order
// plus the clients for later closes. The MC's books are checked at every
// answer — full, degraded or refused — and once more when all is quiet.
func runLadder(t *testing.T, f *fixture, initiators []int, deadline time.Duration) ([]dialOutcome, []*Client) {
	t.Helper()
	target := f.stacks[15].Host.IP.String()
	outcomes := make([]dialOutcome, len(initiators))
	clients := make([]*Client, len(initiators))
	for i, h := range initiators {
		i, h := i, h
		f.eng.After(time.Duration(i)*5*time.Millisecond, func() {
			client := NewClientSeeded(f.stacks[h], f.mc, uint64(i)+1)
			client.Opts = ChannelOptions{MFlows: 4}
			client.DialRetries = -1
			clients[i] = client
			client.Dial(target, 80, func(s *Stream, err error) {
				checkBooks(t, f.mc)
				if err != nil {
					outcomes[i] = dialOutcome{err: err}
					return
				}
				outcomes[i] = dialOutcome{flows: s.FlowCount()}
			})
		})
	}
	f.eng.RunUntil(sim.Time(deadline))
	f.eng.Run()
	checkBooks(t, f.mc)
	return outcomes, clients
}

// TestDegradeBeforeRefuse drives sequential dials into a rule-budget-bound
// fabric: the MC must first admit at full F, then admit with fewer m-flows
// (the degradation ladder), and only refuse once even MinFlows does not
// fit. Refusals must be typed ErrOverloaded, never silence.
func TestDegradeBeforeRefuse(t *testing.T) {
	f := newFixture(t, Config{MFlows: 4, MNs: 3, Admission: AdmissionConfig{
		Enabled: true, Rate: 1e6, Burst: 64, SwitchRuleBudget: 16,
	}})
	Listen(f.stacks[15], 80, false, func(s *Stream) {})
	outcomes, _ := runLadder(t, f, []int{0, 1, 2, 3, 4, 5, 6, 7}, 200*time.Millisecond)

	var full, degraded, refused int
	sawDegraded, sawRefusal := -1, -1
	for i, o := range outcomes {
		switch {
		case o.err == nil && o.flows == 4:
			full++
		case o.err == nil:
			degraded++
			if sawDegraded < 0 {
				sawDegraded = i
			}
		case errors.Is(o.err, ErrOverloaded):
			refused++
			if sawRefusal < 0 {
				sawRefusal = i
			}
		default:
			t.Fatalf("dial %d: unexpected error %v", i, o.err)
		}
	}
	if full == 0 || degraded == 0 || refused == 0 {
		t.Fatalf("ladder incomplete: full=%d degraded=%d refused=%d, want all > 0", full, degraded, refused)
	}
	if sawDegraded > sawRefusal {
		t.Errorf("first degradation (dial %d) after first refusal (dial %d): ladder inverted", sawDegraded, sawRefusal)
	}
	if f.mc.ChannelsDegraded == 0 || f.mc.ChannelsRefused == 0 {
		t.Errorf("MC counters: degraded=%d refused=%d, want both > 0", f.mc.ChannelsDegraded, f.mc.ChannelsRefused)
	}
}

// TestDisableDegradeRefusesOutright: the ablation jumps straight from full
// admissions to refusals — no reduced-F channels exist.
func TestDisableDegradeRefusesOutright(t *testing.T) {
	f := newFixture(t, Config{MFlows: 4, MNs: 3, Admission: AdmissionConfig{
		Enabled: true, Rate: 1e6, Burst: 64, SwitchRuleBudget: 16, DisableDegrade: true,
	}})
	Listen(f.stacks[15], 80, false, func(s *Stream) {})
	outcomes, _ := runLadder(t, f, []int{0, 1, 2, 3, 4, 5}, 150*time.Millisecond)

	refused := 0
	for i, o := range outcomes {
		if o.err == nil && o.flows != 4 {
			t.Fatalf("dial %d admitted with F=%d despite DisableDegrade", i, o.flows)
		}
		if errors.Is(o.err, ErrOverloaded) {
			refused++
		}
	}
	if refused == 0 || f.mc.ChannelsDegraded != 0 {
		t.Fatalf("refused=%d degraded=%d, want refusals and zero degradations", refused, f.mc.ChannelsDegraded)
	}
}

// TestDegradedRestoreOnClose: closing a channel releases budget, and the
// oldest degraded channel gets an m-flow back — F recovers as pressure
// clears, driven by the same repair machinery that heals faults.
func TestDegradedRestoreOnClose(t *testing.T) {
	f := newFixture(t, Config{MFlows: 4, MNs: 3, Admission: AdmissionConfig{
		Enabled: true, Rate: 1e6, Burst: 64, SwitchRuleBudget: 16,
	}})
	Listen(f.stacks[15], 80, false, func(s *Stream) {})
	target := f.stacks[15].Host.IP.String()

	outcomes, clients := runLadder(t, f, []int{0, 1, 2, 3, 4, 5}, 150*time.Millisecond)
	firstFull := -1
	degraded := -1
	for i, o := range outcomes {
		if o.err == nil && o.flows == 4 && firstFull < 0 {
			firstFull = i
		}
		if o.err == nil && o.flows < 4 && degraded < 0 {
			degraded = i
		}
	}
	if firstFull < 0 || degraded < 0 {
		t.Fatalf("fixture did not produce both full and degraded channels: %+v", outcomes)
	}
	degradedFlows := outcomes[degraded].flows

	// Close a full-F channel; its released budget should restore one m-flow
	// on the degraded channel.
	done := false
	if err := clients[firstFull].CloseChannel(target, func() { done = true }); err != nil {
		t.Fatalf("close: %v", err)
	}
	f.eng.Run()
	if !done {
		t.Fatal("close never completed")
	}
	if f.mc.FlowsRestored == 0 {
		t.Fatalf("FlowsRestored = 0 after budget release")
	}
	checkBooks(t, f.mc)
	info := clients[degraded].channels[target]
	if info == nil {
		t.Fatal("degraded channel missing from its client's cache")
	}
	if got := len(info.info.Flows); got <= degradedFlows {
		t.Errorf("degraded channel still at %d flows after release, was %d", got, degradedFlows)
	}
}

// TestBudgetReplaySurvivesFailover: the per-switch intent accounting is
// journal-derived, so a promoted standby's ruleCount must match a fresh
// recomputation from its replayed channel state — otherwise budgets drift
// after every crash.
func TestBudgetReplaySurvivesFailover(t *testing.T) {
	f := newClusterFixture(t, Config{MFlows: 2, MNs: 3, Admission: AdmissionConfig{
		Enabled: true, Rate: 1e6, Burst: 64, SwitchRuleBudget: 64,
	}}, ClusterConfig{})
	Listen(f.stacks[15], 80, false, func(s *Stream) {})
	target := f.stacks[15].Host.IP.String()
	for i, h := range []int{0, 1, 2} {
		i, h := i, h
		f.eng.After(time.Duration(i)*2*time.Millisecond, func() {
			client := NewClientSeeded(f.stacks[h], f.cl, uint64(i)+1)
			client.Dial(target, 80, func(s *Stream, err error) {
				if err != nil {
					t.Errorf("dial %d: %v", i, err)
				}
			})
		})
	}
	f.eng.After(20*time.Millisecond, func() { f.net.SetCtrlHostDown(0, true) })
	f.settle(120 * time.Millisecond)

	promoted := f.cl.ActiveMC()
	if promoted.LiveChannels() != 3 {
		t.Fatalf("promoted MC lost channels: %d live, want 3", promoted.LiveChannels())
	}
	checkClusterReplay(t, f.cl)
	want := make(map[topo.NodeID]int)
	for _, st := range promoted.channels {
		for _, rr := range st.rules {
			if rr.entry != nil {
				want[rr.node]++
			}
		}
	}
	for node, n := range want {
		if promoted.ruleCount[node] != n {
			t.Errorf("switch %d: replayed ruleCount %d, recomputed %d", node, promoted.ruleCount[node], n)
		}
	}
	for node, n := range promoted.ruleCount {
		if n != 0 && want[node] == 0 {
			t.Errorf("switch %d: phantom intent %d with no backing rules", node, n)
		}
	}
}
