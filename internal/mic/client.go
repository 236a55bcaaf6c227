package mic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"mic/internal/addr"
	"mic/internal/chunk"
	"mic/internal/sim"
	"mic/internal/transport"
)

// DefaultSetupTimeout bounds Dial setup (channel establishment plus all
// m-flow handshakes) when Client.SetupTimeout is zero. Generous against
// worst-case transport SYN retries, tiny against a hang.
const DefaultSetupTimeout = 2 * time.Second

// DefaultDialRetries is how many times Dial re-attempts after a retryable
// failure (MC overload or setup timeout) when Client.DialRetries is zero.
const DefaultDialRetries = 3

// DefaultRetryBackoff is the base dial-retry delay when Client.RetryBackoff
// is zero. Attempt n waits base<<n, capped at 8x base, scaled by seeded
// jitter in [0.5, 1.5) so colliding clients de-synchronize.
const DefaultRetryBackoff = 2 * time.Millisecond

// ErrSetupTimeout marks a dial that missed its setup deadline. Wrapped in
// the error Dial reports, so errors.Is(err, ErrSetupTimeout) classifies it;
// it is one of the two retryable dial failures (the other is ErrOverloaded).
var ErrSetupTimeout = errors.New("setup deadline exceeded")

// ControlPlane is the client's handle to whatever answers channel requests:
// a single MC, or a failover Cluster fronting an active controller and its
// standbys (clients address a controller service, not a process — the VIP
// model, which is what makes controller replacement invisible to them).
type ControlPlane interface {
	Engine() *sim.Engine
	ClientSeed() uint64
	EstablishChannel(initiator addr.IP, target string, opts ChannelOptions, cb func(*ChannelInfo, error))
	CloseChannel(id uint64, cb func()) error
	SubscribeRepair(fn func(RepairEvent))
}

// Client is the initiator-side MIC library: a socket-like API that hides
// the channel request, m-flow connections and slicing. One Client serves
// one host. Channels are cached per target and reused across Dials, the
// paper's channel-reuse optimization for massive short communications
// (Sec IV-B1).
type Client struct {
	Stack *transport.Stack
	MC    ControlPlane

	// Secure selects SSL under the m-flows (MIC-SSL vs MIC-TCP).
	Secure bool

	// Opts are per-channel overrides (m-flow count, MN count, fanout).
	Opts ChannelOptions

	// Health tunes the per-m-flow health machinery of streams this client
	// opens (health.go). The zero value enables it with defaults.
	Health HealthConfig

	// SetupTimeout bounds Dial setup; zero means DefaultSetupTimeout. A
	// dial that has not produced a ready stream by the deadline fails with
	// a descriptive error instead of hanging forever.
	SetupTimeout time.Duration

	// DialRetries caps automatic re-dials after a retryable failure
	// (ErrOverloaded from MC admission control, or setup timeout). Zero
	// means DefaultDialRetries; negative disables retry entirely.
	DialRetries int

	// RetryBackoff is the base retry delay (zero = DefaultRetryBackoff).
	RetryBackoff time.Duration

	// DialRetryCount tallies automatic re-dial attempts, for telemetry.
	DialRetryCount uint64

	rng      *sim.RNG
	channels map[string]*cachedChannel
	pending  map[string][]*chanWaiter
	streams  map[uint64][]*Stream // live streams by channel ID, in open order
	idle     sim.Timer            // the idle notifier's next tick
}

// chanWaiter is one dial waiting on channel establishment. canceled is set
// when that dial's setup deadline fires, so a late establishment reply
// skips the waiter instead of resurrecting an abandoned dial.
type chanWaiter struct {
	fn       func(*ChannelInfo, error)
	canceled bool
}

// cachedChannel tracks reuse for the idle notifier.
type cachedChannel struct {
	info     *ChannelInfo
	lastUsed sim.Time
}

// NewClient builds a client for the host owning stack. The client
// subscribes to the MC's self-healing notifications: a successful repair
// immediately re-probes every affected stream's m-flows, and a terminal
// channel loss fails the affected streams with a clean error (and evicts
// the dead channel from the reuse cache) instead of leaving them to hang.
func NewClient(stack *transport.Stack, mc ControlPlane) *Client {
	return NewClientSeeded(stack, mc, 0)
}

// NewClientSeeded is NewClient with an extra RNG salt. Use it when one host
// runs several independent clients (load-generation harnesses): clients on
// the same host otherwise share an RNG seed, and their identical stream
// tokens would collide at the listener.
func NewClientSeeded(stack *transport.Stack, mc ControlPlane, salt uint64) *Client {
	c := &Client{
		Stack: stack,
		MC:    mc,
		// The one root mixing constants into its seed. It follows the run's
		// seed through ClientSeed; a redraw would move every benchmark
		// virtual metric it feeds (DESIGN §5 "One seed tree" measures it).
		rng:      sim.NewRNG(uint64(stack.Host.IP) ^ mc.ClientSeed() ^ 0x5ac1e5 ^ salt*0x9e3779b97f4a7c15),
		channels: make(map[string]*cachedChannel),
		pending:  make(map[string][]*chanWaiter),
		streams:  make(map[uint64][]*Stream),
	}
	mc.SubscribeRepair(func(ev RepairEvent) {
		switch {
		case ev.Down:
			c.channelDown(ev.Channel, fmt.Errorf("mic: channel %d unrepairable after %d attempts: %w", ev.Channel, ev.Attempts, ev.Err))
		case ev.Err == nil:
			for _, s := range c.streams[ev.Channel] {
				if s.health != nil {
					s.health.onRepair()
				}
			}
		}
	})
	return c
}

// channelDown reacts to the MC abandoning a channel: evict it from the
// reuse cache and fail every stream riding it.
func (c *Client) channelDown(id uint64, err error) {
	for target, cc := range c.channels {
		if cc.info.ID == id {
			delete(c.channels, target)
		}
	}
	victims := c.streams[id]
	delete(c.streams, id)
	for _, s := range victims {
		s.fail(err)
	}
}

// Dial opens an anonymous stream to target (hidden-service name or IP
// string) on the given port. The callback fires when the stream is ready:
// channel established (or reused) and all m-flow connections handshaken.
// If setup has not completed within SetupTimeout the attempt fails; on a
// retryable failure (MC overload, setup timeout) Dial re-attempts up to
// DialRetries times with jittered exponential backoff before reporting the
// final error. The callback fires exactly once either way.
func (c *Client) Dial(target string, port uint16, cb func(*Stream, error)) {
	retries := c.DialRetries
	if retries == 0 {
		retries = DefaultDialRetries
	}
	if retries < 0 {
		retries = 0
	}
	var attempt func(n int)
	attempt = func(n int) {
		c.dialOnce(target, port, func(s *Stream, err error) {
			if err != nil && n < retries && retryableDial(err) {
				c.DialRetryCount++
				c.MC.Engine().After(c.retryDelay(n), func() { attempt(n + 1) })
				return
			}
			cb(s, err)
		})
	}
	attempt(0)
}

// retryableDial reports whether a dial failure is worth re-attempting:
// overload is explicitly transient (the MC says "later"), and a setup
// timeout usually means a storm ate the request or a handshake stalled.
func retryableDial(err error) bool {
	return errors.Is(err, ErrOverloaded) || errors.Is(err, ErrSetupTimeout)
}

// retryDelay computes the wait before retry attempt n+1: capped exponential
// backoff with seeded jitter — the deterministic analogue of randomized
// backoff, so colliding clients de-synchronize without wall-clock RNG.
func (c *Client) retryDelay(n int) time.Duration {
	base := c.RetryBackoff
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	d := base << n
	if lim := 8 * base; d > lim {
		d = lim
	}
	return time.Duration(float64(d) * (0.5 + c.rng.Float64()))
}

// dialOnce is one dial attempt under one setup deadline. When the deadline
// fires it cancels the attempt's in-flight state — the channel waiter and
// any half-done m-flow handshakes — so a late MC reply or connect cannot
// register a channel or stream nobody is waiting for.
func (c *Client) dialOnce(target string, port uint16, cb func(*Stream, error)) {
	timeout := c.SetupTimeout
	if timeout <= 0 {
		timeout = DefaultSetupTimeout
	}
	settled := false
	canceled := false
	w := &chanWaiter{}
	c.MC.Engine().After(timeout, func() {
		if settled {
			return
		}
		settled = true
		canceled = true
		w.canceled = true
		cb(nil, fmt.Errorf("mic: dial %s:%d: setup deadline %v exceeded: %w", target, port, timeout, ErrSetupTimeout))
	})
	done := func(s *Stream, err error) {
		if settled {
			// The deadline already fired; discard the late result.
			if s != nil {
				s.Close()
			}
			return
		}
		settled = true
		cb(s, err)
	}
	w.fn = func(info *ChannelInfo, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		c.openStream(info, port, &canceled, done)
	}
	c.withChannel(target, w)
}

// withChannel returns the cached channel for target or establishes one,
// coalescing concurrent requests. Waiters whose dial deadline fired while
// the request was in flight are skipped when the reply lands; if every
// waiter is gone, a successful reply is not cached — the orphan channel is
// closed at the MC so timed-out dials leak no controller state.
func (c *Client) withChannel(target string, w *chanWaiter) {
	if cc, ok := c.channels[target]; ok {
		cc.lastUsed = c.MC.Engine().Now()
		w.fn(cc.info, nil)
		return
	}
	if waiters, inflight := c.pending[target]; inflight {
		c.pending[target] = append(waiters, w)
		return
	}
	c.pending[target] = []*chanWaiter{w}
	c.MC.EstablishChannel(c.Stack.Host.IP, target, c.Opts, func(info *ChannelInfo, err error) {
		waiters := c.pending[target]
		delete(c.pending, target)
		live := waiters[:0]
		for _, w := range waiters {
			if !w.canceled {
				live = append(live, w)
			}
		}
		if err == nil {
			if len(live) == 0 {
				// lint:ignore errdrop every waiter canceled before setup finished; closing the orphan channel is best-effort and nobody is left to receive the error
				_ = c.MC.CloseChannel(info.ID, nil)
				return
			}
			c.channels[target] = &cachedChannel{info: info, lastUsed: c.MC.Engine().Now()}
		}
		for _, w := range live {
			w.fn(info, err)
		}
	})
}

// openStream dials one transport connection per m-flow, sends the hello on
// each, and hands the assembled Stream to cb. canceled is the owning dial
// attempt's abandon flag: once set, every subsequent connect result closes
// its connection (and any already collected) instead of building a stream.
func (c *Client) openStream(info *ChannelInfo, port uint16, canceled *bool, cb func(*Stream, error)) {
	n := len(info.Flows)
	conns := make([]conn, n)
	token := c.rng.Uint64()
	remaining := n
	failed := false
	onConn := func(i int) func(conn, error) {
		return func(bs conn, err error) {
			if failed {
				if bs != nil {
					bs.Close()
				}
				return
			}
			if canceled != nil && *canceled {
				failed = true
				if bs != nil {
					bs.Close()
				}
				for _, c := range conns {
					if c != nil {
						c.Close()
					}
				}
				return
			}
			if err != nil {
				failed = true
				for _, c := range conns {
					if c != nil {
						c.Close()
					}
				}
				cb(nil, fmt.Errorf("mic: m-flow %d connect: %w", i, err))
				return
			}
			conns[i] = bs
			bs.Send(hello(token, uint8(i), uint8(n)))
			remaining--
			if remaining == 0 {
				s := newStream(conns, c.rng.Stream("slicer"), c.MC.Engine(), c.Health)
				c.register(info.ID, s)
				cb(s, nil)
			}
		}
	}
	for i, f := range info.Flows {
		i := i
		if c.Secure {
			c.Stack.DialSSL(f.Entry, port, func(sc *transport.SecureConn, err error) {
				if err != nil {
					onConn(i)(nil, err)
					return
				}
				onConn(i)(sc, nil)
			})
		} else {
			c.Stack.Dial(f.Entry, port, func(conn *transport.Conn, err error) {
				if err != nil {
					onConn(i)(nil, err)
					return
				}
				onConn(i)(conn, nil)
			})
		}
	}
}

// register tracks a live stream by channel so MC notifications (repairs,
// terminal channel loss) reach it; the stream unregisters itself when it
// closes or fails.
func (c *Client) register(id uint64, s *Stream) {
	c.streams[id] = append(c.streams[id], s)
	s.onFinalize = func() {
		set := c.streams[id]
		for i, t := range set {
			if t == s {
				c.streams[id] = append(set[:i], set[i+1:]...)
				break
			}
		}
		if len(c.streams[id]) == 0 {
			delete(c.streams, id)
		}
	}
}

// CloseChannel tears down the cached channel to target at the MC. Streams
// using it should be closed first. cb may be nil. A close refused with
// ErrNotActive (a Cluster's takeover blackout) keeps the channel cached, so
// it can be closed again.
func (c *Client) CloseChannel(target string, cb func()) error {
	cc, ok := c.channels[target]
	if !ok {
		return fmt.Errorf("mic: no cached channel to %q", target)
	}
	err := c.MC.CloseChannel(cc.info.ID, cb)
	if !errors.Is(err, ErrNotActive) {
		delete(c.channels, target)
	}
	return err
}

// Channel returns the cached channel info for target, if any. Harnesses use
// it to inspect paths and entry addresses.
func (c *Client) Channel(target string) (*ChannelInfo, bool) {
	cc, ok := c.channels[target]
	if !ok {
		return nil, false
	}
	return cc.info, true
}

// StartIdleNotifier implements the paper's channel-management optimization
// (Sec IV-B1): instead of a shutdown request per connection, "a dedicated
// module in the initiator will send notification to the MC periodically."
// Every interval, channels unused for at least one full interval are torn
// down at the MC, in target order: close order decides which flow IDs the
// MC hands out next, and so the next channel's m-addresses. Returns a stop
// function.
// lint:ignore unused paper mechanism (Sec IV-B1) that its tests exercise
func (c *Client) StartIdleNotifier(interval time.Duration) (stop func()) {
	eng := c.MC.Engine()
	c.idle.Bind(eng, func() {
		now := eng.Now()
		var idle []string
		// lint:ignore detrange targets are collected then sorted immediately below
		for target, cc := range c.channels {
			if now.Sub(cc.lastUsed) >= interval {
				idle = append(idle, target)
			}
		}
		slices.Sort(idle)
		for _, target := range idle {
			// lint:ignore errdrop a close refused during a takeover blackout keeps the channel cached, and the next tick closes it again
			_ = c.CloseChannel(target, nil)
		}
		c.idle.Reset(interval)
	})
	c.idle.Reset(interval)
	return c.idle.Stop
}

func hello(token uint64, idx, total uint8) []byte {
	h := make([]byte, helloLen)
	binary.BigEndian.PutUint64(h[0:8], token)
	h[8], h[9] = idx, total
	return h
}

// Listener is the responder-side MIC library: it accepts the m-flow
// connections of inbound channels, groups them by hello token, and
// delivers one Stream per logical peer connection.
type Listener struct {
	// Port and Secure echo the Listen arguments for inspection.
	Port   uint16
	Secure bool

	// Health tunes the health machinery of accepted streams. Set it before
	// the first channel arrives; the zero value enables defaults.
	Health HealthConfig

	eng     *sim.Engine
	onOpen  func(*Stream)
	pending map[uint64]*pendingStream
	rng     *sim.RNG
}

// pendingStream is a channel whose m-flow connections are still arriving:
// conns[i] once conn i's hello came, held[i] the bytes that arrived on it
// after the hello, kept by reference until the stream exists.
type pendingStream struct {
	conns []conn
	held  [][]chunk.Span
	have  int
}

// Listen starts accepting mimic channels on port. secure selects MIC-SSL.
// Register any hidden-service name separately via MC.RegisterHiddenService.
func Listen(stack *transport.Stack, port uint16, secure bool, onOpen func(*Stream)) *Listener {
	l := &Listener{
		Port:    port,
		Secure:  secure,
		eng:     stack.Host.Net().Eng,
		onOpen:  onOpen,
		pending: make(map[uint64]*pendingStream),
		rng:     stack.Host.Net().Stream("listener/" + stack.Host.Name),
	}
	if secure {
		stack.ListenSSL(port, func(sc *transport.SecureConn) { l.accept(sc) })
	} else {
		stack.Listen(port, func(conn *transport.Conn) { l.accept(conn) })
	}
	return l
}

// accept reads a new connection's hello — its helloLen bytes are copied,
// the only bytes a listener copies — then binds the connection into its
// channel's pending stream with the rest of the span the hello ended in.
func (l *Listener) accept(c conn) {
	var h [helloLen]byte
	have := 0
	c.OnSpan(func(sp chunk.Span) {
		k := copy(h[have:], sp.Bytes())
		if have += k; have < helloLen {
			return
		}
		sp.Off, sp.N = sp.Off+k, sp.N-k
		l.bind(c, binary.BigEndian.Uint64(h[0:8]), int(h[8]), int(h[9]), sp)
	})
}

// bind adds c, whose hello named it m-flow idx of total of channel token,
// to the channel's pending stream; rest is what arrived after the hello.
// Until the last m-flow binds, the listener keeps what arrives on c by
// reference; then the stream is built and fed it, conn by conn. A conn that
// closes first abandons the channel (drop).
func (l *Listener) bind(c conn, token uint64, idx, total int, rest chunk.Span) {
	ps := l.pending[token]
	if total < 1 || idx >= total || ps != nil && (len(ps.conns) != total || ps.conns[idx] != nil) {
		c.OnSpan(nil) // drop whatever else arrives
		c.Close()
		return
	}
	if ps == nil {
		ps = &pendingStream{conns: make([]conn, total), held: make([][]chunk.Span, total)}
		l.pending[token] = ps
	}
	ps.conns[idx] = c
	hold := func(sp chunk.Span) {
		if sp.N > 0 {
			sp.C.Retain()
			ps.held[idx] = append(ps.held[idx], sp)
		}
	}
	hold(rest)
	if ps.have++; ps.have < total {
		// newStream rebinds both handlers once the other m-flows show up.
		c.OnSpan(hold)
		c.OnClose(func() { l.drop(token, ps) })
		return
	}
	delete(l.pending, token)
	s := newStream(ps.conns, l.rng.Stream(fmt.Sprintf("resp-%d", token)), l.eng, l.Health)
	for i, held := range ps.held {
		s.replay(i, held)
	}
	l.onOpen(s)
}

// drop abandons the pending stream of channel token, one of whose conns
// closed before the channel's other m-flows arrived: the spans held for it
// are released and its conns' further bytes ignored. Nothing more goes on
// the wire.
func (l *Listener) drop(token uint64, ps *pendingStream) {
	delete(l.pending, token)
	for _, held := range ps.held {
		for _, sp := range held {
			sp.C.Release()
		}
	}
	for _, c := range ps.conns {
		if c != nil {
			c.OnSpan(nil)
			c.OnClose(nil)
		}
	}
}
