// Package harness builds and runs the paper's experiments: one entry per
// evaluation figure (Figs 7, 8, 9a-c), the quantified security analysis of
// Sec V, and ablations of MIC's design choices. Each experiment stands up
// fresh simulated testbeds — the substitute for the paper's Mininet rig —
// and renders the same rows/series the paper plots.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package harness

import (
	"fmt"
	"sync"
	"time"

	"mic/internal/addr"
	"mic/internal/ctrlplane"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/onion"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// Scheme identifies one evaluated system.
type Scheme int

// The five systems of the paper's evaluation.
const (
	SchemeTCP Scheme = iota
	SchemeSSL
	SchemeMICTCP
	SchemeMICSSL
	SchemeTor
)

var schemeNames = map[Scheme]string{
	SchemeTCP:    "TCP",
	SchemeSSL:    "SSL",
	SchemeMICTCP: "MIC-TCP",
	SchemeMICSSL: "MIC-SSL",
	SchemeTor:    "Tor",
}

// String returns the scheme's display name.
func (s Scheme) String() string { return schemeNames[s] }

// AllSchemes lists the five systems of the paper's evaluation.
func AllSchemes() []Scheme {
	return []Scheme{SchemeTCP, SchemeSSL, SchemeMICTCP, SchemeMICSSL, SchemeTor}
}

// Testbed is one fresh simulated rig: a fat-tree (the paper's is k=4: 20
// four-port switches, 16 hosts) with whatever control plane the scheme needs
// — proactive routing only, a standalone MC, or a failover Cluster. Every
// experiment, every micsim scenario, the plain micsim transfer and mictrace
// stand on this one bed.
type Testbed struct {
	Eng    *sim.Engine
	Net    *netsim.Network
	Graph  *topo.Graph
	Stacks []*transport.Stack // one per host, in Graph.Hosts() order

	// MC is the standalone controller of a MIC bed, Cluster the failover
	// group of one built with a ClusterConfig; at most one is set.
	MC      *mic.MC
	Cluster *mic.Cluster

	dir *onion.Directory
}

// relayHosts run the onion relays (they may also serve as endpoints, as in
// a volunteer overlay).
var relayHosts = []int{4, 5, 6, 10, 11, 12}

// newFabric builds the part of the bed below the control plane: a
// fat-tree(arity) fabric under netCfg with a transport stack on every host.
func newFabric(arity int, netCfg netsim.Config) (*Testbed, error) {
	g, err := topo.FatTree(arity)
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	tb := &Testbed{Eng: eng, Net: netsim.New(eng, g, netCfg), Graph: g}
	for _, hid := range g.Hosts() {
		tb.Stacks = append(tb.Stacks, transport.NewStack(tb.Net.Host(hid)))
	}
	return tb, nil
}

// NewTestbed builds the rig for scheme on a fat-tree(arity) fabric under
// netCfg. The MIC schemes run micCfg as given (the caller owns the seed,
// offsets included) on a standalone MC, or on a failover cluster when ha is
// non-nil.
func NewTestbed(scheme Scheme, arity int, netCfg netsim.Config, micCfg mic.Config, ha *mic.ClusterConfig) (*Testbed, error) {
	tb, err := newFabric(arity, netCfg)
	if err != nil {
		return nil, err
	}
	switch {
	case scheme != SchemeMICTCP && scheme != SchemeMICSSL:
		router := &ctrlplane.ProactiveRouter{CFLabel: 0x0ffee}
		_, err = router.Install(tb.Net)
	case ha != nil:
		tb.Cluster, err = mic.NewCluster(tb.Net, micCfg, *ha)
	default:
		tb.MC, err = mic.NewMC(tb.Net, micCfg)
	}
	if err != nil {
		return nil, err
	}
	if scheme == SchemeTor {
		tb.dir = onion.NewDirectory()
		for _, h := range relayHosts {
			tb.dir.AddRelay(tb.Stacks[h], 9001)
		}
	}
	return tb, nil
}

// controlPlane is what MIC clients of this bed bind to.
func (tb *Testbed) controlPlane() mic.ControlPlane {
	if tb.Cluster != nil {
		return tb.Cluster
	}
	return tb.MC
}

func (tb *Testbed) hostIP(i int) addr.IP { return tb.Stacks[i].Host.IP }

// serve starts the scheme's server on host `h`, invoking handler per
// session.
func (tb *Testbed) serve(scheme Scheme, h int, port uint16, handler func(transport.ByteStream)) {
	switch scheme {
	case SchemeTCP, SchemeTor: // Tor exits to a plain TCP server
		tb.Stacks[h].Listen(port, func(c *transport.Conn) { handler(c) })
	case SchemeSSL:
		tb.Stacks[h].ListenSSL(port, func(c *transport.SecureConn) { handler(c) })
	case SchemeMICTCP, SchemeMICSSL:
		mic.Listen(tb.Stacks[h], port, scheme == SchemeMICSSL, func(s *mic.Stream) { handler(s) })
	}
}

// dial opens a session from host `from` to host `to` under the scheme.
// routeLen is the privacy knob: MN count for MIC, relay count for Tor;
// TCP/SSL ignore it. Under a MIC scheme it returns the dialling client,
// whose channel cache holds the channel once cb reports the stream up; cb
// never reports a session up before dial returns.
func (tb *Testbed) dial(scheme Scheme, from, to int, port uint16, routeLen int, cb func(transport.ByteStream, error)) *mic.Client {
	dst := tb.hostIP(to)
	switch scheme {
	case SchemeTCP:
		tb.Stacks[from].Dial(dst, port, func(c *transport.Conn, err error) { cbWrap(cb, c, err) })
	case SchemeSSL:
		tb.Stacks[from].DialSSL(dst, port, func(c *transport.SecureConn, err error) { cbWrap(cb, c, err) })
	case SchemeMICTCP, SchemeMICSSL:
		client := mic.NewClient(tb.Stacks[from], tb.controlPlane())
		client.Secure = scheme == SchemeMICSSL
		if routeLen > 0 {
			client.Opts.MNs = routeLen
		}
		client.Dial(dst.String(), port, func(s *mic.Stream, err error) { cbWrap(cb, s, err) })
		return client
	case SchemeTor:
		client := onion.NewClient(tb.Stacks[from], tb.dir)
		if routeLen <= 0 {
			routeLen = 3
		}
		client.Dial(routeLen, dst, port, func(c *onion.Circuit, err error) { cbWrap(cb, c, err) })
	}
	return nil
}

// cbWrap adapts a typed callback to transport.ByteStream without
// tripping on typed-nil values.
func cbWrap[T transport.ByteStream](cb func(transport.ByteStream, error), s T, err error) {
	if err != nil {
		cb(nil, err)
		return
	}
	cb(s, nil)
}

// --- measurement primitives ---

// Transfer is one session carrying Size bytes between two hosts of a bed,
// observed at the end that receives them. Every trial that sends a payload
// and waits for it runs on one.
type Transfer struct {
	Size       int
	Got        int           // bytes received so far
	Start, End sim.Time      // session up (send begins); byte Size received
	CPUAtStart time.Duration // the bed's virtual CPU total at Start
	DialErr    error

	// Under a MIC scheme, Stream is the initiator's end, Remote the
	// listener's, Channel what the control plane granted the initiator; nil
	// until the dial completes, and always nil under the other schemes.
	Stream, Remote *mic.Stream
	Channel        *mic.ChannelInfo
	Circuit        *onion.Circuit // under Tor, the initiator's circuit once up
}

// StartTransfer listens on host `to` for the scheme's session on port,
// dials it from host `from` with routeLen as dial reads it, and sends Size
// bytes of payload once the session is up. The transfer's progress
// accumulates in the returned value as the engine runs.
func (tb *Testbed) StartTransfer(scheme Scheme, from, to int, port uint16, routeLen, size int) *Transfer {
	t := tb.expect(scheme, to, port, size)
	var client *mic.Client
	client = tb.dial(scheme, from, to, port, routeLen, func(s transport.ByteStream, err error) {
		if err != nil {
			t.DialErr = err
			return
		}
		t.begin(tb, s)
		if t.Stream != nil {
			t.Channel, _ = client.Channel(tb.hostIP(to).String())
		}
		s.Send(payload(size))
	})
	return t
}

// expect is a transfer's receiving half: it listens on host `to` for one
// session of the scheme on port and counts what arrives toward size bytes.
// A trial that paces its own sends dials the session itself and marks it
// with begin.
func (tb *Testbed) expect(scheme Scheme, to int, port uint16, size int) *Transfer {
	t := &Transfer{Size: size}
	tb.serve(scheme, to, port, func(s transport.ByteStream) {
		t.Remote, _ = s.(*mic.Stream)
		t.count(tb, s)
	})
	return t
}

// count adds what s receives to Got, and stamps End when byte Size arrives.
func (t *Transfer) count(tb *Testbed, s transport.ByteStream) {
	s.OnData(func(b []byte) {
		t.Got += len(b)
		if t.Got >= t.Size && t.End == 0 {
			t.End = tb.Eng.Now()
		}
	})
}

// begin marks s as the transfer's sending end, about to send. A transfer of
// no bytes is done once its session is up.
func (t *Transfer) begin(tb *Testbed, s transport.ByteStream) {
	t.Start, t.CPUAtStart = tb.Eng.Now(), tb.Net.CPU.Total()
	t.Stream, _ = s.(*mic.Stream)
	t.Circuit, _ = s.(*onion.Circuit)
	if t.Size == 0 {
		t.End = t.Start
	}
}

// Err reports why the transfer did not complete, or nil if it did.
func (t *Transfer) Err() error {
	switch {
	case t.DialErr != nil:
		return t.DialErr
	case t.Start == 0:
		return fmt.Errorf("harness: session never came up")
	case t.Got < t.Size:
		return fmt.Errorf("harness: transfer incomplete (%d/%d bytes)", t.Got, t.Size)
	}
	return nil
}

// Wall is the transfer time, session up to last byte.
func (t *Transfer) Wall() time.Duration { return time.Duration(t.End - t.Start) }

// Mbps is the transfer's goodput over Wall.
func (t *Transfer) Mbps() float64 { return mbps(t.Size, t.Wall()) }

// defaultPair is a cross-pod host pair: its shortest paths have 5 switches,
// like the paper's longest fat-tree routes.
var defaultPair = [2]int{0, 15}

// pairBed builds the bed of the scheme comparisons (figs 7-9): fat-tree(4),
// a clean fabric seeded seed, and under a MIC scheme a standalone MC running
// cfg seeded seed+1.
func pairBed(scheme Scheme, cfg mic.Config, seed uint64) (*Testbed, error) {
	cfg.Seed = seed + 1
	return NewTestbed(scheme, 4, netsim.Config{Seed: seed}, cfg, nil)
}

// runPair carries size bytes over the scheme from defaultPair's first host
// to its second, on tb, to quiescence.
func (tb *Testbed) runPair(scheme Scheme, routeLen, size int) (*Transfer, error) {
	t := tb.StartTransfer(scheme, defaultPair[0], defaultPair[1], 80, routeLen, size)
	tb.Eng.Run()
	return t, t.Err()
}

// SetupTime measures session establishment (the paper's Fig 7 metric:
// "MIC connect" / Tor "connect" / TCP / SSL handshake) for one route length.
func SetupTime(scheme Scheme, routeLen int, seed uint64) (time.Duration, error) {
	tb, err := pairBed(scheme, mic.Config{}, seed)
	if err != nil {
		return 0, err
	}
	t, err := tb.runPair(scheme, routeLen, 0)
	return time.Duration(t.Start), err
}

// PingPongLatency measures the paper's Fig 8 metric on the scheme
// comparisons' bed (pairBed).
func PingPongLatency(scheme Scheme, from, to, routeLen int, seed uint64) (time.Duration, error) {
	tb, err := pairBed(scheme, mic.Config{}, seed)
	if err != nil {
		return 0, err
	}
	return tb.PingPong(scheme, from, to, routeLen)
}

// PingPong runs the engine through one ping-pong on tb: after a session from
// host `from` to host `to` is established, the time from sending 10 bytes
// until 10 bytes come back. The responder echoes; the transfer counted is
// the echo, at the initiator.
func (tb *Testbed) PingPong(scheme Scheme, from, to, routeLen int) (time.Duration, error) {
	tb.serve(scheme, to, 80, func(s transport.ByteStream) {
		s.OnData(func(b []byte) { s.Send(b) })
	})
	echo := &Transfer{Size: 10}
	tb.dial(scheme, from, to, 80, routeLen, func(s transport.ByteStream, err error) {
		if err != nil {
			echo.DialErr = err
			return
		}
		echo.count(tb, s)
		echo.begin(tb, s)
		s.Send(make([]byte, echo.Size))
	})
	tb.Eng.Run()
	return echo.Wall(), echo.Err()
}

// ThroughputResult carries a bulk-transfer measurement plus the CPU ledger
// accumulated during it (the Fig 9c input).
type ThroughputResult struct {
	Mbps     float64
	Wall     time.Duration // transfer time
	CPUTotal time.Duration // virtual CPU from the start of the transfer
	CPUBy    map[string]time.Duration
}

// ThroughputOneFlow measures a single bulk transfer (Fig 9a).
func ThroughputOneFlow(scheme Scheme, routeLen int, size int, seed uint64) (ThroughputResult, error) {
	tb, err := pairBed(scheme, mic.Config{}, seed)
	if err != nil {
		return ThroughputResult{}, err
	}
	t, err := tb.runPair(scheme, routeLen, size)
	if err != nil {
		return ThroughputResult{}, fmt.Errorf("%v: %w", scheme, err)
	}
	res := ThroughputResult{
		Mbps:     t.Mbps(),
		Wall:     t.Wall(),
		CPUTotal: tb.Net.CPU.Total() - t.CPUAtStart,
		CPUBy:    map[string]time.Duration{},
	}
	for _, cat := range tb.Net.CPU.Categories() {
		res.CPUBy[cat] = tb.Net.CPU.Category(cat)
	}
	return res, nil
}

// MultiFlowAvgThroughput runs n concurrent bulk transfers on disjoint
// cross-pod pairs, the MIC schemes' MC running micCfg, and returns the mean
// per-flow throughput (Fig 9b; the path-policy ablation, fig a4, varies
// micCfg).
func MultiFlowAvgThroughput(scheme Scheme, nFlows, size int, seed uint64, micCfg mic.Config) (float64, error) {
	if nFlows > 8 {
		return 0, fmt.Errorf("harness: at most 8 disjoint pairs on 16 hosts, got %d", nFlows)
	}
	tb, err := pairBed(scheme, micCfg, seed)
	if err != nil {
		return 0, err
	}
	flows := make([]*Transfer, nFlows)
	for i := range flows {
		// pod 1/2 hosts to pod 3/4 hosts
		flows[i] = tb.StartTransfer(scheme, i, 8+i, uint16(8000+i), 3, size)
	}
	tb.Eng.Run()
	sum := 0.0
	for i, t := range flows {
		if err := t.Err(); err != nil {
			return 0, fmt.Errorf("%v flow %d: %w", scheme, i, err)
		}
		sum += t.Mbps()
	}
	return sum / float64(nFlows), nil
}

var (
	payloadMu  sync.Mutex
	payloadPat []byte
)

// payload returns n bytes of deterministic content. The byte at index i
// depends only on i, so one shared template serves every size: it is grown
// on demand under a lock (trials run on separate goroutines) and copied
// out, so callers can hand the result to Send without aliasing the cache.
func payload(n int) []byte {
	payloadMu.Lock()
	if len(payloadPat) < n {
		grown := make([]byte, n)
		for i := copy(grown, payloadPat); i < n; i++ {
			grown[i] = byte(i*31 + i>>11)
		}
		payloadPat = grown
	}
	pat := payloadPat
	payloadMu.Unlock()
	b := make([]byte, n)
	copy(b, pat)
	return b
}

func mbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e6
}
