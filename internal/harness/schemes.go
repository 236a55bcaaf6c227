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
		tb.dir = onion.NewDirectory(onion.Config{})
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

// appStream is the scheme-independent view of an established session.
type appStream interface {
	Send([]byte)
	OnData(fn func([]byte))
	Close()
}

// serve starts the scheme's server on host `h`, invoking handler per
// session.
func (tb *Testbed) serve(scheme Scheme, h int, port uint16, handler func(appStream)) {
	switch scheme {
	case SchemeTCP:
		tb.Stacks[h].Listen(port, func(c *transport.Conn) { handler(c) })
	case SchemeSSL:
		tb.Stacks[h].ListenSSL(port, func(c *transport.SecureConn) { handler(c) })
	case SchemeMICTCP:
		mic.Listen(tb.Stacks[h], port, false, func(s *mic.Stream) { handler(s) })
	case SchemeMICSSL:
		mic.Listen(tb.Stacks[h], port, true, func(s *mic.Stream) { handler(s) })
	case SchemeTor:
		// Tor exits to a plain TCP server.
		tb.Stacks[h].Listen(port, func(c *transport.Conn) { handler(c) })
	}
}

// dial opens a session from host `from` to host `to` under the scheme.
// routeLen is the privacy knob: MN count for MIC, relay count for Tor;
// TCP/SSL ignore it.
func (tb *Testbed) dial(scheme Scheme, from, to int, port uint16, routeLen int, cb func(appStream, error)) {
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
	case SchemeTor:
		client := onion.NewClient(tb.Stacks[from], tb.dir)
		if routeLen <= 0 {
			routeLen = 3
		}
		client.Dial(routeLen, dst, port, func(c *onion.Circuit, err error) { cbWrap(cb, c, err) })
	}
}

// cbWrap adapts a typed callback to the appStream interface without
// tripping on typed-nil values.
func cbWrap[T appStream](cb func(appStream, error), s T, err error) {
	if err != nil {
		cb(nil, err)
		return
	}
	cb(s, nil)
}

// --- measurement primitives ---

// defaultPair is a cross-pod host pair: its shortest paths have 5 switches,
// like the paper's longest fat-tree routes.
var defaultPair = [2]int{0, 15}

// SetupTime measures session establishment (the paper's Fig 7 metric:
// "MIC connect" / Tor "connect" / TCP / SSL handshake) for one route length.
func SetupTime(scheme Scheme, routeLen int, seed uint64) (time.Duration, error) {
	tb, err := NewTestbed(scheme, 4, netsim.Config{}, mic.Config{Seed: seed + 1}, nil)
	if err != nil {
		return 0, err
	}
	tb.serve(scheme, defaultPair[1], 80, func(s appStream) {})
	var setup time.Duration
	var dialErr error
	tb.dial(scheme, defaultPair[0], defaultPair[1], 80, routeLen, func(s appStream, err error) {
		if err != nil {
			dialErr = err
			return
		}
		setup = time.Duration(tb.Eng.Now())
	})
	tb.Eng.Run()
	if dialErr != nil {
		return 0, dialErr
	}
	if setup == 0 {
		return 0, fmt.Errorf("harness: %v setup never completed", scheme)
	}
	return setup, nil
}

// PingPongLatency measures the paper's Fig 8 metric: after the session is
// established, the time from sending 10 bytes until 10 bytes come back.
func PingPongLatency(scheme Scheme, routeLen int, seed uint64) (time.Duration, error) {
	tb, err := NewTestbed(scheme, 4, netsim.Config{}, mic.Config{Seed: seed + 1}, nil)
	if err != nil {
		return 0, err
	}
	tb.serve(scheme, defaultPair[1], 80, func(s appStream) {
		s.OnData(func(b []byte) { s.Send(b) })
	})
	var start, end sim.Time
	var dialErr error
	tb.dial(scheme, defaultPair[0], defaultPair[1], 80, routeLen, func(s appStream, err error) {
		if err != nil {
			dialErr = err
			return
		}
		got := 0
		s.OnData(func(b []byte) {
			got += len(b)
			if got >= 10 {
				end = tb.Eng.Now()
			}
		})
		start = tb.Eng.Now()
		s.Send(make([]byte, 10))
	})
	tb.Eng.Run()
	if dialErr != nil {
		return 0, dialErr
	}
	if end == 0 {
		return 0, fmt.Errorf("harness: %v ping-pong never completed", scheme)
	}
	return time.Duration(end - start), nil
}

// ThroughputResult carries a bulk-transfer measurement plus the CPU ledger
// accumulated during it (the Fig 9c input).
type ThroughputResult struct {
	Mbps     float64
	Wall     time.Duration // transfer time
	CPUTotal time.Duration
	CPUBy    map[string]time.Duration
}

// ThroughputOneFlow measures a single bulk transfer (Fig 9a).
func ThroughputOneFlow(scheme Scheme, routeLen int, size int, seed uint64) (ThroughputResult, error) {
	tb, err := NewTestbed(scheme, 4, netsim.Config{}, mic.Config{Seed: seed + 1}, nil)
	if err != nil {
		return ThroughputResult{}, err
	}
	var start, end sim.Time
	got := 0
	tb.serve(scheme, defaultPair[1], 80, func(s appStream) {
		s.OnData(func(b []byte) {
			got += len(b)
			if got >= size {
				end = tb.Eng.Now()
			}
		})
	})
	var dialErr error
	var cpuBefore time.Duration
	tb.dial(scheme, defaultPair[0], defaultPair[1], 80, routeLen, func(s appStream, err error) {
		if err != nil {
			dialErr = err
			return
		}
		start = tb.Eng.Now()
		cpuBefore = tb.Net.CPU.Total()
		s.Send(payload(size))
	})
	tb.Eng.Run()
	if dialErr != nil {
		return ThroughputResult{}, dialErr
	}
	if end == 0 || got < size {
		return ThroughputResult{}, fmt.Errorf("harness: %v transfer incomplete (%d/%d bytes)", scheme, got, size)
	}
	wall := time.Duration(end - start)
	res := ThroughputResult{
		Mbps:     mbps(size, wall),
		Wall:     wall,
		CPUTotal: tb.Net.CPU.Total() - cpuBefore,
		CPUBy:    map[string]time.Duration{},
	}
	for _, cat := range tb.Net.CPU.Categories() {
		res.CPUBy[cat] = tb.Net.CPU.Category(cat)
	}
	return res, nil
}

// MultiFlowAvgThroughput runs n concurrent bulk transfers on disjoint
// cross-pod pairs and returns the mean per-flow throughput (Fig 9b).
func MultiFlowAvgThroughput(scheme Scheme, nFlows, size int, seed uint64) (float64, error) {
	return MultiFlowAvgThroughputCfg(scheme, nFlows, size, seed, mic.Config{})
}

// MultiFlowAvgThroughputCfg is MultiFlowAvgThroughput with an explicit MIC
// configuration (used by the path-policy ablation).
func MultiFlowAvgThroughputCfg(scheme Scheme, nFlows, size int, seed uint64, micCfg mic.Config) (float64, error) {
	micCfg.Seed = seed + 1
	tb, err := NewTestbed(scheme, 4, netsim.Config{}, micCfg, nil)
	if err != nil {
		return 0, err
	}
	if nFlows > 8 {
		return 0, fmt.Errorf("harness: at most 8 disjoint pairs on 16 hosts, got %d", nFlows)
	}
	type flowState struct {
		start, end sim.Time
		got        int
	}
	flows := make([]flowState, nFlows)
	for i := 0; i < nFlows; i++ {
		i := i
		src, dst := i, 8+i // pod 1/2 hosts to pod 3/4 hosts
		port := uint16(8000 + i)
		tb.serve(scheme, dst, port, func(s appStream) {
			s.OnData(func(b []byte) {
				flows[i].got += len(b)
				if flows[i].got >= size {
					flows[i].end = tb.Eng.Now()
				}
			})
		})
		tb.dial(scheme, src, dst, port, 3, func(s appStream, err error) {
			if err != nil {
				return
			}
			flows[i].start = tb.Eng.Now()
			s.Send(payload(size))
		})
	}
	tb.Eng.Run()
	sum := 0.0
	for i, f := range flows {
		if f.end == 0 {
			return 0, fmt.Errorf("harness: %v flow %d incomplete (%d/%d)", scheme, i, f.got, size)
		}
		sum += mbps(size, time.Duration(f.end-f.start))
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
