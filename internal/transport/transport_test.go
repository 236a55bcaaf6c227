package transport

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"time"

	"mic/internal/bytequeue"
	"mic/internal/ctrlplane"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// rig builds a routed linear fabric with transport stacks on both hosts.
type rig struct {
	eng   *sim.Engine
	net   *netsim.Network
	a, b  *Stack
	graph *topo.Graph
}

func newRig(t *testing.T, switches int, cfg netsim.Config) *rig {
	t.Helper()
	g, err := topo.Linear(switches)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	// Every transport test runs under the pools' use-after-release guards:
	// retaining a pooled packet (or its payload), or reading a chunk past
	// its last reference, poisons and panics instead of silently
	// corrupting.
	cfg.PoolDebug = true
	net := netsim.New(eng, g, cfg)
	r := &ctrlplane.ProactiveRouter{CFLabel: 777}
	if _, err := r.Install(net); err != nil {
		t.Fatal(err)
	}
	return &rig{
		eng: eng, net: net, graph: g,
		a: NewStack(net.Host(g.Hosts()[0])),
		b: NewStack(net.Host(g.Hosts()[1])),
	}
}

// uniformLoss installs rate uniform frame loss on every link of the rig's
// fabric, both directions. Each link direction draws from its own stream of
// the network's Seed, so the draws do not depend on when it runs, as
// long as no frame has crossed yet.
func (r *rig) uniformLoss(rate float64) {
	for _, node := range r.graph.Nodes {
		for p := range node.Ports {
			r.net.SetLinkFault(node.ID, p, netsim.FaultProfile{Loss: rate})
		}
	}
}

func TestHandshake(t *testing.T) {
	r := newRig(t, 3, netsim.Config{})
	accepted := false
	r.b.Listen(80, func(c *Conn) { accepted = true })
	var dialed *Conn
	var connectedAt sim.Time
	r.a.Dial(r.b.Host.IP, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("dial error: %v", err)
			return
		}
		dialed = c
		connectedAt = r.eng.Now()
	})
	r.eng.Run()
	if dialed == nil || !accepted {
		t.Fatal("handshake incomplete")
	}
	if dialed.state != stateEstablished {
		t.Fatal("conn not established")
	}
	// Handshake costs one RTT at the dialer; sanity-bound it.
	if rtt := time.Duration(connectedAt); rtt < 50*time.Microsecond || rtt > 5*time.Millisecond {
		t.Fatalf("connect time %v outside sane range", rtt)
	}
}

func TestNewIncarnationDisplacesStaleConn(t *testing.T) {
	// A peer that evaporates without closing (under MIC: a torn-down channel
	// whose fake source address is later recycled onto a new one) leaves the
	// other side holding an established conn for the tuple. A fresh SYN on
	// that tuple must displace the stale conn, not vanish into it: the
	// server answers a challenge ACK, the dialer resets the old incarnation,
	// and the retransmitted SYN completes a clean handshake.
	r := newRig(t, 3, netsim.Config{})
	r.b.Listen(80, func(c *Conn) {})
	var first *Conn
	r.a.Dial(r.b.Host.IP, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("first dial: %v", err)
			return
		}
		first = c
	})
	r.eng.Run()
	if first == nil || first.state != stateEstablished {
		t.Fatal("first handshake incomplete")
	}
	if len(r.b.conns) != 1 {
		t.Fatalf("server holds %d conns, want 1", len(r.b.conns))
	}

	// Evaporate the dialer: forget its conn without any FIN/RST on the wire,
	// and rewind the port allocator so the next dial reuses the same tuple.
	delete(r.a.conns, first.tuple.Reverse())
	first.rtx.Stop()
	r.a.nextPort = first.tuple.SrcPort

	var second *Conn
	r.a.Dial(r.b.Host.IP, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("second dial: %v", err)
			return
		}
		second = c
	})
	r.eng.Run()
	if second == nil || second.state != stateEstablished {
		t.Fatal("second handshake did not displace the stale conn")
	}
	if second.tuple != first.tuple {
		t.Fatalf("second dial used tuple %+v, want the recycled %+v", second.tuple, first.tuple)
	}
	if len(r.b.conns) != 1 {
		t.Fatalf("server holds %d conns after displacement, want 1 (stale conn must be gone)", len(r.b.conns))
	}
}

func TestEcho(t *testing.T) {
	r := newRig(t, 3, netsim.Config{})
	r.b.Listen(7, func(c *Conn) {
		c.OnData(func(b []byte) { c.Send(b) })
	})
	var reply []byte
	r.a.Dial(r.b.Host.IP, 7, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.OnData(func(b []byte) { reply = append(reply, b...) })
		c.Send([]byte("ping pong payload"))
	})
	r.eng.Run()
	if string(reply) != "ping pong payload" {
		t.Fatalf("echo reply = %q", reply)
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i>>8)
	}
	return b
}

func TestBulkTransferIntact(t *testing.T) {
	r := newRig(t, 3, netsim.Config{})
	const size = 1 << 20
	data := pattern(size)
	var got []byte
	done := false
	r.b.Listen(9000, func(c *Conn) {
		c.OnData(func(b []byte) {
			got = append(got, b...)
		})
		c.OnClose(func() { done = true })
	})
	r.a.Dial(r.b.Host.IP, 9000, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Send(data)
		c.Close()
	})
	r.eng.Run()
	if !done {
		t.Fatal("close never arrived")
	}
	if len(got) != size {
		t.Fatalf("received %d bytes, want %d", len(got), size)
	}
	if sha256.Sum256(got) != sha256.Sum256(data) {
		t.Fatal("payload corrupted in transit")
	}
	// Throughput sanity: 1 MiB over a 1 Gb/s path should take ~10 ms of
	// virtual time (plus handshake), certainly under 200 ms.
	if el := time.Duration(r.eng.Now()); el > 200*time.Millisecond {
		t.Fatalf("transfer took %v of virtual time", el)
	}
}

func TestLossRecovery(t *testing.T) {
	// Small queues + slow link force drops; reliability must still hold.
	r := newRig(t, 2, netsim.Config{QueueCapPackets: 5, LinkBandwidthBps: 50e6})
	const size = 256 << 10
	data := pattern(size)
	var got []byte
	var sender *Conn
	r.b.Listen(9000, func(c *Conn) {
		c.OnData(func(b []byte) { got = append(got, b...) })
	})
	r.a.Dial(r.b.Host.IP, 9000, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		sender = c
		c.Send(data)
	})
	r.eng.RunUntil(sim.Time(10 * time.Second / time.Nanosecond * time.Nanosecond))
	if len(got) != size {
		t.Fatalf("received %d bytes, want %d (drops=%d)", len(got), size, r.net.Stats.Dropped)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload corrupted under loss")
	}
	if r.net.Stats.Dropped == 0 {
		t.Log("warning: no drops induced; loss path untested")
	}
	if sender.Retransmits == 0 && r.net.Stats.Dropped > 0 {
		t.Fatal("drops occurred but no retransmissions recorded")
	}
}

func TestCloseBothWays(t *testing.T) {
	r := newRig(t, 1, netsim.Config{})
	serverClosed, clientClosed := false, false
	r.b.Listen(5, func(c *Conn) {
		c.OnClose(func() {
			serverClosed = true
			c.Close() // close our side too
		})
	})
	r.a.Dial(r.b.Host.IP, 5, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.OnClose(func() { clientClosed = true })
		c.Close()
	})
	r.eng.Run()
	if !serverClosed || !clientClosed {
		t.Fatalf("close callbacks: server=%v client=%v", serverClosed, clientClosed)
	}
	if len(r.a.conns) != 0 || len(r.b.conns) != 0 {
		t.Fatalf("conn table leak: a=%d b=%d", len(r.a.conns), len(r.b.conns))
	}
}

func TestDialRefusedGetsError(t *testing.T) {
	r := newRig(t, 1, netsim.Config{})
	var dialErr error
	fired := false
	r.a.Dial(r.b.Host.IP, 81, func(c *Conn, err error) {
		fired = true
		dialErr = err
	})
	r.eng.Run()
	if !fired {
		t.Fatal("dial callback never fired")
	}
	if dialErr == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestDataBeforeCloseFlushed(t *testing.T) {
	// Close immediately after a large Send: every byte must still arrive
	// before FIN takes effect.
	r := newRig(t, 1, netsim.Config{})
	data := pattern(64 << 10)
	var got []byte
	closed := false
	r.b.Listen(5, func(c *Conn) {
		c.OnData(func(b []byte) { got = append(got, b...) })
		c.OnClose(func() { closed = true })
	})
	r.a.Dial(r.b.Host.IP, 5, func(c *Conn, err error) {
		c.Send(data)
		c.Close()
	})
	r.eng.Run()
	if !closed {
		t.Fatal("no close")
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("flush before close failed: %d/%d bytes", len(got), len(data))
	}
}

func TestConcurrentConnections(t *testing.T) {
	r := newRig(t, 3, netsim.Config{})
	const n = 8
	received := make([]int, n)
	r.b.Listen(7, func(c *Conn) {
		c.OnData(func(b []byte) { c.Send(b) })
	})
	for i := 0; i < n; i++ {
		i := i
		r.a.Dial(r.b.Host.IP, 7, func(c *Conn, err error) {
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			c.OnData(func(b []byte) { received[i] += len(b) })
			c.Send(pattern(10_000))
		})
	}
	r.eng.Run()
	for i, n := range received {
		if n != 10_000 {
			t.Fatalf("conn %d echoed %d bytes", i, n)
		}
	}
}

func TestSRTTConverges(t *testing.T) {
	r := newRig(t, 3, netsim.Config{})
	var conn *Conn
	r.b.Listen(7, func(c *Conn) { c.OnData(func(b []byte) { c.Send(b) }) })
	r.a.Dial(r.b.Host.IP, 7, func(c *Conn, err error) {
		conn = c
		c.OnData(func([]byte) {})
		for i := 0; i < 20; i++ {
			c.Send(pattern(100))
		}
	})
	r.eng.Run()
	if conn.srtt == 0 {
		t.Fatal("no RTT samples collected")
	}
	if conn.srtt > 5*time.Millisecond {
		t.Fatalf("SRTT = %v implausibly large", conn.srtt)
	}
}

// --- SSL ---

func TestSSLEcho(t *testing.T) {
	r := newRig(t, 3, netsim.Config{})
	r.b.ListenSSL(443, func(sc *SecureConn) {
		sc.OnData(func(b []byte) { sc.Send(b) })
	})
	var reply []byte
	r.a.DialSSL(r.b.Host.IP, 443, func(sc *SecureConn, err error) {
		if err != nil {
			t.Fatalf("dial ssl: %v", err)
		}
		sc.OnData(func(b []byte) { reply = append(reply, b...) })
		sc.Send([]byte("over tls"))
	})
	r.eng.Run()
	if string(reply) != "over tls" {
		t.Fatalf("ssl echo = %q", reply)
	}
}

func TestSSLBulkIntact(t *testing.T) {
	r := newRig(t, 2, netsim.Config{})
	data := pattern(300 << 10)
	var got []byte
	r.b.ListenSSL(443, func(sc *SecureConn) {
		sc.OnData(func(b []byte) { got = append(got, b...) })
	})
	r.a.DialSSL(r.b.Host.IP, 443, func(sc *SecureConn, err error) {
		if err != nil {
			t.Fatalf("dial ssl: %v", err)
		}
		sc.Send(data)
	})
	r.eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatalf("ssl bulk corrupted: %d/%d", len(got), len(data))
	}
}

func TestSSLWireIsCiphertext(t *testing.T) {
	r := newRig(t, 1, netsim.Config{})
	secret := []byte("EXTREMELY-SECRET-TOKEN-0123456789")
	r.b.ListenSSL(443, func(sc *SecureConn) { sc.OnData(func([]byte) {}) })
	leaked := false
	r.net.AddTap(r.graph.Switches()[0], func(ev netsim.TapEvent) {
		if bytes.Contains(ev.Pkt.Payload, secret) {
			leaked = true
		}
	})
	r.a.DialSSL(r.b.Host.IP, 443, func(sc *SecureConn, err error) {
		if err != nil {
			t.Fatalf("dial ssl: %v", err)
		}
		sc.Send(secret)
	})
	r.eng.Run()
	if leaked {
		t.Fatal("plaintext observed on the wire")
	}
}

func TestSSLChargesCryptoCPU(t *testing.T) {
	r := newRig(t, 1, netsim.Config{})
	r.b.ListenSSL(443, func(sc *SecureConn) { sc.OnData(func([]byte) {}) })
	r.a.DialSSL(r.b.Host.IP, 443, func(sc *SecureConn, err error) {
		sc.Send(pattern(100_000))
	})
	r.eng.Run()
	got := r.net.CPU.Category("crypto")
	wantAtLeast := sslHandshakeServerCost + 2*sslHandshakeClientCost
	if got < wantAtLeast {
		t.Fatalf("crypto CPU = %v, want >= %v", got, wantAtLeast)
	}
}

func TestSSLHandshakeSlowerThanTCP(t *testing.T) {
	cfgs := []func(r *rig, done func()){
		func(r *rig, done func()) {
			r.b.Listen(80, func(c *Conn) {})
			r.a.Dial(r.b.Host.IP, 80, func(c *Conn, err error) { done() })
		},
		func(r *rig, done func()) {
			r.b.ListenSSL(443, func(sc *SecureConn) {})
			r.a.DialSSL(r.b.Host.IP, 443, func(sc *SecureConn, err error) { done() })
		},
	}
	var times [2]time.Duration
	for i, setup := range cfgs {
		r := newRig(t, 3, netsim.Config{})
		setup(r, func() { times[i] = time.Duration(r.eng.Now()) })
		r.eng.Run()
		if times[i] == 0 {
			t.Fatalf("setup %d never completed", i)
		}
	}
	if times[1] <= times[0] {
		t.Fatalf("SSL setup (%v) not slower than TCP (%v)", times[1], times[0])
	}
}

func TestRecordFraming(t *testing.T) {
	rec := frameRecord(recordTypeData, []byte("abc"))
	var q bytequeue.Queue
	// Partial buffers must not yield a record.
	q.Append(rec[:2])
	if _, _, ok := splitRecord(&q); ok {
		t.Fatal("partial header yielded a record")
	}
	q.Append(rec[2 : len(rec)-1])
	if _, _, ok := splitRecord(&q); ok {
		t.Fatal("partial payload yielded a record")
	}
	// Two records back-to-back.
	q.Append(rec[len(rec)-1:])
	q.Append(frameRecord(recordTypeHandshake, []byte("xy")))
	typ, payload, ok := splitRecord(&q)
	if !ok || typ != recordTypeData || string(payload) != "abc" {
		t.Fatalf("framing round trip failed: %v %q %v", typ, payload, ok)
	}
	q.PopFront(sslRecordHeaderLen + len(payload))
	typ, payload, ok = splitRecord(&q)
	if !ok || typ != recordTypeHandshake || string(payload) != "xy" || q.Len() != sslRecordHeaderLen+2 {
		t.Fatal("second record failed")
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqLT(0xfffffff0, 0x10) {
		t.Fatal("wraparound compare failed")
	}
	if seqLT(0x10, 0xfffffff0) {
		t.Fatal("wraparound compare inverted")
	}
	if !seqLE(5, 5) || !seqLE(4, 5) || seqLE(6, 5) {
		t.Fatal("seqLE broken")
	}
}

func BenchmarkBulkTransfer1MB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _ := topo.Linear(3)
		eng := sim.New()
		net := netsim.New(eng, g, netsim.Config{})
		router := &ctrlplane.ProactiveRouter{CFLabel: 777}
		if _, err := router.Install(net); err != nil {
			b.Fatal(err)
		}
		sa := NewStack(net.Host(g.Hosts()[0]))
		sb := NewStack(net.Host(g.Hosts()[1]))
		total := 0
		sb.Listen(9, func(c *Conn) { c.OnData(func(p []byte) { total += len(p) }) })
		sa.Dial(sb.Host.IP, 9, func(c *Conn, err error) { c.Send(pattern(1 << 20)) })
		eng.Run()
		if total != 1<<20 {
			b.Fatalf("delivered %d", total)
		}
	}
}

func TestBulkUnderRandomLoss(t *testing.T) {
	// 0.5% uniform frame loss on every link: reliability must still hold.
	r := newRig(t, 3, netsim.Config{Seed: 42})
	r.uniformLoss(0.005)
	data := pattern(512 << 10)
	var got []byte
	r.b.Listen(9000, func(c *Conn) {
		c.OnData(func(b []byte) { got = append(got, b...) })
	})
	var sender *Conn
	r.a.Dial(r.b.Host.IP, 9000, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		sender = c
		c.Send(data)
	})
	r.eng.RunUntil(sim.Time(30 * time.Second))
	if !bytes.Equal(got, data) {
		t.Fatalf("loss broke reliability: %d/%d bytes (drops=%d)", len(got), len(data), r.net.Stats.Dropped)
	}
	if r.net.Stats.Dropped == 0 {
		t.Fatal("loss injection inactive")
	}
	if sender.Retransmits == 0 {
		t.Fatal("no retransmissions despite injected loss")
	}
}

func TestSSLUnderRandomLoss(t *testing.T) {
	r := newRig(t, 2, netsim.Config{Seed: 7})
	r.uniformLoss(0.003)
	data := pattern(128 << 10)
	var got []byte
	r.b.ListenSSL(443, func(sc *SecureConn) {
		sc.OnData(func(b []byte) { got = append(got, b...) })
	})
	r.a.DialSSL(r.b.Host.IP, 443, func(sc *SecureConn, err error) {
		if err != nil {
			t.Fatalf("dial ssl: %v", err)
		}
		sc.Send(data)
	})
	r.eng.RunUntil(sim.Time(30 * time.Second))
	if !bytes.Equal(got, data) {
		t.Fatalf("SSL under loss corrupted: %d/%d", len(got), len(data))
	}
}

func TestHandshakeRetriesUnderHeavyLoss(t *testing.T) {
	// 20% loss: the SYN will likely need retransmission but must converge
	// (deterministically, given the seed).
	r := newRig(t, 1, netsim.Config{Seed: 99})
	r.uniformLoss(0.2)
	connected := false
	r.b.Listen(80, func(c *Conn) {})
	r.a.Dial(r.b.Host.IP, 80, func(c *Conn, err error) {
		connected = err == nil
	})
	r.eng.RunUntil(sim.Time(120 * time.Second))
	if !connected {
		t.Fatal("handshake never completed under 20% loss")
	}
}

// TestRoundTripAllocsNothing: on a warmed connection pair, a 64-byte request
// and its echo cost no allocation anywhere on the path — the segments, the
// hops, the send buffers and the retransmission timers of both ends.
func TestRoundTripAllocsNothing(t *testing.T) {
	r := newRig(t, 3, netsim.Config{})
	r.b.Listen(7, func(c *Conn) { c.OnData(func(b []byte) { c.Send(b) }) })
	var client *Conn
	echoed := 0
	r.a.Dial(r.b.Host.IP, 7, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		client = c
		c.OnData(func(b []byte) { echoed += len(b) })
	})
	r.eng.Run()
	req := pattern(64)
	roundTrip := func() {
		client.Send(req)
		r.eng.Run()
	}
	for i := 0; i < 16; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("a 64-byte round trip allocates %v times, want 0", allocs)
	}
	if echoed != 64*(16+201) {
		t.Fatalf("echoed %d bytes, want %d", echoed, 64*(16+201))
	}
}

// TestGoBackNTimeoutLeavesOneArming: a timeout that rewinds the flight
// leaves exactly one live arming of the retransmission timer, and it expires
// once, one backed-off RTO later.
func TestGoBackNTimeoutLeavesOneArming(t *testing.T) {
	r := newRig(t, 3, netsim.Config{})
	r.b.Listen(9000, func(c *Conn) { c.OnData(func([]byte) {}) })
	var sender *Conn
	r.a.Dial(r.b.Host.IP, 9000, func(c *Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		sender = c
	})
	r.eng.Run()
	sws := r.graph.Switches()
	r.net.SetLinkDown(sws[0], r.graph.PortTo(sws[0], sws[1]), true)
	sender.Send(pattern(4 * MSS))
	for sender.Retransmits == 0 && r.eng.Step() {
	}
	st := sender.Stats()
	if sender.Retransmits != 1 || !st.TimerArmed || st.InFlight == 0 {
		t.Fatalf("after the first timeout: retransmits %d, stats %+v; want 1 retransmit, a flight out and the timer armed", sender.Retransmits, st)
	}
	expiry := r.eng.Now().Add(st.RTO)
	r.eng.RunUntil(expiry - 1)
	if sender.Retransmits != 1 {
		t.Fatalf("retransmits %d before the backed-off RTO elapsed, want 1", sender.Retransmits)
	}
	r.eng.RunUntil(expiry)
	if st := sender.Stats(); sender.Retransmits != 2 || !st.TimerArmed || st.RTO != 4*initialRTO {
		t.Fatalf("at the backed-off RTO: retransmits %d, stats %+v; want 2, armed, RTO %v", sender.Retransmits, st, 4*initialRTO)
	}
}
