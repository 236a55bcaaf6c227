package transport

import (
	"bytes"
	"testing"
	"time"

	"mic/internal/netsim"
	"mic/internal/sim"
)

// TestRetransmitConvergenceTable runs one bulk transfer per loss tier over a
// single faulted switch-switch hop and checks that the sender converges —
// fast retransmit at light loss, RTO recovery at heavy loss — inside a
// loss-scaled virtual-time budget, and that the ConnStats retransmit counter
// is accurate: it matches the live counter, and it never exceeds the frames
// the fabric actually destroyed (every counted recovery event is provoked by
// at least one real drop).
func TestRetransmitConvergenceTable(t *testing.T) {
	cases := []struct {
		name   string
		loss   float64
		size   int
		budget time.Duration // virtual-time convergence bound
	}{
		// 1 MiB at 1% loss: fast retransmit keeps the pipe mostly full.
		{"loss1pct", 0.01, 1 << 20, 10 * time.Second},
		// 5%: a mix of fast retransmits and RTO rewinds.
		{"loss5pct", 0.05, 256 << 10, 30 * time.Second},
		// 20%: survival mode — repeated RTO backoff must still converge.
		{"loss20pct", 0.20, 64 << 10, 120 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 3, netsim.Config{Seed: 1234})
			// Fault one interior hop with a per-link profile: handshake,
			// data and acks all cross it in both directions.
			sws := r.graph.Switches()
			r.net.SetLinkFault(sws[0], r.graph.PortTo(sws[0], sws[1]),
				netsim.FaultProfile{Loss: tc.loss})

			data := pattern(tc.size)
			var got []byte
			var doneAt sim.Time
			r.b.Listen(9000, func(c *Conn) {
				c.OnData(func(b []byte) {
					got = append(got, b...)
					if len(got) >= len(data) && doneAt == 0 {
						doneAt = r.eng.Now()
					}
				})
			})
			var sender *Conn
			r.a.Dial(r.b.Host.IP, 9000, func(c *Conn, err error) {
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				sender = c
				c.Send(data)
			})
			r.eng.RunUntil(sim.Time(tc.budget))

			if !bytes.Equal(got, data) {
				t.Fatalf("did not converge in %v: %d/%d bytes (drops=%d)",
					tc.budget, len(got), len(data), r.net.Stats.Dropped)
			}
			if r.net.Stats.LostFault == 0 {
				t.Fatal("fault profile injected no loss")
			}
			st := sender.Stats()
			if st.Retransmits == 0 {
				t.Fatal("transfer converged without a single counted retransmission")
			}
			if st.Retransmits != sender.Retransmits {
				t.Fatalf("ConnStats snapshot (%d) disagrees with live counter (%d)",
					st.Retransmits, sender.Retransmits)
			}
			if st.Retransmits > int64(r.net.Stats.Dropped) {
				t.Fatalf("counted %d retransmission events but the fabric only dropped %d frames",
					st.Retransmits, r.net.Stats.Dropped)
			}
			if st.InFlight != 0 || st.Unsent != 0 {
				t.Fatalf("sender not drained after convergence: inflight=%d unsent=%d",
					st.InFlight, st.Unsent)
			}
			t.Logf("%s: %d bytes in %v, %d retransmit events, %d frames lost",
				tc.name, len(got), time.Duration(doneAt), st.Retransmits, r.net.Stats.LostFault)
		})
	}
}

// TestRetransmitCounterAccountsEveryRecovery pins the counter semantics on a
// surgical schedule: exactly one frame is lost (a 100% loss profile applied
// for a single in-flight window, then cleared), so exactly one recovery event
// — fast retransmit or one RTO — must be counted, not zero and not a storm.
func TestRetransmitCounterAccountsEveryRecovery(t *testing.T) {
	r := newRig(t, 3, netsim.Config{Seed: 7})
	sws := r.graph.Switches()
	port := r.graph.PortTo(sws[0], sws[1])

	data := pattern(256 << 10)
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
	// Black-hole the hop for a sliver of the transfer, then heal it. The
	// window is shorter than the initial RTO, so at most a handful of
	// recovery events can be provoked.
	r.eng.At(sim.Time(2*time.Millisecond), func() {
		r.net.SetLinkFault(sws[0], port, netsim.FaultProfile{Loss: 1})
	})
	r.eng.At(sim.Time(2500*time.Microsecond), func() {
		r.net.ClearLinkFault(sws[0], port)
	})
	r.eng.RunUntil(sim.Time(30 * time.Second))

	if !bytes.Equal(got, data) {
		t.Fatalf("transfer broken: %d/%d bytes", len(got), len(data))
	}
	lost := r.net.Stats.LostFault
	if lost == 0 {
		t.Fatal("black-hole window destroyed nothing; schedule mistimed")
	}
	retx := sender.Stats().Retransmits
	if retx == 0 {
		t.Fatalf("%d frames destroyed but no recovery event counted", lost)
	}
	// Go-back-N coalesces an entire hole run into few events: one fast
	// retransmit and/or a short RTO backoff chain. A counter that ticked
	// per duplicate ack or per resent frame would blow well past this.
	if retx > 10 {
		t.Fatalf("counter inflated: %d events for one %d-frame hole", retx, lost)
	}
}
