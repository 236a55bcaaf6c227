package transport

import (
	"testing"

	"mic/internal/netsim"
)

// TestPooledForwardingLifecycle pushes a lossy bulk transfer through the
// fabric with the pool's use-after-release guard armed (newRig enables
// PoolDebug) and checks the packet lifecycle end to end: frames drawn from
// the pool at the sender, handed hop to hop without cloning, and released
// exactly once at their sink — delivery, queue drop, or injected loss. Any
// double release panics; any retained payload written after release trips
// the poison check on the next Get.
func TestPooledForwardingLifecycle(t *testing.T) {
	r := newRig(t, 3, netsim.Config{
		QueueCapPackets: 8,
		FaultSeed:       7,
	})
	r.uniformLoss(0.02)
	const total = 256 * 1024
	var got int
	r.b.Listen(80, func(c *Conn) {
		c.OnData(func(b []byte) { got += len(b) })
	})
	buf := make([]byte, 4096)
	r.a.Dial(r.b.Host.IP, 80, func(c *Conn, err error) {
		if err != nil {
			t.Errorf("dial error: %v", err)
			return
		}
		for sent := 0; sent < total; sent += len(buf) {
			c.Send(buf)
		}
	})
	r.eng.Run()
	if got != total {
		t.Fatalf("delivered %d bytes, want %d", got, total)
	}

	pool := r.net.PacketPool()
	if pool.Gets == 0 {
		t.Fatal("transport did not draw packets from the pool")
	}
	if pool.Puts == 0 {
		t.Fatal("no packet was ever released back to the pool")
	}
	// Steady state must recycle: far more packets flow than are allocated.
	if pool.News*4 > pool.Gets {
		t.Fatalf("pool barely reused: %d fresh allocations over %d gets", pool.News, pool.Gets)
	}
}
