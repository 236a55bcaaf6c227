package packet

import (
	"testing"

	"mic/internal/addr"
)

func TestPoolReusesPacketAndBuffers(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	p.SetPayload(make([]byte, 1500))
	p.PushMPLS(42)
	p.Release()

	q := pl.Get()
	if q != p {
		t.Fatalf("Get after Release returned a different packet")
	}
	if pl.News != 1 || pl.Gets != 2 || pl.Puts != 1 {
		t.Fatalf("stats = news %d gets %d puts %d, want 1/2/1", pl.News, pl.Gets, pl.Puts)
	}
	if len(q.MPLS) != 0 || len(q.Payload) != 0 {
		t.Fatalf("recycled packet not reset: %v", q)
	}
	if cap(q.buf) < 1500 {
		t.Fatalf("payload backing store not reused: cap=%d", cap(q.buf))
	}
	// The reused buffer must serve a new payload without allocating.
	seg := make([]byte, 1460)
	allocs := testing.AllocsPerRun(100, func() {
		q.SetPayload(seg)
	})
	if allocs != 0 {
		t.Fatalf("SetPayload into recycled buffer allocated %v times", allocs)
	}
}

func TestPoolSteadyStateAllocFree(t *testing.T) {
	pl := NewPool()
	seg := make([]byte, 1000)
	// Warm up so the free list holds a packet with enough capacity.
	pl.Get().Release()
	allocs := testing.AllocsPerRun(1000, func() {
		p := pl.Get()
		p.SetPayload(seg)
		p.PushMPLS(7)
		p.SetSrcIP(addr.IP(0x0a000001))
		_ = p.Key()
		p.Release()
	})
	if allocs > 0 {
		t.Fatalf("steady-state get/rewrite/release allocated %v times per run, want 0", allocs)
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("double Release did not panic")
		}
	}()
	p.Release()
}

func TestPoolDebugDetectsUseAfterRelease(t *testing.T) {
	pl := NewPool()
	pl.SetDebug(true)
	p := pl.Get()
	p.SetPayload([]byte("hello"))
	stale := p.Payload // handler wrongly retains the payload past handoff
	p.Release()
	stale[0] = 'X' // write-after-release
	defer func() {
		if recover() == nil {
			t.Fatalf("poison check did not detect write after Release")
		}
	}()
	pl.Get()
}

func TestReleaseNoOpForUnpooledPackets(t *testing.T) {
	p := samplePacket()
	p.Release() // must not panic
	p.Release()

	pl := NewPool()
	q := pl.Get()
	c := q.Clone()
	q.Release()
	c.Release() // clones are never pool-owned
	if pl.Puts != 1 {
		t.Fatalf("clone Release reached the pool: puts=%d", pl.Puts)
	}
}

func TestSetPayloadCopies(t *testing.T) {
	p := &Packet{}
	src := []byte{1, 2, 3}
	p.SetPayload(src)
	src[0] = 99
	if p.Payload[0] != 1 {
		t.Fatalf("SetPayload aliased the caller's buffer")
	}
}

func TestKeyCacheInvalidation(t *testing.T) {
	p := samplePacket() // carries MPLS [1234, 567]
	k := p.Key()
	if k.Label != 1234 {
		t.Fatalf("Key label = %d, want 1234", k.Label)
	}
	if got := p.Key(); got != k {
		t.Fatalf("cached Key changed with no mutation: %v vs %v", got, k)
	}

	p.SetTopMPLS(99)
	if got := p.Key().Label; got != 99 {
		t.Fatalf("Key after SetTopMPLS = %d, want 99", got)
	}
	p.PopMPLS()
	if got := p.Key().Label; got != 567 {
		t.Fatalf("Key after PopMPLS = %d, want 567", got)
	}
	p.PopMPLS()
	if got := p.Key().Label; got != NoLabel {
		t.Fatalf("Key after emptying stack = %d, want NoLabel", got)
	}
	p.PushMPLS(7)
	if got := p.Key().Label; got != 7 {
		t.Fatalf("Key after PushMPLS = %d, want 7", got)
	}

	ip := addr.V4(192, 168, 1, 1)
	p.SetSrcIP(ip)
	if got := p.Key().SrcIP; got != ip {
		t.Fatalf("Key after SetSrcIP = %v, want %v", got, ip)
	}
	p.SetDstIP(ip)
	if got := p.Key().DstIP; got != ip {
		t.Fatalf("Key after SetDstIP = %v, want %v", got, ip)
	}
}

func TestMPLSOpsReuseCapacity(t *testing.T) {
	p := &Packet{}
	p.PushMPLS(1) // allocates with headroom
	allocs := testing.AllocsPerRun(100, func() {
		p.PushMPLS(2)
		p.PushMPLS(3)
		p.PopMPLS()
		p.PopMPLS()
	})
	if allocs != 0 {
		t.Fatalf("push/pop within headroom allocated %v times", allocs)
	}
	if l, ok := p.TopMPLS(); !ok || l != 1 {
		t.Fatalf("stack corrupted by in-place ops: %v", p.MPLS)
	}
}

func TestPushPopOrdering(t *testing.T) {
	p := &Packet{}
	p.PushMPLS(1)
	p.PushMPLS(2)
	p.PushMPLS(3)
	for _, want := range []addr.Label{3, 2, 1} {
		l, ok := p.PopMPLS()
		if !ok || l != want {
			t.Fatalf("PopMPLS = %d,%v want %d", l, ok, want)
		}
	}
	if _, ok := p.PopMPLS(); ok {
		t.Fatalf("PopMPLS on empty stack returned ok")
	}
}
