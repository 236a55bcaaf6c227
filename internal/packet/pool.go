package packet

import "fmt"

// Pool recycles Packets together with their payload and MPLS backing storage
// so the steady-state forwarding path allocates nothing: a packet drawn from
// the pool, rewritten in place at each hop and released at its sink reuses
// the same three allocations for its whole lifetime, and the next packet
// reuses them again.
//
// Ownership contract: a pooled packet belongs to whoever holds it; Release
// hands it back to the pool, after which the holder (and anyone it showed the
// packet to) must not touch it or its payload again. Components that need to
// retain data past the handoff must Clone the packet (clones are never
// pool-owned) or copy the bytes out (or Retain the PayloadSpan's chunk).
// Release on a non-pooled packet is a no-op, so sinks can release
// unconditionally. A payload that aliases a chunk is not the packet's:
// Release drops the packet's reference on it, and the debug poisoning
// covers only the packet's own buffer (the chunk pool poisons chunks).
//
// Pools are not safe for concurrent use; each Network owns one, matching the
// engine's single-threaded event loop.
type Pool struct {
	free  []*Packet
	debug bool

	// Stats, exported for tests asserting reuse.
	Gets uint64 // packets handed out
	News uint64 // Gets that had to allocate a fresh Packet
	Puts uint64 // packets returned
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// maxFree caps the free list so a transient burst doesn't pin memory forever.
const maxFree = 4096

// poison fills released payload storage in debug mode; Get verifies it is
// intact, so any write through a stale payload slice retained past Release
// is detected at the next allocation.
const poison = 0xA5

// SetDebug toggles use-after-release detection: Put poisons the payload
// buffer and Get panics if the poison was disturbed while the packet sat on
// the free list. Meant for tests; the checks are O(payload) per cycle.
func (pl *Pool) SetDebug(on bool) { pl.debug = on }

// Get returns a zeroed pool-owned packet, reusing a released one (and its
// payload/MPLS storage) when available.
func (pl *Pool) Get() *Packet {
	pl.Gets++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		if pl.debug {
			pl.checkPoison(p)
		}
		mpls := p.MPLS[:0]
		buf := p.buf[:0]
		*p = Packet{MPLS: mpls, buf: buf, pool: pl}
		return p
	}
	pl.News++
	return &Packet{pool: pl}
}

// put returns p to the free list. Packet.Release is the public entry point.
func (pl *Pool) put(p *Packet) {
	if p.released {
		panic(fmt.Sprintf("packet: double Release of %v", p))
	}
	pl.Puts++
	p.released = true
	p.Payload = nil
	if p.chunk != nil {
		p.chunk.Release()
		p.chunk = nil
	}
	if pl.debug {
		b := p.buf[:cap(p.buf)]
		for i := range b {
			b[i] = poison
		}
	}
	if len(pl.free) < maxFree {
		pl.free = append(pl.free, p)
	}
}

func (pl *Pool) checkPoison(p *Packet) {
	b := p.buf[:cap(p.buf)]
	for i, c := range b {
		if c != poison {
			panic(fmt.Sprintf("packet: use after Release: payload byte %d was overwritten while the packet sat on the free list", i))
		}
	}
}

// Release returns a pooled packet to its pool. It is a no-op for packets
// built directly (struct literals, Clone, Unmarshal), so code on the packet
// sink path can release unconditionally.
func (p *Packet) Release() {
	if p.pool != nil {
		p.pool.put(p)
	}
}
