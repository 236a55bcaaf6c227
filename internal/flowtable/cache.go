package flowtable

import (
	"mic/internal/addr"
	"mic/internal/packet"
)

// microKey is the exact-match microflow cache key: the packet.FlowKey and
// in-port the fast path is keyed on, widened with every other field a Match
// may constrain so a cached result can never disagree with the classifier
// regardless of which fields installed rules inspect.
type microKey struct {
	key    packet.FlowKey
	inPort int
	ethSrc addr.MAC
	ethDst addr.MAC
	proto  uint8
	tpSrc  uint16
	tpDst  uint16
}

// microKeyOf projects the packet onto the microflow cache key.
func microKeyOf(p *packet.Packet, inPort int) microKey {
	return microKey{
		key:    p.Key(),
		inPort: inPort,
		ethSrc: p.SrcMAC,
		ethDst: p.DstMAC,
		proto:  p.Proto,
		tpSrc:  p.SrcPort,
		tpDst:  p.DstPort,
	}
}

func (k *microKey) hash() uint64 {
	return hash4(
		uint64(k.key.SrcIP)<<32|uint64(k.key.DstIP),
		uint64(k.ethSrc)^uint64(k.tpSrc)<<48,
		uint64(k.ethDst)^uint64(k.tpDst)<<48,
		uint64(k.key.Label)^uint64(k.proto)<<32^uint64(k.inPort)<<40,
	)
}

// microCap bounds the microflow cache; when full it is reset wholesale
// rather than evicted piecemeal (OVS similarly sizes its cache and relies on
// cheap re-population from the classifier).
const microCap = 8192

// microSlot is one cached lookup result, valid only while gen equals the
// table's current generation. A nil e marks the slot empty.
type microSlot struct {
	key microKey
	e   *Entry
	gen uint64
}

// microCache is the microflow cache: an open-addressed table, linear
// probing, that starts with no slots — an idle switch's cache costs nothing —
// and doubles at half load. Nothing is ever deleted from it but everything at
// once, so probing needs no tombstones. Its observable rule: a key hits iff
// it was stored since the last wholesale clear and its generation is current;
// the clear fires when a store finds microCap distinct keys held.
type microCache struct {
	slots []microSlot // power-of-two length, or none
	n     int         // keys held, of any generation
}

// get returns the entry cached under k (hash h) if its generation is gen.
func (c *microCache) get(h uint64, k *microKey, gen uint64) *Entry {
	if len(c.slots) == 0 {
		return nil
	}
	if s := c.slot(h, k); s.e != nil && s.gen == gen {
		return s.e
	}
	return nil
}

// put caches e under k (hash h) at generation gen.
func (c *microCache) put(h uint64, k *microKey, e *Entry, gen uint64) {
	if c.n >= microCap {
		clear(c.slots)
		c.n = 0
	}
	if c.n*2 >= len(c.slots) {
		c.grow()
	}
	s := c.slot(h, k)
	if s.e == nil {
		s.key = *k
		c.n++
	}
	s.e, s.gen = e, gen
}

// slot returns the slot holding k, or the empty one it would go in.
func (c *microCache) slot(h uint64, k *microKey) *microSlot {
	mask := uint64(len(c.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if s := &c.slots[i]; s.e == nil || s.key == *k {
			return s
		}
	}
}

func (c *microCache) grow() {
	old := c.slots
	c.slots = make([]microSlot, max(2*len(old), 8))
	for i := range old {
		if s := &old[i]; s.e != nil {
			*c.slot(s.key.hash(), &s.key) = *s
		}
	}
}
