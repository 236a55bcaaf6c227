// Package packet models the frames that traverse the simulated data center
// network: an Ethernet header, an optional MPLS label stack, an IPv4 header
// and a TCP-like transport header, plus an opaque payload.
//
// The layout mirrors what MIC manipulates on real switches: Mimic Nodes
// rewrite MAC/IP/port fields and push, set or pop MPLS labels; everything
// else rides along untouched. Packets serialize to a compact wire format so
// tests can assert that header rewriting never corrupts adjacent fields.
package packet

import (
	"encoding/binary"
	"fmt"

	"mic/internal/addr"
)

// EtherType values used by the simulator.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeMPLS uint16 = 0x8847
)

// TCP-style flag bits.
const (
	FlagSYN uint8 = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
	FlagPSH
)

// Header byte sizes on the wire.
const (
	EthHeaderLen  = 14
	MPLSEntryLen  = 4
	IPv4HeaderLen = 20
	L4HeaderLen   = 20
)

// Packet is one frame. Fields are exported for direct manipulation by the
// data plane; use Clone before mutating a packet that another component may
// still observe (e.g. multicast replication).
//
// The fields a FlowKey derives from (SrcIP, DstIP and the MPLS stack) must
// be mutated through SetSrcIP/SetDstIP and the MPLS methods once the packet
// is in flight, so the cached key stays coherent; everything else may be
// written directly.
type Packet struct {
	// Ethernet
	SrcMAC, DstMAC addr.MAC

	// MPLS label stack, outermost first. Empty means no MPLS headers.
	// Mutate via PushMPLS/PopMPLS/SetTopMPLS, which keep the cached FlowKey
	// coherent and reuse the stack's backing storage.
	MPLS []addr.Label

	// IPv4
	SrcIP, DstIP addr.IP
	Proto        uint8
	TTL          uint8

	// Transport (TCP-like)
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16

	Payload []byte

	// key caches the FlowKey so repeated per-hop lookups don't recompute it;
	// keyOK marks it valid. Mutating SrcIP/DstIP/MPLS through the setter
	// methods invalidates the cache.
	key   FlowKey
	keyOK bool

	// buf is the pool-owned payload backing store; SetPayload copies into it
	// so the payload's lifetime is tied to the packet, not to the caller's
	// buffer. pool/released implement the free list (pool.go).
	buf      []byte
	pool     *Pool
	released bool
}

// ProtoTCP is TCP's IP protocol number.
const ProtoTCP uint8 = 6

// WireLen returns the frame's size in bytes as it would appear on a link.
func (p *Packet) WireLen() int {
	return EthHeaderLen + MPLSEntryLen*len(p.MPLS) + IPv4HeaderLen + L4HeaderLen + len(p.Payload)
}

// Clone returns a deep copy of p. The payload bytes are copied too, so the
// clone can be rewritten independently (needed for partial multicast).
// Clones are never pool-owned, regardless of p's provenance.
func (p *Packet) Clone() *Packet {
	q := *p
	q.pool = nil
	q.released = false
	q.buf = nil
	if len(p.MPLS) > 0 {
		q.MPLS = append([]addr.Label(nil), p.MPLS...)
	} else {
		// Drop the copied slice header: an empty stack can still have
		// capacity, and a later PushMPLS on either packet would write
		// into the shared backing array.
		q.MPLS = nil
	}
	if len(p.Payload) > 0 {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return &q
}

// SetSrcIP rewrites the source address, invalidating the cached FlowKey.
func (p *Packet) SetSrcIP(ip addr.IP) {
	p.SrcIP = ip
	p.keyOK = false
}

// SetDstIP rewrites the destination address, invalidating the cached
// FlowKey.
func (p *Packet) SetDstIP(ip addr.IP) {
	p.DstIP = ip
	p.keyOK = false
}

// SetPayload copies b into the packet's own backing buffer (pool-owned for
// pooled packets), so the caller's slice is not aliased and may be reused
// immediately.
func (p *Packet) SetPayload(b []byte) { p.SetPayloadSpans(b, nil) }

// SetPayloadSpans is SetPayload for a payload held in two pieces — a ring
// buffer's live bytes across its wrap: the packet carries a followed by b.
func (p *Packet) SetPayloadSpans(a, b []byte) {
	n := len(a) + len(b)
	if cap(p.buf) < n {
		p.buf = make([]byte, n)
	}
	p.buf = p.buf[:n]
	copy(p.buf[copy(p.buf, a):], b)
	p.Payload = p.buf
}

// mplsHeadroom is the spare label capacity allocated when a stack grows, so
// the push at the next MN reuses it instead of allocating.
const mplsHeadroom = 4

// PushMPLS prepends a label to the stack, reusing spare capacity when the
// backing array has room.
func (p *Packet) PushMPLS(l addr.Label) {
	p.keyOK = false
	n := len(p.MPLS)
	if cap(p.MPLS) > n {
		p.MPLS = p.MPLS[: n+1 : cap(p.MPLS)]
		copy(p.MPLS[1:], p.MPLS[:n])
		p.MPLS[0] = l
		return
	}
	ns := make([]addr.Label, n+1, n+1+mplsHeadroom)
	ns[0] = l
	copy(ns[1:], p.MPLS)
	p.MPLS = ns
}

// PopMPLS removes and returns the outermost label. ok is false if the stack
// is empty. The stack shifts left in place so its capacity survives for the
// next push.
func (p *Packet) PopMPLS() (l addr.Label, ok bool) {
	if len(p.MPLS) == 0 {
		return 0, false
	}
	p.keyOK = false
	l = p.MPLS[0]
	copy(p.MPLS, p.MPLS[1:])
	p.MPLS = p.MPLS[:len(p.MPLS)-1]
	return l, true
}

// SetTopMPLS rewrites the outermost label in place, pushing if the stack is
// empty (permissive software-switch behaviour).
func (p *Packet) SetTopMPLS(l addr.Label) {
	if len(p.MPLS) == 0 {
		p.PushMPLS(l)
		return
	}
	p.keyOK = false
	p.MPLS[0] = l
}

// TopMPLS returns the outermost label without removing it.
func (p *Packet) TopMPLS() (l addr.Label, ok bool) {
	if len(p.MPLS) == 0 {
		return 0, false
	}
	return p.MPLS[0], true
}

// String summarizes the frame for logs and test failures.
func (p *Packet) String() string {
	m := ""
	if len(p.MPLS) > 0 {
		m = fmt.Sprintf(" mpls%v", p.MPLS)
	}
	return fmt.Sprintf("[%v->%v%s %v:%d->%v:%d seq=%d ack=%d fl=%02x len=%d]",
		p.SrcMAC, p.DstMAC, m, p.SrcIP, p.SrcPort, p.DstIP, p.DstPort, p.Seq, p.Ack, p.Flags, len(p.Payload))
}

// FlowKey identifies a flow at a switch by the three-tuple the paper uses:
// source IP, destination IP and the outermost MPLS label (NoLabel when the
// packet carries none). Two packets with equal FlowKeys are indistinguishable
// to the routing match logic, which is exactly the collision condition the
// paper's Collision Avoidance Mechanism must prevent.
type FlowKey struct {
	SrcIP, DstIP addr.IP
	Label        addr.Label
}

// NoLabel marks the absence of an MPLS header in a FlowKey. It is outside
// the valid 20-bit label range.
const NoLabel addr.Label = 1 << 20

// Key extracts the packet's FlowKey. The key is computed once and cached on
// the packet; SetSrcIP/SetDstIP and the MPLS mutators invalidate it, so the
// per-hop lookups of a packet traversing its route pay for the derivation
// only after a rewrite.
func (p *Packet) Key() FlowKey {
	if !p.keyOK {
		p.key = FlowKey{SrcIP: p.SrcIP, DstIP: p.DstIP, Label: NoLabel}
		if len(p.MPLS) > 0 {
			p.key.Label = p.MPLS[0]
		}
		p.keyOK = true
	}
	return p.key
}

// FiveTuple identifies a transport connection end to end.
type FiveTuple struct {
	SrcIP, DstIP     addr.IP
	SrcPort, DstPort uint16
	Proto            uint8
}

// Tuple extracts the packet's FiveTuple.
func (p *Packet) Tuple() FiveTuple {
	return FiveTuple{SrcIP: p.SrcIP, DstIP: p.DstIP, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// Reverse returns the tuple with endpoints swapped, i.e. the key of packets
// flowing the other way on the same connection.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{SrcIP: t.DstIP, DstIP: t.SrcIP, SrcPort: t.DstPort, DstPort: t.SrcPort, Proto: t.Proto}
}

// Marshal serializes the frame to its wire format.
func (p *Packet) Marshal() []byte {
	buf := make([]byte, 0, p.WireLen())
	src, dst := p.SrcMAC.Bytes(), p.DstMAC.Bytes()
	buf = append(buf, dst[:]...)
	buf = append(buf, src[:]...)
	ethType := EtherTypeIPv4
	if len(p.MPLS) > 0 {
		ethType = EtherTypeMPLS
	}
	buf = binary.BigEndian.AppendUint16(buf, ethType)
	for i, l := range p.MPLS {
		entry := uint32(l) << 12 // label[31:12] tc[11:9] s[8] ttl[7:0]
		if i == len(p.MPLS)-1 {
			entry |= 1 << 8 // bottom of stack
		}
		entry |= uint32(p.TTL)
		buf = binary.BigEndian.AppendUint32(buf, entry)
	}
	buf = append(buf, 0x45, 0) // version+IHL, DSCP
	buf = binary.BigEndian.AppendUint16(buf, uint16(IPv4HeaderLen+L4HeaderLen+len(p.Payload)))
	buf = append(buf, 0, 0, 0, 0) // ID, flags+fragment offset
	buf = append(buf, p.TTL, p.Proto, 0, 0)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.SrcIP))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.DstIP))
	buf = binary.BigEndian.AppendUint16(buf, p.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, p.DstPort)
	buf = binary.BigEndian.AppendUint32(buf, p.Seq)
	buf = binary.BigEndian.AppendUint32(buf, p.Ack)
	buf = append(buf, p.Flags, 0)
	buf = binary.BigEndian.AppendUint16(buf, p.Window)
	buf = append(buf, 0, 0, 0, 0) // checksum, urgent (unused in simulation)
	buf = append(buf, p.Payload...)
	return buf
}

// Unmarshal parses a frame produced by Marshal.
// lint:ignore unused test oracle: the inverse the round-trip and fuzz tests check Marshal against
func Unmarshal(b []byte) (*Packet, error) {
	if len(b) < EthHeaderLen {
		return nil, fmt.Errorf("packet: truncated Ethernet header (%d bytes)", len(b))
	}
	p := &Packet{}
	var dst, src [6]byte
	copy(dst[:], b[0:6])
	copy(src[:], b[6:12])
	p.DstMAC = addr.MACFromBytes(dst)
	p.SrcMAC = addr.MACFromBytes(src)
	ethType := binary.BigEndian.Uint16(b[12:14])
	b = b[14:]
	if ethType == EtherTypeMPLS {
		for {
			if len(b) < MPLSEntryLen {
				return nil, fmt.Errorf("packet: truncated MPLS stack")
			}
			entry := binary.BigEndian.Uint32(b[:4])
			b = b[4:]
			p.MPLS = append(p.MPLS, addr.Label(entry>>12))
			if entry&(1<<8) != 0 {
				break
			}
		}
	} else if ethType != EtherTypeIPv4 {
		return nil, fmt.Errorf("packet: unsupported EtherType %#04x", ethType)
	}
	if len(b) < IPv4HeaderLen+L4HeaderLen {
		return nil, fmt.Errorf("packet: truncated IP/L4 headers (%d bytes)", len(b))
	}
	totalLen := int(binary.BigEndian.Uint16(b[2:4]))
	p.TTL = b[8]
	p.Proto = b[9]
	p.SrcIP = addr.IP(binary.BigEndian.Uint32(b[12:16]))
	p.DstIP = addr.IP(binary.BigEndian.Uint32(b[16:20]))
	b = b[IPv4HeaderLen:]
	p.SrcPort = binary.BigEndian.Uint16(b[0:2])
	p.DstPort = binary.BigEndian.Uint16(b[2:4])
	p.Seq = binary.BigEndian.Uint32(b[4:8])
	p.Ack = binary.BigEndian.Uint32(b[8:12])
	p.Flags = b[12]
	p.Window = binary.BigEndian.Uint16(b[14:16])
	b = b[L4HeaderLen:]
	payloadLen := totalLen - IPv4HeaderLen - L4HeaderLen
	if payloadLen < 0 || payloadLen > len(b) {
		return nil, fmt.Errorf("packet: bad total length %d", totalLen)
	}
	if payloadLen > 0 {
		p.Payload = append([]byte(nil), b[:payloadLen]...)
	}
	return p, nil
}
