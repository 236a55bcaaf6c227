// Package flowtable implements the OpenFlow-style switch pipeline MIC
// relies on: priority-ordered match entries over L2-L4 headers plus the
// outermost MPLS label, set-field / push / pop / output actions, and ALL
// group tables for partial multicast. The paper's deployability goal (Sec
// III-C) is that MIC uses only this standard rule vocabulary — no custom
// switch logic — so this package deliberately exposes nothing beyond it.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package flowtable

import (
	"fmt"
	"strings"

	"mic/internal/addr"
	"mic/internal/packet"
)

// FieldMask selects which fields a Match constrains.
type FieldMask uint16

// Field mask bits, one per matchable header field.
const (
	MatchInPort FieldMask = 1 << iota
	MatchEthSrc
	MatchEthDst
	MatchIPSrc
	MatchIPDst
	MatchProto
	MatchTPSrc
	MatchTPDst
	MatchMPLS   // outermost label equals the given value (requires a label)
	MatchNoMPLS // packet carries no MPLS header
)

// Match is a header predicate. Zero value matches every packet.
type Match struct {
	Mask   FieldMask
	InPort int
	EthSrc addr.MAC
	EthDst addr.MAC
	IPSrc  addr.IP
	IPDst  addr.IP
	Proto  uint8
	TPSrc  uint16
	TPDst  uint16
	MPLS   addr.Label
}

// Covers reports whether the packet arriving on inPort satisfies m.
func (m Match) Covers(p *packet.Packet, inPort int) bool {
	if m.Mask&MatchInPort != 0 && inPort != m.InPort {
		return false
	}
	if m.Mask&MatchEthSrc != 0 && p.SrcMAC != m.EthSrc {
		return false
	}
	if m.Mask&MatchEthDst != 0 && p.DstMAC != m.EthDst {
		return false
	}
	if m.Mask&MatchIPSrc != 0 && p.SrcIP != m.IPSrc {
		return false
	}
	if m.Mask&MatchIPDst != 0 && p.DstIP != m.IPDst {
		return false
	}
	if m.Mask&MatchProto != 0 && p.Proto != m.Proto {
		return false
	}
	if m.Mask&MatchTPSrc != 0 && p.SrcPort != m.TPSrc {
		return false
	}
	if m.Mask&MatchTPDst != 0 && p.DstPort != m.TPDst {
		return false
	}
	top, has := p.TopMPLS()
	if m.Mask&MatchMPLS != 0 && (!has || top != m.MPLS) {
		return false
	}
	if m.Mask&MatchNoMPLS != 0 && has {
		return false
	}
	return true
}

// Equal reports whether two matches constrain exactly the same header
// space. Used to detect the routing collisions of Sec IV-B3: two entries
// with equal matches at equal priority are ambiguous.
func (m Match) Equal(o Match) bool { return m.equal(&o) }

func (m *Match) equal(o *Match) bool {
	if m.Mask != o.Mask {
		return false
	}
	eq := true
	if m.Mask&MatchInPort != 0 {
		eq = eq && m.InPort == o.InPort
	}
	if m.Mask&MatchEthSrc != 0 {
		eq = eq && m.EthSrc == o.EthSrc
	}
	if m.Mask&MatchEthDst != 0 {
		eq = eq && m.EthDst == o.EthDst
	}
	if m.Mask&MatchIPSrc != 0 {
		eq = eq && m.IPSrc == o.IPSrc
	}
	if m.Mask&MatchIPDst != 0 {
		eq = eq && m.IPDst == o.IPDst
	}
	if m.Mask&MatchProto != 0 {
		eq = eq && m.Proto == o.Proto
	}
	if m.Mask&MatchTPSrc != 0 {
		eq = eq && m.TPSrc == o.TPSrc
	}
	if m.Mask&MatchTPDst != 0 {
		eq = eq && m.TPDst == o.TPDst
	}
	if m.Mask&MatchMPLS != 0 {
		eq = eq && m.MPLS == o.MPLS
	}
	return eq
}

// normalized returns m with every unconstrained field zeroed, so that two
// matches are Equal iff their normalized forms are ==. Normalized matches
// are the classifier's hash-bucket keys.
func (m Match) normalized() Match {
	n := Match{Mask: m.Mask}
	if m.Mask&MatchInPort != 0 {
		n.InPort = m.InPort
	}
	if m.Mask&MatchEthSrc != 0 {
		n.EthSrc = m.EthSrc
	}
	if m.Mask&MatchEthDst != 0 {
		n.EthDst = m.EthDst
	}
	if m.Mask&MatchIPSrc != 0 {
		n.IPSrc = m.IPSrc
	}
	if m.Mask&MatchIPDst != 0 {
		n.IPDst = m.IPDst
	}
	if m.Mask&MatchProto != 0 {
		n.Proto = m.Proto
	}
	if m.Mask&MatchTPSrc != 0 {
		n.TPSrc = m.TPSrc
	}
	if m.Mask&MatchTPDst != 0 {
		n.TPDst = m.TPDst
	}
	if m.Mask&MatchMPLS != 0 {
		n.MPLS = m.MPLS
	}
	return n
}

// projectKey builds the normalized match a packet on inPort would need for a
// subtable of shape mask — i.e. the bucket key whose entries all cover the
// packet. ok is false when no match of that shape can cover the packet
// (label constraints the packet cannot satisfy).
func projectKey(mask FieldMask, p *packet.Packet, inPort int) (Match, bool) {
	m := Match{Mask: mask}
	if mask&MatchInPort != 0 {
		m.InPort = inPort
	}
	if mask&MatchEthSrc != 0 {
		m.EthSrc = p.SrcMAC
	}
	if mask&MatchEthDst != 0 {
		m.EthDst = p.DstMAC
	}
	if mask&MatchIPSrc != 0 {
		m.IPSrc = p.SrcIP
	}
	if mask&MatchIPDst != 0 {
		m.IPDst = p.DstIP
	}
	if mask&MatchProto != 0 {
		m.Proto = p.Proto
	}
	if mask&MatchTPSrc != 0 {
		m.TPSrc = p.SrcPort
	}
	if mask&MatchTPDst != 0 {
		m.TPDst = p.DstPort
	}
	top, has := p.TopMPLS()
	if mask&MatchMPLS != 0 {
		if !has {
			return Match{}, false
		}
		m.MPLS = top
	}
	if mask&MatchNoMPLS != 0 && has {
		return Match{}, false
	}
	return m, true
}

// String renders the constrained fields only.
func (m Match) String() string {
	var parts []string
	add := func(mask FieldMask, s string) {
		if m.Mask&mask != 0 {
			parts = append(parts, s)
		}
	}
	add(MatchInPort, fmt.Sprintf("in:%d", m.InPort))
	add(MatchEthSrc, fmt.Sprintf("ethsrc:%v", m.EthSrc))
	add(MatchEthDst, fmt.Sprintf("ethdst:%v", m.EthDst))
	add(MatchIPSrc, fmt.Sprintf("ipsrc:%v", m.IPSrc))
	add(MatchIPDst, fmt.Sprintf("ipdst:%v", m.IPDst))
	add(MatchProto, fmt.Sprintf("proto:%d", m.Proto))
	add(MatchTPSrc, fmt.Sprintf("tpsrc:%d", m.TPSrc))
	add(MatchTPDst, fmt.Sprintf("tpdst:%d", m.TPDst))
	add(MatchMPLS, fmt.Sprintf("mpls:%v", m.MPLS))
	add(MatchNoMPLS, "nompls")
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}
