// Package addr provides the address types used throughout the simulator:
// IPv4 addresses, Ethernet MAC addresses and MPLS labels. IPv4 addresses
// are plain uint32 values so the MAGA hash functions (internal/maga) can
// mix them with XOR/shift arithmetic exactly as the paper describes.
package addr

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order (a.b.c.d == a<<24|b<<16|c<<8|d).
type IP uint32

// ParseIP parses dotted-quad IPv4 notation: four decimal octets of at most
// 255, none signed or with a leading zero. It reads s in place and allocates
// only for an error.
func ParseIP(s string) (IP, error) {
	if strings.Count(s, ".") != 3 {
		return 0, fmt.Errorf("addr: malformed IPv4 %q", s)
	}
	var ip uint32
	for rest, more := s, true; more; {
		var p string
		p, rest, more = strings.Cut(rest, ".")
		v, ok := parseOctet(p)
		if !ok {
			return 0, fmt.Errorf("addr: malformed IPv4 octet %q in %q", p, s)
		}
		ip = ip<<8 | v
	}
	return IP(ip), nil
}

// parseOctet parses one octet of dotted-quad notation: one to three decimal
// digits, no leading zero, at most 255.
func parseOctet(p string) (uint32, bool) {
	if len(p) == 0 || len(p) > 3 || len(p) > 1 && p[0] == '0' {
		return 0, false
	}
	var v uint32
	for i := 0; i < len(p); i++ {
		c := p[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint32(c-'0')
	}
	return v, v <= 255
}

// V4 assembles an address from four octets.
func V4(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the four dotted-quad octets of ip.
func (ip IP) Octets() (a, b, c, d byte) {
	return byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)
}

// String renders dotted-quad notation.
func (ip IP) String() string {
	a, b, c, d := ip.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", a, b, c, d)
}

// MAC is a 48-bit Ethernet address stored in the low bits of a uint64.
type MAC uint64

// MACFromBytes assembles a MAC from six bytes.
func MACFromBytes(b [6]byte) MAC {
	var m uint64
	for _, x := range b {
		m = m<<8 | uint64(x)
	}
	return MAC(m)
}

// Bytes returns the six octets of m.
func (m MAC) Bytes() [6]byte {
	var b [6]byte
	for i := 5; i >= 0; i-- {
		b[i] = byte(m)
		m >>= 8
	}
	return b
}

// String renders colon-separated hex notation.
func (m MAC) String() string {
	b := m.Bytes()
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", b[0], b[1], b[2], b[3], b[4], b[5])
}

// Broadcast is the all-ones Ethernet address.
const Broadcast MAC = 0xffffffffffff

// Label is a 20-bit MPLS label. The paper splits labels into disjoint sets:
// one marking common flows (CF) and many marking m-flows (MF), partitioned
// per Mimic Node by the classifier hash g (see internal/maga).
type Label uint32

// MaxLabel is the largest valid MPLS label value (2^20 - 1).
const MaxLabel Label = 1<<20 - 1

// String renders the label in decimal, as tcpdump does.
func (l Label) String() string { return strconv.FormatUint(uint64(l), 10) }
