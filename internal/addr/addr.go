// Package addr provides the address types used throughout the simulator:
// IPv4 addresses, Ethernet MAC addresses, MPLS labels, subnets and simple
// allocation pools. IPv4 addresses are plain uint32 values so the MAGA hash
// functions (internal/maga) can mix them with XOR/shift arithmetic exactly
// as the paper describes.
package addr

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order (a.b.c.d == a<<24|b<<16|c<<8|d).
type IP uint32

// MustParseIP parses dotted-quad notation and panics on malformed input.
// It is intended for constants in tests and topology builders.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

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

// Valid reports whether l fits in 20 bits.
func (l Label) Valid() bool { return l <= MaxLabel }

// String renders the label in decimal, as tcpdump does.
func (l Label) String() string { return strconv.FormatUint(uint64(l), 10) }

// Subnet is an IPv4 prefix.
type Subnet struct {
	Base IP
	Bits int // prefix length, 0..32
}

// MustParseSubnet parses "a.b.c.d/len" and panics on malformed input.
func MustParseSubnet(s string) Subnet {
	sn, err := ParseSubnet(s)
	if err != nil {
		panic(err)
	}
	return sn
}

// ParseSubnet parses CIDR notation "a.b.c.d/len".
func ParseSubnet(s string) (Subnet, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Subnet{}, fmt.Errorf("addr: subnet %q missing /len", s)
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return Subnet{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Subnet{}, fmt.Errorf("addr: bad prefix length in %q", s)
	}
	sn := Subnet{Base: ip, Bits: bits}
	return Subnet{Base: sn.mask(ip), Bits: bits}, nil
}

func (s Subnet) mask(ip IP) IP {
	if s.Bits == 0 {
		return 0
	}
	m := ^uint32(0) << (32 - s.Bits)
	return IP(uint32(ip) & m)
}

// Contains reports whether ip is inside the prefix.
func (s Subnet) Contains(ip IP) bool { return s.mask(ip) == s.Base }

// Size returns the number of addresses covered by the prefix.
func (s Subnet) Size() uint64 { return 1 << (32 - s.Bits) }

// Nth returns the i-th address of the prefix. It panics if i is out of range.
func (s Subnet) Nth(i uint64) IP {
	if i >= s.Size() {
		panic(fmt.Sprintf("addr: index %d out of subnet %v", i, s))
	}
	return s.Base + IP(i)
}

// String renders CIDR notation.
func (s Subnet) String() string { return fmt.Sprintf("%v/%d", s.Base, s.Bits) }

// Pool hands out addresses from a subnet sequentially, with release and
// reuse. It backs host address assignment in topology builders.
type Pool struct {
	subnet Subnet
	next   uint64
	free   []IP
	used   map[IP]bool
}

// NewPool returns a pool over the given subnet, skipping the network address.
func NewPool(s Subnet) *Pool {
	p := &Pool{subnet: s, used: make(map[IP]bool)}
	if s.Bits < 32 {
		p.next = 1 // skip the all-zeros network address
	}
	return p
}

// Alloc returns an unused address, preferring released ones.
func (p *Pool) Alloc() (IP, error) {
	if n := len(p.free); n > 0 {
		ip := p.free[n-1]
		p.free = p.free[:n-1]
		p.used[ip] = true
		return ip, nil
	}
	for p.next < p.subnet.Size() {
		ip := p.subnet.Nth(p.next)
		p.next++
		if !p.used[ip] {
			p.used[ip] = true
			return ip, nil
		}
	}
	return 0, fmt.Errorf("addr: pool %v exhausted", p.subnet)
}

// Reserve marks a specific address as in use.
func (p *Pool) Reserve(ip IP) error {
	if !p.subnet.Contains(ip) {
		return fmt.Errorf("addr: %v not in pool subnet %v", ip, p.subnet)
	}
	if p.used[ip] {
		return fmt.Errorf("addr: %v already allocated", ip)
	}
	p.used[ip] = true
	return nil
}

// Release returns an address to the pool.
func (p *Pool) Release(ip IP) {
	if p.used[ip] {
		delete(p.used, ip)
		p.free = append(p.free, ip)
	}
}

// InUse reports how many addresses are currently allocated.
func (p *Pool) InUse() int { return len(p.used) }
