// Package transport implements a reliable, connection-oriented transport
// (a miniature TCP) plus an SSL-style secure layer on top of the simulated
// fabric. It supplies the paper's TCP and SSL baselines and carries MIC's
// m-flows: MIC requires no transport changes, so the same stack runs under
// all five evaluated schemes (TCP, SSL, MIC-TCP, MIC-SSL, and Tor's hops).
//
// The API is continuation-style because the simulator is single-threaded
// discrete-event: completions arrive via callbacks on the engine's virtual
// timeline, never by blocking.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package transport

import (
	"fmt"

	"mic/internal/addr"
	"mic/internal/netsim"
	"mic/internal/packet"
	"mic/internal/sim"
)

// MSS is the maximum segment payload, matching Ethernet TCP over IPv4.
const MSS = 1460

// Stack is one host's transport layer. Create at most one per host.
type Stack struct {
	Host *netsim.Host
	eng  *sim.Engine
	pool *packet.Pool // the network's packet pool; outgoing frames draw from it

	listeners map[uint16]*Listener
	conns     map[packet.FiveTuple]*Conn
	nextPort  uint16
}

// NewStack attaches a transport stack to h.
func NewStack(h *netsim.Host) *Stack {
	s := &Stack{
		Host:      h,
		eng:       h.Net().Eng,
		pool:      h.Net().PacketPool(),
		listeners: make(map[uint16]*Listener),
		conns:     make(map[packet.FiveTuple]*Conn),
		nextPort:  40000,
	}
	h.SetHandler(s.recv)
	return s
}

// Listener accepts inbound connections on a port.
type Listener struct {
	stack    *Stack
	port     uint16
	onAccept func(*Conn)
}

// Listen opens a listening port. It panics if the port is taken — that is
// always a harness bug.
func (s *Stack) Listen(port uint16, onAccept func(*Conn)) *Listener {
	if _, dup := s.listeners[port]; dup {
		panic(fmt.Sprintf("transport: port %d already listening on %s", port, s.Host.Name))
	}
	l := &Listener{stack: s, port: port, onAccept: onAccept}
	s.listeners[port] = l
	return l
}

// Dial opens a connection to dst:port. onConnected fires with the
// established connection, or with a non-nil error if the handshake
// ultimately times out.
func (s *Stack) Dial(dst addr.IP, port uint16, onConnected func(*Conn, error)) {
	local := s.allocPort()
	tuple := packet.FiveTuple{
		SrcIP: s.Host.IP, DstIP: dst,
		SrcPort: local, DstPort: port,
		Proto: packet.ProtoTCP,
	}
	c := newConn(s, tuple, false)
	c.onConnected = onConnected
	s.conns[tuple.Reverse()] = c // index by the tuple of arriving packets
	c.sendSYN()
}

func (s *Stack) allocPort() uint16 {
	p := s.nextPort
	s.nextPort++
	if s.nextPort < 40000 {
		s.nextPort = 40000
	}
	return p
}

// recv demultiplexes an arriving frame.
func (s *Stack) recv(_ int, p *packet.Packet) {
	key := p.Tuple()
	if c, ok := s.conns[key]; ok {
		c.handle(p)
		return
	}
	// New connection? SYN to a listening port.
	if p.Flags&packet.FlagSYN != 0 && p.Flags&packet.FlagACK == 0 {
		if l, ok := s.listeners[p.DstPort]; ok {
			tuple := packet.FiveTuple{
				SrcIP: p.DstIP, DstIP: p.SrcIP,
				SrcPort: p.DstPort, DstPort: p.SrcPort,
				Proto: packet.ProtoTCP,
			}
			c := newConn(s, tuple, true)
			c.onAccept = l.onAccept
			s.conns[key] = c
			c.handle(p)
			return
		}
	}
	// Unknown connection: send RST unless this is itself a RST.
	if p.Flags&packet.FlagRST == 0 {
		rst := s.pool.Get()
		rst.SrcMAC, rst.DstMAC = s.Host.MAC, addr.Broadcast
		rst.SrcIP, rst.DstIP = p.DstIP, p.SrcIP
		rst.Proto, rst.TTL = packet.ProtoTCP, 64
		rst.SrcPort, rst.DstPort = p.DstPort, p.SrcPort
		rst.Flags, rst.Ack = packet.FlagRST, p.Seq
		s.emit(rst)
	}
}

func (s *Stack) emit(p *packet.Packet) { s.Host.Send(0, p) }

func (s *Stack) drop(c *Conn) { delete(s.conns, c.tuple.Reverse()) }

func (s *Stack) now() sim.Time { return s.eng.Now() }
