package adversary

import (
	"encoding/binary"

	"mic/internal/addr"
	"mic/internal/netsim"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

// HeaderSighting is one occurrence of a watched real address in the header
// bytes of a frame observed at a tap.
type HeaderSighting struct {
	Node   topo.NodeID
	At     sim.Time
	Dir    netsim.Direction
	IP     addr.IP
	Offset int    // byte offset into the marshaled frame
	Field  string // "SrcIP" / "DstIP" for the IPv4 address slots, "" otherwise
}

// Sanctioned reports whether the sighting sits in one of the two IPv4
// address slots — the only header positions where a real endpoint address
// may ever legitimately appear, and even there only at the path positions
// the paper sanctions (before the first Mimic Node for the initiator,
// after the last for the responder).
func (s HeaderSighting) Sanctioned() bool { return s.Field != "" }

// LeakScanner is the byte-level complement of Capture.Exposure: instead of
// trusting the parsed Packet fields, it marshals every frame crossing its
// taps and greps the raw header bytes for the 4-byte big-endian encoding
// of each watched real address. A real address smuggled through an MPLS
// label, a sequence number, a port pair, or header padding is caught here
// even though no parsed field would ever show it.
// lint:ignore unused test oracle: the byte-level scan TestHeaderByteLeakScan runs
type LeakScanner struct {
	watch     []addr.IP
	Sightings []HeaderSighting
}

// NewLeakScanner watches the given real endpoint addresses.
// lint:ignore unused test oracle: the byte-level scan TestHeaderByteLeakScan runs
func NewLeakScanner(watch ...addr.IP) *LeakScanner {
	return &LeakScanner{watch: watch}
}

// Tap attaches the scanner to one node. Call before traffic starts.
func (s *LeakScanner) Tap(net *netsim.Network, node topo.NodeID) {
	net.AddTap(node, func(ev netsim.TapEvent) { s.scan(ev) })
}

// TapAllSwitches attaches the scanner to every switch in the graph —
// the strongest observation position short of compromising hosts.
func (s *LeakScanner) TapAllSwitches(net *netsim.Network, g *topo.Graph) {
	for _, sid := range g.Switches() {
		s.Tap(net, sid)
	}
}

// scan sweeps every 4-byte window of the frame's header bytes (everything
// before the payload) for watched addresses. Windows straddling field
// boundaries are deliberately included: an address reassembled across two
// adjacent fields is still an address on the wire.
func (s *LeakScanner) scan(ev netsim.TapEvent) {
	frame := ev.Pkt.Marshal()
	header := frame[:len(frame)-len(ev.Pkt.Payload)]
	ipBase := packet.EthHeaderLen + packet.MPLSEntryLen*len(ev.Pkt.MPLS)
	for i := 0; i+4 <= len(header); i++ {
		v := addr.IP(binary.BigEndian.Uint32(header[i:]))
		for _, w := range s.watch {
			if v != w {
				continue
			}
			field := ""
			switch i {
			case ipBase + 12:
				field = "SrcIP"
			case ipBase + 16:
				field = "DstIP"
			}
			s.Sightings = append(s.Sightings, HeaderSighting{
				Node: ev.Node, At: ev.At, Dir: ev.Dir,
				IP: w, Offset: i, Field: field,
			})
		}
	}
}

// Unsanctioned returns the sightings outside the IPv4 address slots —
// every one is an anonymity violation regardless of path position.
func (s *LeakScanner) Unsanctioned() []HeaderSighting {
	var out []HeaderSighting
	for _, sg := range s.Sightings {
		if !sg.Sanctioned() {
			out = append(out, sg)
		}
	}
	return out
}

// ExposedNodes returns the tapped nodes where ip appeared anywhere in a
// frame header, in either mirror direction.
func (s *LeakScanner) ExposedNodes(ip addr.IP) map[topo.NodeID]bool {
	out := make(map[topo.NodeID]bool)
	for _, sg := range s.Sightings {
		if sg.IP == ip {
			out[sg.Node] = true
		}
	}
	return out
}
