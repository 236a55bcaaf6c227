package netsim

import (
	"mic/internal/addr"
	"mic/internal/packet"
	"mic/internal/topo"
)

// Host is the runtime of one end host. A transport stack registers a
// handler to receive frames; Send emits frames through the NIC. Hosts are
// deliberately dumb — MIC requires "no kernel or switch modifications"
// (Sec III-C), so all anonymity logic lives in switch rules and the
// user-level MIC client library.
type Host struct {
	net  *Network
	ID   topo.NodeID
	Name string
	IP   addr.IP
	MAC  addr.MAC

	handler func(inPort int, p *packet.Packet)

	RxPackets uint64
	TxPackets uint64
}

// Net returns the network the host is attached to.
func (h *Host) Net() *Network { return h.net }

// SetHandler registers the frame receiver (the transport stack).
func (h *Host) SetHandler(fn func(inPort int, p *packet.Packet)) { h.handler = fn }

// Send emits p out of the given NIC port after the host-stack latency,
// charging stack CPU. Every builder's hosts have a single port 0.
func (h *Host) Send(port int, p *packet.Packet) {
	h.TxPackets++
	n := h.net
	n.stackCPU.Charge(CostHostPacket)
	n.schedule(n.Eng.Now().Add(HostLatency), hopHostSend, h.ID, port, p)
}

// deliver hands a frame to the registered handler, run one host-stack
// latency after the frame arrived. The host is the packet's sink: the
// handler may read the frame only for the duration of the call (copying
// what it keeps, which the transport stack does), and the packet returns to
// the pool when the handler returns.
func (h *Host) deliver(inPort int, p *packet.Packet) {
	h.RxPackets++
	n := h.net
	n.stackCPU.Charge(CostHostPacket)
	if h.handler == nil {
		n.Stats.Dropped++
		p.Release()
		return
	}
	n.Stats.Delivered++
	h.handler(inPort, p)
	p.Release()
}
