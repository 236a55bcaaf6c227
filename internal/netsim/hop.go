package netsim

import (
	"mic/internal/flowtable"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

// hopKind names the step of a packet's journey a hop record stands for.
type hopKind uint8

const (
	hopHostSend  hopKind = iota // host-stack latency paid: serialise out of the NIC
	hopIngress                  // the node's latency since arrived paid: the node handles the frame
	hopSwitchRun                // Switch.Execute's forwarding latency paid: apply the given actions
	hopCorrupt                  // the frame reached a NIC whose FCS check rejects it
)

// hop is one scheduled step of one packet: what the engine event of that
// step needs, held in a pooled record instead of a fresh closure so that
// forwarding a packet allocates nothing.
//
// Ownership mirrors the packet pool's: schedule takes a record from the
// network's free list and hands it to the engine, which is its only holder
// until the event fires; fire copies the fields out and returns the record
// to the free list before it dispatches, so the step it runs may reuse the
// record at once. Nothing else ever holds a *hop.
type hop struct {
	net *Network
	fn  func() // fire, bound once when the record is made

	kind    hopKind
	node    topo.NodeID
	port    int
	p       *packet.Packet
	actions []flowtable.Action // hopSwitchRun only
	arrived sim.Time           // hopIngress only
}

// schedule books step kind for p at (node, port) to run at instant at and
// returns the record, whose kind-specific fields the caller fills in.
func (n *Network) schedule(at sim.Time, kind hopKind, node topo.NodeID, port int, p *packet.Packet) *hop {
	var h *hop
	if last := len(n.hopFree) - 1; last >= 0 {
		h = n.hopFree[last]
		n.hopFree = n.hopFree[:last]
	} else {
		h = &hop{net: n}
		h.fn = h.fire
	}
	h.kind, h.node, h.port, h.p = kind, node, port, p
	n.Eng.At(at, h.fn)
	return h
}

// arrive books the one event a frame costs at the node it reaches at
// instant at: the node's latency later, the node handles it.
func (n *Network) arrive(at sim.Time, node topo.NodeID, port int, p *packet.Packet) {
	lat := HostLatency
	if n.nodes[node].sw != nil {
		lat = SwitchLatency
	}
	n.schedule(at.Add(lat), hopIngress, node, port, p).arrived = at
}

func (h *hop) fire() {
	n, kind, node, port, p, actions, arrived := h.net, h.kind, h.node, h.port, h.p, h.actions, h.arrived
	h.p, h.actions = nil, nil
	n.hopFree = append(n.hopFree, h)
	switch kind {
	case hopHostSend:
		n.send(node, port, p)
	case hopIngress:
		n.fireTaps(node, port, Ingress, arrived, p)
		if sw := n.nodes[node].sw; sw != nil {
			sw.forward(port, arrived, p)
		} else {
			n.nodes[node].host.deliver(port, p)
		}
	case hopSwitchRun:
		n.nodes[node].sw.run(actions, port, p)
	case hopCorrupt:
		n.Stats.Corrupted++
		p.Release()
	}
}
