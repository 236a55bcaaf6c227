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
	hopHostSend    hopKind = iota // host-stack latency paid: serialise out of the NIC
	hopArrive                     // propagation finished: the frame reaches the peer node
	hopSwitchRun                  // forwarding latency paid: apply the matched actions
	hopHostDeliver                // host-stack latency paid: hand the frame to the handler
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
}

// schedule books step kind for p at (node, port) to run at instant at.
func (n *Network) schedule(at sim.Time, kind hopKind, node topo.NodeID, port int, p *packet.Packet, actions []flowtable.Action) {
	var h *hop
	if last := len(n.hopFree) - 1; last >= 0 {
		h = n.hopFree[last]
		n.hopFree = n.hopFree[:last]
	} else {
		h = &hop{net: n}
		h.fn = h.fire
	}
	h.kind, h.node, h.port, h.p, h.actions = kind, node, port, p, actions
	n.Eng.At(at, h.fn)
}

func (h *hop) fire() {
	n, kind, node, port, p, actions := h.net, h.kind, h.node, h.port, h.p, h.actions
	h.p, h.actions = nil, nil
	n.hopFree = append(n.hopFree, h)
	switch kind {
	case hopHostSend:
		n.send(node, port, p)
	case hopArrive:
		n.recv(node, port, p)
	case hopSwitchRun:
		n.nodes[node].sw.run(actions, port, p)
	case hopHostDeliver:
		n.Stats.Delivered++
		n.nodes[node].host.handler(port, p)
		p.Release()
	}
}
