package netsim

import (
	"fmt"

	"mic/internal/topo"
)

// Management-network partitions.
//
// Controllers talk to switches (and to each other) over an out-of-band
// management network, separate from the data fabric — the standard OpenFlow
// deployment. That network can partition independently of the fabric: a
// controller may lose its path to a peer controller, to some switches, or
// only in one direction (asymmetric routing failures are common in real
// management networks). Partition state is tracked as a set of directional
// cuts between management endpoints; a message from A to B vanishes in
// flight iff the A→B direction is cut. Cuts compose with liveness: a crashed
// controller host or a Down switch is unreachable regardless of cuts.

// MgmtEnd names one endpoint on the management network: either a controller
// host (by RegisterCtrlHost index) or a switch's management port (by node
// ID). Exactly one side is set; the other holds -1.
type MgmtEnd struct {
	Ctrl int         // controller-host index, or -1
	Node topo.NodeID // switch node ID, or -1
}

// MgmtCtrl names the controller host at idx as a management endpoint.
func MgmtCtrl(idx int) MgmtEnd { return MgmtEnd{Ctrl: idx, Node: -1} }

// MgmtSwitch names a switch's management port as a management endpoint.
func MgmtSwitch(id topo.NodeID) MgmtEnd { return MgmtEnd{Ctrl: -1, Node: id} }

// String renders the endpoint for fault schedules and reports.
func (e MgmtEnd) String() string {
	if e.Ctrl >= 0 {
		return fmt.Sprintf("ctrl%d", e.Ctrl)
	}
	return fmt.Sprintf("sw%d", e.Node)
}

// mgmtCut is one directional reachability cut on the management network.
type mgmtCut struct {
	from, to MgmtEnd
}

// SetMgmtCut cuts or heals the from→to direction of the management network.
// Cuts are directional: an asymmetric partition is a cut in one direction
// only. Listeners receive a Partition/Heal event (with From/To filled in)
// if the state flipped.
func (n *Network) SetMgmtCut(from, to MgmtEnd, cut bool) {
	if n.mgmtCuts == nil {
		n.mgmtCuts = make(map[mgmtCut]bool)
	}
	key := mgmtCut{from, to}
	if n.mgmtCuts[key] == cut {
		return
	}
	if cut {
		n.mgmtCuts[key] = true
	} else {
		delete(n.mgmtCuts, key)
	}
	kind := Heal
	if cut {
		kind = Partition
	}
	ev := Event{Kind: kind, Node: -1, Port: -1, From: from, To: to, At: n.Eng.Now()}
	for _, l := range n.listeners {
		l(ev)
	}
}

// CutSets cuts every direction between the two endpoint sets (a symmetric
// partition separating group a from group b). Reachability within each
// group is untouched.
// lint:ignore unused fault-injection seam: a symmetric partition between two endpoint sets
func (n *Network) CutSets(a, b []MgmtEnd) {
	for _, x := range a {
		for _, y := range b {
			n.SetMgmtCut(x, y, true)
			n.SetMgmtCut(y, x, true)
		}
	}
}

// HealSets heals every direction between the two endpoint sets, undoing
// CutSets.
// lint:ignore unused fault-injection seam: undoes CutSets
func (n *Network) HealSets(a, b []MgmtEnd) {
	for _, x := range a {
		for _, y := range b {
			n.SetMgmtCut(x, y, false)
			n.SetMgmtCut(y, x, false)
		}
	}
}

// MgmtReachable reports whether a message from one management endpoint
// currently reaches another. Only partition cuts are considered; endpoint
// liveness (crashed controller hosts, Down switches) is judged separately
// by the sender's channel, as the two have different failure semantics.
func (n *Network) MgmtReachable(from, to MgmtEnd) bool {
	if n.mgmtCuts == nil {
		return true
	}
	return !n.mgmtCuts[mgmtCut{from, to}]
}
