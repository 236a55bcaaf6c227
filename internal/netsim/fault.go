package netsim

import (
	"fmt"
	"time"

	"mic/internal/topo"
)

// FaultProfile degrades one link without cutting it: each frame sent into
// the link independently suffers loss, duplication, reordering (extra
// delay jitter) or corruption with the configured probabilities. All four
// are drawn from the link direction's stream of Config.Seed: replaying a
// run with the same seed and workload reproduces the exact same frame
// fates. A zero profile means a clean link.
//
// Corrupted frames are modeled as receiver-side FCS drops — the NIC
// discards them, so to every protocol above L2 corruption is loss, but the
// fabric counts it separately (Stats.Corrupted) and charges the wire time,
// as real corruption does.
type FaultProfile struct {
	Loss    float64       // P(frame silently dropped before serialization)
	Dup     float64       // P(frame delivered twice)
	Reorder float64       // P(frame delayed by extra jitter, overtaken by later frames)
	Corrupt float64       // P(frame transmitted but discarded by the receiver's FCS check)
	Jitter  time.Duration // max extra delay for reordered frames (default DefaultJitter)
}

// DefaultJitter is the reorder delay bound used when a profile enables
// reordering without setting Jitter. It is large relative to link delay and
// serialization time, so a reordered frame is reliably overtaken.
const DefaultJitter = 200 * time.Microsecond

// IsZero reports whether the profile injects no faults at all.
func (f FaultProfile) IsZero() bool {
	return f.Loss == 0 && f.Dup == 0 && f.Reorder == 0 && f.Corrupt == 0
}

// SetLinkFault installs (or, with a zero profile, clears) a fault profile
// on the cable at (node, port), both directions — the degraded-link twin of
// SetLinkDown. The link keeps forwarding, so no port-status event fires and
// the control plane cannot see the sickness; only endpoint health
// monitoring can. Chaos schedules use it for lossy-link storms.
func (n *Network) SetLinkFault(node topo.NodeID, port int, f FaultProfile) {
	if f.Jitter <= 0 {
		f.Jitter = DefaultJitter
	}
	peer := n.Graph.Node(node).Ports[port]
	for _, pk := range [2]portKey{{node, port}, {peer.Peer, peer.PeerPort}} {
		d := n.dir(pk.node, pk.port)
		if f.IsZero() {
			d.fault = nil
			continue
		}
		prof := f
		d.fault = &prof
		if d.faultRNG == nil {
			d.faultRNG = n.Stream(fmt.Sprintf("fault-%d-%d", pk.node, pk.port))
		}
	}
}

// ClearLinkFault removes any fault profile from the cable at (node, port).
func (n *Network) ClearLinkFault(node topo.NodeID, port int) {
	n.SetLinkFault(node, port, FaultProfile{})
}

// frameFate classifies what the active fault profile does to one frame.
type frameFate int

const (
	fateDeliver frameFate = iota
	fateLost
	fateCorrupt
	fateDup
	fateReorder
)

// fate rolls the fault dice for one frame on direction d. The RNG draw
// order is fixed (one draw per configured hazard), so adding a hazard to a
// profile never perturbs the fates an existing hazard produced.
func (d *linkDir) fate() frameFate {
	f := d.fault
	if f == nil {
		return fateDeliver
	}
	if f.Loss > 0 && d.faultRNG.Float64() < f.Loss {
		return fateLost
	}
	if f.Corrupt > 0 && d.faultRNG.Float64() < f.Corrupt {
		return fateCorrupt
	}
	if f.Dup > 0 && d.faultRNG.Float64() < f.Dup {
		return fateDup
	}
	if f.Reorder > 0 && d.faultRNG.Float64() < f.Reorder {
		return fateReorder
	}
	return fateDeliver
}
