package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// Role names a fault's victim by what it is to a transfer, so that a
// schedule can be written before the graph, the seed and the endpoints are
// known. Script.Resolve draws the concrete victim.
type Role int

const (
	Fixed        Role = iota // the victim is the fault's own Node, Port, Pod, Ctrl or MFrom/MTo
	FromUplink               // an aggregation uplink of the initiator's edge switch (Node, Port)
	ToUplink                 // an aggregation uplink of the responder's edge switch (Node, Port)
	Core                     // a core switch (Node)
	CoreCable                // a core switch's first cable (Node, Port)
	ToPodAgg                 // an aggregation switch of the responder's pod (Node)
	Bystander                // a pod holding neither endpoint (Pod)
	HalfSwitches             // a seed-drawn half of the switches, one fault per switch (MTo)
)

// Script is a fault schedule as written: its faults name their victims by
// Role, and Stream names the stream of the run's seed they are drawn from.
type Script struct {
	Stream string
	Faults Schedule
}

// victim is one candidate a role may resolve to.
type victim struct {
	node topo.NodeID
	port int
	pod  int
}

// Resolve turns sc into a concrete Schedule on g at seed for a transfer from
// `from` to `to`. Each role is drawn once from sc.Stream, in the order the
// roles first appear, and every fault naming it takes that draw. A role with
// fewer than two candidates is an error: a draw must leave one untouched.
// The result is sorted by At, stably.
func (sc Script) Resolve(g *topo.Graph, seed uint64, from, to topo.NodeID) (Schedule, error) {
	rng := sim.NewRNG(seed).Stream(sc.Stream)
	drawn := map[Role][]victim{}
	var out Schedule
	for i, f := range sc.Faults {
		if f.Target == Fixed {
			out = append(out, f)
			continue
		}
		vs, ok := drawn[f.Target]
		if !ok {
			cands := candidates(g, f.Target, from, to)
			if len(cands) < 2 {
				return nil, fmt.Errorf("chaos: %s fault %d (%v) has %d candidate victims, need 2+",
					sc.Stream, i, f.Kind, len(cands))
			}
			vs = draw(rng, f.Target, cands)
			drawn[f.Target] = vs
		}
		for _, v := range vs {
			rf := f
			rf.Target = Fixed
			if f.Target == HalfSwitches {
				rf.MTo = netsim.MgmtSwitch(v.node)
			} else {
				rf.Node, rf.Port, rf.Pod = v.node, v.port, v.pod
			}
			out = append(out, rf)
		}
	}
	return out.sorted(), nil
}

// candidates lists what role may resolve to, in graph order.
func candidates(g *topo.Graph, role Role, from, to topo.NodeID) []victim {
	var out []victim
	switches := func(prefix string, pod int) {
		for _, id := range switchesIn(g, prefix, pod) {
			out = append(out, victim{node: id})
		}
	}
	switch role {
	case FromUplink:
		return uplinks(g, from)
	case ToUplink:
		return uplinks(g, to)
	case Core, CoreCable: // a core's first cable is its port 0
		switches("core", 0)
	case ToPodAgg:
		switches("agg", podOfHost(g, to))
	case HalfSwitches:
		for _, id := range g.Switches() {
			out = append(out, victim{node: id})
		}
	case Bystander:
		fromPod, toPod := podOfHost(g, from), podOfHost(g, to)
		npods := 0
		for _, id := range g.Switches() {
			npods = max(npods, podOf(g.Node(id).Name))
		}
		for p := 1; p <= npods; p++ {
			if p != fromPod && p != toPod {
				out = append(out, victim{pod: p})
			}
		}
	}
	return out
}

// draw picks one of cands, or for HalfSwitches a seed-drawn half of them in
// node order.
func draw(rng *sim.RNG, role Role, cands []victim) []victim {
	if role != HalfSwitches {
		return []victim{sim.Pick(rng, cands)}
	}
	half := make([]victim, 0, len(cands)/2)
	for _, i := range rng.Perm(len(cands))[:len(cands)/2] {
		half = append(half, cands[i])
	}
	sort.Slice(half, func(i, j int) bool { return half[i].node < half[j].node })
	return half
}

// uplinks returns, in port order, the ports of host's edge switch that lead
// to an aggregation switch.
func uplinks(g *topo.Graph, host topo.NodeID) []victim {
	if podOfHost(g, host) == 0 {
		return nil
	}
	edge := g.Node(host).Ports[0].Peer
	var out []victim
	for port, p := range g.Node(edge).Ports {
		if strings.HasPrefix(g.Node(p.Peer).Name, "agg") {
			out = append(out, victim{node: edge, port: port})
		}
	}
	return out
}

// podOfHost returns the pod a host lives in (via its edge switch), or 0.
func podOfHost(g *topo.Graph, host topo.NodeID) int {
	n := g.Node(host)
	if n.Kind != topo.KindHost || len(n.Ports) == 0 {
		return 0
	}
	return podOf(g.Node(n.Ports[0].Peer).Name)
}

const ms = time.Millisecond

// Fabric is the five-act fault storm of a fat-tree: an uplink flap at the
// initiator's edge, a core crash, a control-channel degradation window with
// a cut under it, an aggregation crash in the responder's pod, and a
// correlated failure of a bystander pod. Every act leaves a live path
// between the endpoints, so a self-healing control plane must deliver the
// transfer in full.
var Fabric = Script{Stream: "chaos-scenario", Faults: Schedule{
	// Act 1: the initiator's edge keeps its other uplink while one flaps;
	// the flap may even heal before the repair finishes.
	{At: 5 * ms, Kind: LinkCut, Target: FromUplink},
	{At: 13 * ms, Kind: LinkRestore, Target: FromUplink},
	// Act 2: the other cores keep every pod pair connected.
	{At: 45 * ms, Kind: SwitchCrash, Target: Core},
	{At: 70 * ms, Kind: SwitchRestart, Target: Core},
	// Act 3: a lossy southbound window, with a responder-edge uplink cut
	// inside it so that a repair may ride the loss.
	{At: 85 * ms, Kind: ControlLoss, Loss: 0.25},
	{At: 115 * ms, Kind: ControlLoss, Loss: 0},
	{At: 92500 * time.Microsecond, Kind: LinkCut, Target: ToUplink},
	{At: 125 * ms, Kind: LinkRestore, Target: ToUplink},
	// Act 4: the crashed aggregation switch's twin carries the pod.
	{At: 145 * ms, Kind: SwitchCrash, Target: ToPodAgg},
	{At: 170 * ms, Kind: SwitchRestart, Target: ToPodAgg},
	// Act 5: the endpoints' traffic does not transit a third pod, but the MC
	// must absorb the event storm and repair or close what crossed it.
	{At: 185 * ms, Kind: PodCrash, Target: Bystander},
	{At: 210 * ms, Kind: PodRestart, Target: Bystander},
}}

// Lossy is a gray-failure storm: no link goes administratively down, so the
// MC sees nothing, and every fault is a silent per-link profile the
// endpoints' health machinery must detect and route around.
var Lossy = Script{Stream: "chaos-lossy", Faults: Schedule{
	// 20 % loss on an initiator-edge uplink.
	{At: 5 * ms, Kind: LinkDegrade, Target: FromUplink, Profile: netsim.FaultProfile{Loss: 0.2}},
	{At: 65 * ms, Kind: LinkClear, Target: FromUplink},
	// A flaky optic at the responder's edge: loss, duplication, reordering
	// and corruption at once.
	{At: 45 * ms, Kind: LinkDegrade, Target: ToUplink,
		Profile: netsim.FaultProfile{Loss: 0.1, Dup: 0.1, Reorder: 0.2, Corrupt: 0.05}},
	{At: 105 * ms, Kind: LinkClear, Target: ToUplink},
	// A silent blackhole: an m-flow across it stalls until it clears.
	{At: 85 * ms, Kind: LinkDegrade, Target: CoreCable, Profile: netsim.FaultProfile{Loss: 1}},
	{At: 145 * ms, Kind: LinkClear, Target: CoreCable},
}}

// failoverKill is when Failover kills the active controller.
const failoverKill = 30 * ms

// Failover is the controller-kill storm of a fat-tree running a mic.Cluster.
// A responder-edge uplink is cut just before the kill, so the active dies
// with a repair in flight and leaves the stale state takeover reconciliation
// cleans up. While the cluster is headless, an initiator-edge uplink is cut,
// which the new active's post-takeover sweep must repair. The dead host
// restarts and rejoins as a standby by journal replay.
var Failover = Script{Stream: "chaos-failover", Faults: Schedule{
	{At: failoverKill - ms, Kind: LinkCut, Target: ToUplink},
	{At: failoverKill, Kind: MCKill, Ctrl: 0},
	{At: failoverKill + 5*ms, Kind: LinkCut, Target: FromUplink},
	{At: failoverKill + 55*ms, Kind: LinkRestore, Target: FromUplink},
	{At: failoverKill + 55*ms, Kind: LinkRestore, Target: ToUplink},
	{At: failoverKill + 60*ms, Kind: MCRestart, Ctrl: 0},
}}

// FailoverConfig parameterizes FailoverScenario.
type FailoverConfig struct {
	From, To topo.NodeID   // the transfer's endpoints
	Start    time.Duration // the kill time; zero keeps Failover's
}

// FailoverScenario resolves Failover with its kill moved to cfg.Start. The
// mckill benchmark workload calls it to jitter the kill; it goes once that
// workload runs harness.Scenario values (ROADMAP item 5(b)).
func FailoverScenario(g *topo.Graph, seed uint64, cfg FailoverConfig) (Schedule, error) {
	var shift time.Duration
	if cfg.Start > 0 {
		shift = cfg.Start - failoverKill
	}
	sc := Script{Stream: Failover.Stream}
	for _, f := range Failover.Faults {
		f.At += shift
		if f.At <= 0 {
			return nil, fmt.Errorf("chaos: a kill at %v puts its %v before the schedule starts",
				cfg.Start, f.Kind)
		}
		sc.Faults = append(sc.Faults, f)
	}
	return sc.Resolve(g, seed, cfg.From, cfg.To)
}

// ctrlA and ctrlB are the two members of Partition's cluster: controller
// hosts 0 (the founding active) and 1 (its standby).
var ctrlA, ctrlB = netsim.MgmtCtrl(0), netsim.MgmtCtrl(1)

// Partition is the management-partition storm of a fat-tree running a
// two-member mic.Cluster.
//
// Act 1, a symmetric split: A's lease expires and it steps down, B takes
// over with a bumped fencing epoch, and when the split heals A rejoins as a
// demoted standby.
//
// Act 2, an asymmetric zombie primary: B loses only its outbound management
// paths, to A and to a seed-drawn half of the switches, so A takes over
// while B (with fencing ablated) never learns it was deposed. A fabric cut
// 15 ms in, after a fenced cluster's takeover, forces a repair that the
// zombie and the new active race to install.
//
// Act 3, the heal: every management cut is restored, the fabric cut heals,
// and the deposed member must rejoin with zero stale rules and zero journal
// divergence (fencing on).
var Partition = Script{Stream: "chaos-partition", Faults: Schedule{
	{At: 30 * ms, Kind: MgmtCut, MFrom: ctrlA, MTo: ctrlB},
	{At: 30 * ms, Kind: MgmtCut, MFrom: ctrlB, MTo: ctrlA},
	{At: 70 * ms, Kind: MgmtHeal, MFrom: ctrlA, MTo: ctrlB},
	{At: 70 * ms, Kind: MgmtHeal, MFrom: ctrlB, MTo: ctrlA},
	{At: 90 * ms, Kind: MgmtCut, MFrom: ctrlB, MTo: ctrlA},
	{At: 90 * ms, Kind: MgmtCut, MFrom: ctrlB, Target: HalfSwitches},
	{At: 105 * ms, Kind: LinkCut, Target: ToUplink},
	{At: 130 * ms, Kind: MgmtHeal, MFrom: ctrlB, MTo: ctrlA},
	{At: 130 * ms, Kind: MgmtHeal, MFrom: ctrlB, Target: HalfSwitches},
	{At: 135 * ms, Kind: LinkRestore, Target: ToUplink},
}}
