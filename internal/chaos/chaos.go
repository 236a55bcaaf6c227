// Package chaos injects deterministic fault schedules into the simulated
// fabric: link cuts and flaps, switch crashes and restarts, gray link
// degradation (loss/duplication/reordering/corruption storms), southbound
// control-channel degradation, and correlated whole-pod failures. A
// Schedule is data — reproducible from a seed, printable, and replayable —
// and a Runner turns it into SetLinkDown/SetSwitchDown/SetLinkFault calls
// and southbound loss settings at the scheduled virtual times. Tests and the micsim chaos scenario use it
// to assert that MIC's self-healing control plane keeps transfers alive
// through arbitrary (survivable) fault storms.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mic/internal/ctrlplane"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// Kind enumerates fault types.
type Kind int

const (
	// LinkCut severs the cable attached to (Node, Port); LinkRestore heals
	// it. A cut immediately followed by a restore is a flap.
	LinkCut Kind = iota
	LinkRestore
	// SwitchCrash takes a whole switch dark (data and control plane);
	// SwitchRestart brings it back with whatever rules it held.
	SwitchCrash
	SwitchRestart
	// ControlLoss sets the southbound channel's message loss rate to Loss
	// (use 0 to end the degradation window).
	ControlLoss
	// PodCrash crashes every switch of fat-tree pod Pod at once — the
	// correlated failure a shared power feed or top-of-pod PDU causes.
	// PodRestart restores them all.
	PodCrash
	PodRestart
	// LinkDegrade installs Profile as the per-link fault profile of the
	// cable at (Node, Port) — loss, duplication, reordering, corruption —
	// without any port-down event: the gray failure the control plane cannot
	// see, only the data plane's health machinery. LinkClear removes it.
	LinkDegrade
	LinkClear
	// MCKill crashes the controller host with index Ctrl (registered via
	// netsim.RegisterCtrlHost): its process dies mid-transaction, heartbeats
	// stop, and — in a mic.Cluster — a standby must detect and take over.
	// MCRestart brings the host back; the controller rejoins as a standby.
	MCKill
	MCRestart
	// MgmtCut severs the MFrom→MTo direction of the management network —
	// both endpoints stay alive, messages between them vanish in flight.
	// Cut one direction only for an asymmetric partition. MgmtHeal restores
	// the direction.
	MgmtCut
	MgmtHeal
)

func (k Kind) String() string {
	switch k {
	case LinkCut:
		return "link-cut"
	case LinkRestore:
		return "link-restore"
	case SwitchCrash:
		return "switch-crash"
	case SwitchRestart:
		return "switch-restart"
	case ControlLoss:
		return "control-loss"
	case PodCrash:
		return "pod-crash"
	case PodRestart:
		return "pod-restart"
	case LinkDegrade:
		return "link-degrade"
	case LinkClear:
		return "link-clear"
	case MCKill:
		return "mc-kill"
	case MCRestart:
		return "mc-restart"
	case MgmtCut:
		return "mgmt-cut"
	case MgmtHeal:
		return "mgmt-heal"
	}
	return fmt.Sprintf("chaos.Kind(%d)", int(k))
}

// Fault is one scheduled fault. Which fields matter depends on Kind:
// link faults use Node/Port, switch faults use Node, pod faults use Pod,
// ControlLoss uses Loss, LinkDegrade uses Node/Port/Profile,
// MCKill/MCRestart use Ctrl, and MgmtCut/MgmtHeal use MFrom/MTo.
type Fault struct {
	At      time.Duration // offset from the moment the schedule starts playing
	Kind    Kind
	Node    topo.NodeID
	Port    int
	Pod     int
	Ctrl    int // controller-host index for MCKill/MCRestart
	Loss    float64
	Profile netsim.FaultProfile

	// MFrom and MTo are the management-network endpoints of a directional
	// MgmtCut/MgmtHeal.
	MFrom, MTo netsim.MgmtEnd
}

func (f Fault) render(g *topo.Graph) string {
	switch f.Kind {
	case LinkCut, LinkRestore:
		peer := g.Node(f.Node).Ports[f.Port].Peer
		return fmt.Sprintf("%v %s %s<->%s", f.At, f.Kind, g.Node(f.Node).Name, g.Node(peer).Name)
	case SwitchCrash, SwitchRestart:
		return fmt.Sprintf("%v %s %s", f.At, f.Kind, g.Node(f.Node).Name)
	case ControlLoss:
		return fmt.Sprintf("%v %s rate=%.2f", f.At, f.Kind, f.Loss)
	case PodCrash, PodRestart:
		return fmt.Sprintf("%v %s pod%d", f.At, f.Kind, f.Pod)
	case LinkDegrade:
		peer := g.Node(f.Node).Ports[f.Port].Peer
		return fmt.Sprintf("%v %s %s<->%s loss=%.2f dup=%.2f reorder=%.2f corrupt=%.2f",
			f.At, f.Kind, g.Node(f.Node).Name, g.Node(peer).Name,
			f.Profile.Loss, f.Profile.Dup, f.Profile.Reorder, f.Profile.Corrupt)
	case LinkClear:
		peer := g.Node(f.Node).Ports[f.Port].Peer
		return fmt.Sprintf("%v %s %s<->%s", f.At, f.Kind, g.Node(f.Node).Name, g.Node(peer).Name)
	case MCKill, MCRestart:
		return fmt.Sprintf("%v %s ctrl%d", f.At, f.Kind, f.Ctrl)
	case MgmtCut, MgmtHeal:
		return fmt.Sprintf("%v %s %s->%s", f.At, f.Kind, mgmtEndName(g, f.MFrom), mgmtEndName(g, f.MTo))
	}
	return fmt.Sprintf("%v %s", f.At, f.Kind)
}

// mgmtEndName renders a management endpoint with switch names resolved.
func mgmtEndName(g *topo.Graph, e netsim.MgmtEnd) string {
	if e.Ctrl >= 0 {
		return fmt.Sprintf("ctrl%d", e.Ctrl)
	}
	return g.Node(e.Node).Name
}

// Schedule is a fault sequence ordered by At.
type Schedule []Fault

// Render pretty-prints the schedule with topology names resolved.
func (s Schedule) Render(g *topo.Graph) string {
	var b strings.Builder
	for _, f := range s {
		b.WriteString("  ")
		b.WriteString(f.render(g))
		b.WriteByte('\n')
	}
	return b.String()
}

func (s Schedule) sorted() Schedule {
	out := append(Schedule(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Pod membership is recovered from the fat-tree builder's naming scheme
// ("agg<pod>_<i>", "edge<pod>_<i>"); chaos only targets pods on fat trees.

// podOf returns the pod number encoded in a switch name, or 0.
func podOf(name string) int {
	var rest string
	switch {
	case strings.HasPrefix(name, "agg"):
		rest = name[3:]
	case strings.HasPrefix(name, "edge"):
		rest = name[4:]
	default:
		return 0
	}
	var pod, i int
	if _, err := fmt.Sscanf(rest, "%d_%d", &pod, &i); err != nil {
		return 0
	}
	return pod
}

// PodSwitches returns every switch of fat-tree pod (1-based).
func PodSwitches(g *topo.Graph, pod int) []topo.NodeID {
	var out []topo.NodeID
	for _, id := range g.Switches() {
		if podOf(g.Node(id).Name) == pod {
			out = append(out, id)
		}
	}
	return out
}

// PodOfHost returns the pod a host lives in (via its edge switch), or 0.
func PodOfHost(g *topo.Graph, host topo.NodeID) int {
	n := g.Node(host)
	if n.Kind != topo.KindHost || len(n.Ports) == 0 {
		return 0
	}
	return podOf(g.Node(n.Ports[0].Peer).Name)
}

// switchesByPrefix collects switches whose name starts with prefix,
// optionally restricted to one pod (0 = any).
func switchesByPrefix(g *topo.Graph, prefix string, pod int) []topo.NodeID {
	var out []topo.NodeID
	for _, id := range g.Switches() {
		name := g.Node(id).Name
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		if pod != 0 && podOf(name) != pod {
			continue
		}
		out = append(out, id)
	}
	return out
}

// Runner plays a Schedule against a live simulation.
type Runner struct {
	Net *netsim.Network
	Ch  *ctrlplane.Channel // may be nil if the schedule has no ControlLoss

	// OnFault, when set, observes each fault as it is applied.
	OnFault func(Fault)

	// Applied logs the faults in application order.
	Applied []Fault
}

// NewRunner builds a Runner; ch may be nil when no ControlLoss fault will
// be played.
func NewRunner(net *netsim.Network, ch *ctrlplane.Channel) *Runner {
	return &Runner{Net: net, Ch: ch}
}

// Play schedules every fault relative to the engine's current time. It
// returns immediately; the faults fire as the engine advances.
func (r *Runner) Play(s Schedule) {
	for _, f := range s.sorted() {
		f := f
		r.Net.Eng.After(f.At, func() { r.apply(f) })
	}
}

func (r *Runner) apply(f Fault) {
	switch f.Kind {
	case LinkCut:
		r.Net.SetLinkDown(f.Node, f.Port, true)
	case LinkRestore:
		r.Net.SetLinkDown(f.Node, f.Port, false)
	case SwitchCrash:
		r.Net.SetSwitchDown(f.Node, true)
	case SwitchRestart:
		r.Net.SetSwitchDown(f.Node, false)
	case ControlLoss:
		if r.Ch != nil {
			r.Ch.LossRate = f.Loss
		}
	case PodCrash:
		for _, id := range PodSwitches(r.Net.Graph, f.Pod) {
			r.Net.SetSwitchDown(id, true)
		}
	case PodRestart:
		for _, id := range PodSwitches(r.Net.Graph, f.Pod) {
			r.Net.SetSwitchDown(id, false)
		}
	case LinkDegrade:
		r.Net.SetLinkFault(f.Node, f.Port, f.Profile)
	case LinkClear:
		r.Net.ClearLinkFault(f.Node, f.Port)
	case MCKill:
		r.Net.SetCtrlHostDown(f.Ctrl, true)
	case MCRestart:
		r.Net.SetCtrlHostDown(f.Ctrl, false)
	case MgmtCut:
		r.Net.SetMgmtCut(f.MFrom, f.MTo, true)
	case MgmtHeal:
		r.Net.SetMgmtCut(f.MFrom, f.MTo, false)
	}
	r.Applied = append(r.Applied, f)
	if r.OnFault != nil {
		r.OnFault(f)
	}
}

// Scenario's timing and control-loss rate.
const (
	scenarioStart   = 5 * time.Millisecond  // first fault time
	scenarioSpacing = 40 * time.Millisecond // gap between fault groups
	scenarioOutage  = 25 * time.Millisecond // crash duration before restart
	scenarioFlap    = 8 * time.Millisecond  // link down-time in a flap
	scenarioLoss    = 0.25                  // control-loss rate of the degradation window
	scenarioLossFor = 30 * time.Millisecond // degradation window length
)

// edgeUplinks returns the edge switch of host and, in port order, the ports
// of that switch that lead to an aggregation switch.
func edgeUplinks(g *topo.Graph, host topo.NodeID) (topo.NodeID, []int) {
	edge := g.Node(host).Ports[0].Peer
	var up []int
	for port, p := range g.Node(edge).Ports {
		if strings.HasPrefix(g.Node(p.Peer).Name, "agg") {
			up = append(up, port)
		}
	}
	return edge, up
}

// Scenario builds the standard five-act fault storm for a fat-tree,
// deterministically from seed: an uplink flap at the initiator's edge, a
// core-switch crash/restart, a control-channel degradation window, an
// aggregation-switch crash in the responder's pod, and a correlated
// whole-pod failure of a bystander pod. Victim selection is randomized by
// seed, but every act leaves at least one live path between from and to, so
// a self-healing control plane must deliver the transfer in full.
func Scenario(g *topo.Graph, seed uint64, from, to topo.NodeID) (Schedule, error) {
	fromPod, toPod := PodOfHost(g, from), PodOfHost(g, to)
	if fromPod == 0 || toPod == 0 {
		return nil, fmt.Errorf("chaos: from/to must be fat-tree hosts (got pods %d, %d)", fromPod, toPod)
	}
	rng := sim.NewRNG(seed).Stream("chaos-scenario")
	var s Schedule
	at := scenarioStart

	// Act 1: flap one uplink of the initiator's edge switch. The edge keeps
	// its other aggregation uplink, so a detour exists while the link is
	// down — and the flap may even self-heal before repair finishes.
	edgeID, uplinks := edgeUplinks(g, from)
	if len(uplinks) < 2 {
		return nil, fmt.Errorf("chaos: edge %s has %d agg uplinks, need 2+", g.Node(edgeID).Name, len(uplinks))
	}
	flapPort := sim.Pick(rng, uplinks)
	s = append(s,
		Fault{At: at, Kind: LinkCut, Node: edgeID, Port: flapPort},
		Fault{At: at + scenarioFlap, Kind: LinkRestore, Node: edgeID, Port: flapPort})
	at += scenarioSpacing

	// Act 2: crash one core switch. The other cores keep every pod pair
	// connected.
	cores := switchesByPrefix(g, "core", 0)
	if len(cores) < 2 {
		return nil, fmt.Errorf("chaos: need 2+ core switches, have %d", len(cores))
	}
	core := sim.Pick(rng, cores)
	s = append(s,
		Fault{At: at, Kind: SwitchCrash, Node: core},
		Fault{At: at + scenarioOutage, Kind: SwitchRestart, Node: core})
	at += scenarioSpacing

	// Act 3: degrade the southbound control channel. Repairs triggered in
	// this window must converge through retransmission.
	s = append(s,
		Fault{At: at, Kind: ControlLoss, Loss: scenarioLoss},
		Fault{At: at + scenarioLossFor, Kind: ControlLoss, Loss: 0})
	// Overlap the degradation with a link cut so a repair actually rides the
	// lossy channel: cut an uplink of the responder's edge switch.
	respEdgeID, respUplinks := edgeUplinks(g, to)
	lossyCut := sim.Pick(rng, respUplinks)
	s = append(s,
		Fault{At: at + scenarioLossFor/4, Kind: LinkCut, Node: respEdgeID, Port: lossyCut},
		Fault{At: at + scenarioSpacing, Kind: LinkRestore, Node: respEdgeID, Port: lossyCut})
	at += scenarioSpacing + scenarioSpacing/2

	// Act 4: crash one aggregation switch in the responder's pod; its twin
	// carries the pod while it is dark.
	aggs := switchesByPrefix(g, "agg", toPod)
	if len(aggs) < 2 {
		return nil, fmt.Errorf("chaos: pod %d has %d agg switches, need 2+", toPod, len(aggs))
	}
	agg := sim.Pick(rng, aggs)
	s = append(s,
		Fault{At: at, Kind: SwitchCrash, Node: agg},
		Fault{At: at + scenarioOutage, Kind: SwitchRestart, Node: agg})
	at += scenarioSpacing

	// Act 5: correlated pod failure — a bystander pod loses every switch at
	// once. From/To traffic does not transit third pods in a fat tree, but
	// the MC must absorb the event storm (and any channels through that pod
	// must repair or terminate cleanly) without disturbing the transfer.
	var bystanders []int
	npods := 0
	for _, id := range g.Switches() {
		if p := podOf(g.Node(id).Name); p > npods {
			npods = p
		}
	}
	for p := 1; p <= npods; p++ {
		if p != fromPod && p != toPod {
			bystanders = append(bystanders, p)
		}
	}
	if len(bystanders) == 0 {
		return nil, fmt.Errorf("chaos: no bystander pod (from pod %d, to pod %d)", fromPod, toPod)
	}
	pod := sim.Pick(rng, bystanders)
	s = append(s,
		Fault{At: at, Kind: PodCrash, Pod: pod},
		Fault{At: at + scenarioOutage, Kind: PodRestart, Pod: pod})

	return s.sorted(), nil
}

// LossyScenario's timing and loss.
const (
	lossyStart   = 5 * time.Millisecond  // first degradation time
	lossySpacing = 40 * time.Millisecond // gap between acts
	lossyWindow  = 60 * time.Millisecond // how long each degradation lasts
	lossyLoss    = 0.2                   // loss rate of the moderate acts
)

// LossyScenario builds a deterministic gray-failure storm for a fat-tree:
// no link ever goes administratively down, so the MC sees nothing — every
// fault is a silent per-link profile the endpoints' health machinery must
// detect and route around. Three overlapping acts: a lossy uplink at the
// initiator's edge, a mangled (dup+reorder+corrupt) uplink at the
// responder's edge, and a full blackhole of one core switch's cable that
// later clears on its own.
func LossyScenario(g *topo.Graph, seed uint64, from, to topo.NodeID) (Schedule, error) {
	if PodOfHost(g, from) == 0 || PodOfHost(g, to) == 0 {
		return nil, fmt.Errorf("chaos: from/to must be fat-tree hosts")
	}
	rng := sim.NewRNG(seed).Stream("chaos-lossy")
	var s Schedule
	at := lossyStart

	// Act 1: lossyLoss random loss on one uplink of the initiator's edge.
	// Transport convergence territory — the m-flows crossing it degrade.
	fromEdge, up := edgeUplinks(g, from)
	if len(up) == 0 {
		return nil, fmt.Errorf("chaos: initiator edge has no agg uplinks")
	}
	p1 := sim.Pick(rng, up)
	s = append(s,
		Fault{At: at, Kind: LinkDegrade, Node: fromEdge, Port: p1,
			Profile: netsim.FaultProfile{Loss: lossyLoss}},
		Fault{At: at + lossyWindow, Kind: LinkClear, Node: fromEdge, Port: p1})
	at += lossySpacing

	// Act 2: a mangler on one uplink of the responder's edge — duplication,
	// reordering and corruption at once, the worst kind of flaky optic.
	toEdge, up := edgeUplinks(g, to)
	if len(up) == 0 {
		return nil, fmt.Errorf("chaos: responder edge has no agg uplinks")
	}
	p2 := sim.Pick(rng, up)
	s = append(s,
		Fault{At: at, Kind: LinkDegrade, Node: toEdge, Port: p2,
			Profile: netsim.FaultProfile{Loss: lossyLoss / 2, Dup: 0.1, Reorder: 0.2, Corrupt: 0.05}},
		Fault{At: at + lossyWindow, Kind: LinkClear, Node: toEdge, Port: p2})
	at += lossySpacing

	// Act 3: silent blackhole of one core switch's first cable. Any m-flow
	// routed across it stalls completely until the profile clears — the MC
	// never hears a port-down, so only endpoint health can respond.
	cores := switchesByPrefix(g, "core", 0)
	if len(cores) == 0 {
		return nil, fmt.Errorf("chaos: no core switches")
	}
	core := sim.Pick(rng, cores)
	var corePort = -1
	for port := range g.Node(core).Ports {
		if corePort < 0 || port < corePort {
			corePort = port
		}
	}
	s = append(s,
		Fault{At: at, Kind: LinkDegrade, Node: core, Port: corePort,
			Profile: netsim.FaultProfile{Loss: 1}},
		Fault{At: at + lossyWindow, Kind: LinkClear, Node: core, Port: corePort})

	return s.sorted(), nil
}

// FailoverConfig parameterizes FailoverScenario. A zero Start picks the
// default.
type FailoverConfig struct {
	// From and To are the transfer endpoints whose channels must ride
	// through the controller kill. Both required.
	From, To topo.NodeID

	Start time.Duration // kill time, after the transfer is mid-flight (default 30ms)
}

// FailoverScenario's victim and timing after the kill.
const (
	failoverCtrl   = 0                     // the controller host killed: the primary
	failoverPreCut = time.Millisecond      // how long before the kill the responder-side cut lands
	failoverOutage = 60 * time.Millisecond // how long the killed controller stays dead
	failoverCut    = 5 * time.Millisecond  // offset after the kill at which a second link is cut
	failoverHeal   = 50 * time.Millisecond // how long the mid-blackout cut lasts
)

// FailoverScenario builds the controller-kill storm for a fat-tree running a
// mic.Cluster, deterministically from seed. Four acts: an uplink of the
// responder's edge is cut just before the kill, so the active dies with a
// repair in flight — the new rule epoch may be installed but the old
// epoch's purge dies with the process, exactly the stale state takeover
// reconciliation exists to clean up; the active controller is killed
// mid-transfer; while the cluster is headless, one uplink of the
// initiator's edge is cut — a fabric failure no dead controller can repair,
// testing the new active's post-takeover repair sweep; and finally the dead
// controller restarts and must rejoin as a standby by journal replay. Both
// cuts heal later so flapped-away capacity returns.
func FailoverScenario(g *topo.Graph, seed uint64, cfg FailoverConfig) (Schedule, error) {
	if cfg.Start <= 0 {
		cfg.Start = 30 * time.Millisecond
	}
	if PodOfHost(g, cfg.From) == 0 || PodOfHost(g, cfg.To) == 0 {
		return nil, fmt.Errorf("chaos: From/To must be fat-tree hosts")
	}
	if failoverPreCut >= cfg.Start {
		return nil, fmt.Errorf("chaos: Start %v must be later than the %v pre-kill cut", cfg.Start, failoverPreCut)
	}
	rng := sim.NewRNG(seed).Stream("chaos-failover")
	fromEdge, fromUp := edgeUplinks(g, cfg.From)
	toEdge, toUp := edgeUplinks(g, cfg.To)
	if len(fromUp) < 2 || len(toUp) < 2 {
		return nil, fmt.Errorf("chaos: edges %s/%s need 2+ agg uplinks each",
			g.Node(fromEdge).Name, g.Node(toEdge).Name)
	}
	preCutPort := sim.Pick(rng, toUp)
	cutPort := sim.Pick(rng, fromUp)
	s := Schedule{
		{At: cfg.Start - failoverPreCut, Kind: LinkCut, Node: toEdge, Port: preCutPort},
		{At: cfg.Start, Kind: MCKill, Ctrl: failoverCtrl},
		{At: cfg.Start + failoverCut, Kind: LinkCut, Node: fromEdge, Port: cutPort},
		{At: cfg.Start + failoverOutage, Kind: MCRestart, Ctrl: failoverCtrl},
		{At: cfg.Start + failoverCut + failoverHeal, Kind: LinkRestore, Node: fromEdge, Port: cutPort},
		{At: cfg.Start + failoverCut + failoverHeal, Kind: LinkRestore, Node: toEdge, Port: preCutPort},
	}
	return s.sorted(), nil
}

// PartitionScenario's timing. The cluster under test has controller hosts 0
// (A, the founding active) and 1 (B, its standby).
const (
	partitionStart   = 30 * time.Millisecond // act 1 split time, mid-transfer
	partitionWindow  = 40 * time.Millisecond // how long each partition lasts
	partitionSpacing = 20 * time.Millisecond // gap between the acts
	// partitionCutAt is the offset into act 2 at which a fabric link cut
	// lands — late enough that a fenced cluster has completed its takeover,
	// so the repair race pits the new active against the zombie.
	partitionCutAt = 15 * time.Millisecond
	partitionHeal  = 30 * time.Millisecond // how long the act-2 fabric cut lasts
)

// PartitionScenario builds the management-partition storm for a fat-tree
// running a two-member mic.Cluster, deterministically from seed. Three acts:
//
// Act 1 — symmetric split: ctrlA↔ctrlB cut in both directions. A's lease
// expires and it steps down; B takes over with a bumped fencing epoch. When
// the split heals, A hears B's heartbeats and rejoins as a demoted standby —
// the partition-heal-and-rejoin path.
//
// Act 2 — asymmetric zombie-primary: the now-active B loses its outbound
// management paths only — to A (its beats vanish, so A will take over) and
// to a seed-picked strict subset of switches. B itself hears everything and,
// with fencing ablated, has no idea it was deposed. Mid-partition a fabric
// link cut forces a repair: the zombie and the new active race to install
// rules, which is exactly the write race fencing epochs must win. All inbound
// paths to B stay up — the asymmetry is the point.
//
// Act 3 — heal: every management cut is restored, the fabric cut heals, and
// the deposed member must rejoin as a standby with zero stale rules and zero
// journal divergence (fencing on).
func PartitionScenario(g *topo.Graph, seed uint64, from, to topo.NodeID) (Schedule, error) {
	if PodOfHost(g, from) == 0 || PodOfHost(g, to) == 0 {
		return nil, fmt.Errorf("chaos: from/to must be fat-tree hosts")
	}
	rng := sim.NewRNG(seed).Stream("chaos-partition")
	ctrlA, ctrlB := netsim.MgmtCtrl(0), netsim.MgmtCtrl(1)
	var s Schedule

	// Act 1: symmetric controller split, healed after partitionWindow.
	t1 := partitionStart
	s = append(s,
		Fault{At: t1, Kind: MgmtCut, MFrom: ctrlA, MTo: ctrlB},
		Fault{At: t1, Kind: MgmtCut, MFrom: ctrlB, MTo: ctrlA},
		Fault{At: t1 + partitionWindow, Kind: MgmtHeal, MFrom: ctrlA, MTo: ctrlB},
		Fault{At: t1 + partitionWindow, Kind: MgmtHeal, MFrom: ctrlB, MTo: ctrlA})

	// Act 2: asymmetric zombie — B (the active since act 1) loses outbound
	// reachability to A and to a strict subset of switches. The subset is a
	// seed-picked half of the fabric, so the zombie can still damage the
	// other half.
	t2 := t1 + partitionWindow + partitionSpacing
	switches := g.Switches()
	if len(switches) < 2 {
		return nil, fmt.Errorf("chaos: need 2+ switches for a strict subset, have %d", len(switches))
	}
	perm := rng.Perm(len(switches))
	subset := make([]topo.NodeID, 0, len(switches)/2)
	for _, i := range perm[:len(switches)/2] {
		subset = append(subset, switches[i])
	}
	sort.Slice(subset, func(i, j int) bool { return subset[i] < subset[j] })
	s = append(s, Fault{At: t2, Kind: MgmtCut, MFrom: ctrlB, MTo: ctrlA})
	for _, id := range subset {
		s = append(s, Fault{At: t2, Kind: MgmtCut, MFrom: ctrlB, MTo: netsim.MgmtSwitch(id)})
	}
	// Mid-partition fabric cut: an uplink of the responder's edge, forcing
	// a self-healing reroute while two controllers think they own the
	// fabric. Landed after partitionCutAt so a fenced cluster's takeover
	// (lease + misses, single-digit milliseconds) has already completed.
	toEdge, toUp := edgeUplinks(g, to)
	if len(toUp) < 2 {
		return nil, fmt.Errorf("chaos: edge %s needs 2+ agg uplinks", g.Node(toEdge).Name)
	}
	cutPort := sim.Pick(rng, toUp)
	s = append(s, Fault{At: t2 + partitionCutAt, Kind: LinkCut, Node: toEdge, Port: cutPort})
	s = append(s, Fault{At: t2 + partitionCutAt + partitionHeal, Kind: LinkRestore, Node: toEdge, Port: cutPort})

	// Act 3: heal every management cut; the deposed member rejoins.
	t3 := t2 + partitionWindow
	s = append(s, Fault{At: t3, Kind: MgmtHeal, MFrom: ctrlB, MTo: ctrlA})
	for _, id := range subset {
		s = append(s, Fault{At: t3, Kind: MgmtHeal, MFrom: ctrlB, MTo: netsim.MgmtSwitch(id)})
	}

	return s.sorted(), nil
}
