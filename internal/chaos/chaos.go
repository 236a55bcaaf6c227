// Package chaos injects deterministic fault schedules into the simulated
// fabric: link cuts and flaps, switch crashes and restarts, gray link
// degradation (loss/duplication/reordering/corruption storms), southbound
// control-channel degradation, correlated whole-pod failures, controller
// kills and management partitions. A Schedule is data: printable,
// comparable and replayable. A Script is a schedule whose faults name their
// victims by role (the initiator's edge uplink, a core switch, a bystander
// pod); Script.Resolve draws each victim from a named stream of the run's
// seed, for one transfer's endpoints on one graph. A Runner turns a resolved
// schedule into SetLinkDown/SetSwitchDown/SetLinkFault calls and southbound
// loss settings at the scheduled virtual times. Fabric, Lossy, Failover and
// Partition are the scripts the micsim scenarios and figs s8 and s11 play.
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
// MCKill/MCRestart use Ctrl, and MgmtCut/MgmtHeal use MFrom/MTo. A fault
// whose Target is not Fixed leaves its victim's fields to Script.Resolve.
type Fault struct {
	At      time.Duration // offset from the moment the schedule starts playing
	Kind    Kind
	Target  Role
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
func PodSwitches(g *topo.Graph, pod int) []topo.NodeID { return switchesIn(g, "", pod) }

// switchesIn collects the switches whose name starts with prefix and whose
// pod is pod (0 for the cores).
func switchesIn(g *topo.Graph, prefix string, pod int) []topo.NodeID {
	var out []topo.NodeID
	for _, id := range g.Switches() {
		if name := g.Node(id).Name; strings.HasPrefix(name, prefix) && podOf(name) == pod {
			out = append(out, id)
		}
	}
	return out
}

// Runner plays a Schedule against a live simulation.
type Runner struct {
	Net *netsim.Network
	Ch  *ctrlplane.Channel // nil refuses a schedule with a ControlLoss fault

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

// Play schedules every fault relative to the engine's current time and
// returns; the faults fire as the engine advances. It plays nothing and
// returns an error if a fault's victim was never resolved, or if a
// ControlLoss fault has no southbound channel to degrade.
func (r *Runner) Play(s Schedule) error {
	for _, f := range s {
		if f.Target != Fixed {
			return fmt.Errorf("chaos: %v at %v names its victim by role; resolve the script first",
				f.Kind, f.At)
		}
		if f.Kind == ControlLoss && r.Ch == nil {
			return fmt.Errorf("chaos: %v at %v has no southbound channel to degrade", f.Kind, f.At)
		}
	}
	for _, f := range s.sorted() {
		r.Net.Eng.After(f.At, func() { r.apply(f) })
	}
	return nil
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
		r.Ch.LossRate = f.Loss
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
