package flowtable

import (
	"fmt"

	"mic/internal/addr"
	"mic/internal/packet"
)

// Op names what an Action does.
type Op uint8

// Action opcodes. The zero Op is not an action.
const (
	OpSetEthSrc Op = iota + 1
	OpSetEthDst
	OpSetIPSrc
	OpSetIPDst
	OpSetTPSrc
	OpSetTPDst
	OpPushMPLS
	OpPopMPLS
	OpSetMPLS
	OpOutput
	OpOutputGroup
)

// Action is one step of an OpenFlow action list: an opcode and its one
// argument (an address, a port number, a label, a group ID; unused by
// PopMPLS). Set-field and MPLS actions mutate the packet; Output and
// OutputGroup do not mutate but tell the switch where to forward the packet
// as rewritten so far. An Action is a plain value — a list of them is one
// allocation, and none to build — made by the constructors below.
type Action struct {
	Op  Op
	Arg uint64
}

// SetEthSrc rewrites the source MAC.
func SetEthSrc(m addr.MAC) Action { return Action{OpSetEthSrc, uint64(m)} }

// SetEthDst rewrites the destination MAC.
func SetEthDst(m addr.MAC) Action { return Action{OpSetEthDst, uint64(m)} }

// SetIPSrc rewrites the source IPv4 address.
func SetIPSrc(ip addr.IP) Action { return Action{OpSetIPSrc, uint64(ip)} }

// SetIPDst rewrites the destination IPv4 address.
func SetIPDst(ip addr.IP) Action { return Action{OpSetIPDst, uint64(ip)} }

// PushMPLS pushes a label onto the stack.
func PushMPLS(l addr.Label) Action { return Action{OpPushMPLS, uint64(l)} }

// PopMPLS pops the outermost label.
func PopMPLS() Action { return Action{Op: OpPopMPLS} }

// SetMPLS rewrites the outermost label in place (push if absent, matching
// permissive software-switch behaviour).
func SetMPLS(l addr.Label) Action { return Action{OpSetMPLS, uint64(l)} }

// Output forwards the packet (as rewritten so far) out a port.
func Output(port int) Action { return Action{OpOutput, uint64(port)} }

// GroupID names a group table entry.
type GroupID uint32

// OutputGroup hands the packet to a group (type ALL): every bucket receives
// its own clone, applies its actions, and forwards. This is the OpenFlow
// mechanism behind MIC's partial multicast.
func OutputGroup(id GroupID) Action { return Action{OpOutputGroup, uint64(id)} }

// Apply mutates p for set-field/MPLS actions; it is a no-op for
// Output/OutputGroup, which the switch interprets itself.
func (a Action) Apply(p *packet.Packet) {
	switch a.Op {
	case OpSetEthSrc:
		p.SrcMAC = addr.MAC(a.Arg)
	case OpSetEthDst:
		p.DstMAC = addr.MAC(a.Arg)
	case OpSetIPSrc:
		p.SetSrcIP(addr.IP(a.Arg))
	case OpSetIPDst:
		p.SetDstIP(addr.IP(a.Arg))
	case OpSetTPSrc:
		p.SrcPort = uint16(a.Arg)
	case OpSetTPDst:
		p.DstPort = uint16(a.Arg)
	case OpPushMPLS:
		p.PushMPLS(addr.Label(a.Arg))
	case OpPopMPLS:
		p.PopMPLS()
	case OpSetMPLS:
		p.SetTopMPLS(addr.Label(a.Arg))
	}
}

func (a Action) String() string {
	switch a.Op {
	case OpSetEthSrc:
		return fmt.Sprintf("set_eth_src:%v", addr.MAC(a.Arg))
	case OpSetEthDst:
		return fmt.Sprintf("set_eth_dst:%v", addr.MAC(a.Arg))
	case OpSetIPSrc:
		return fmt.Sprintf("set_ip_src:%v", addr.IP(a.Arg))
	case OpSetIPDst:
		return fmt.Sprintf("set_ip_dst:%v", addr.IP(a.Arg))
	case OpSetTPSrc:
		return fmt.Sprintf("set_tp_src:%d", a.Arg)
	case OpSetTPDst:
		return fmt.Sprintf("set_tp_dst:%d", a.Arg)
	case OpPushMPLS:
		return fmt.Sprintf("push_mpls:%v", addr.Label(a.Arg))
	case OpPopMPLS:
		return "pop_mpls"
	case OpSetMPLS:
		return fmt.Sprintf("set_mpls:%v", addr.Label(a.Arg))
	case OpOutput:
		return fmt.Sprintf("output:%d", int(a.Arg))
	case OpOutputGroup:
		return fmt.Sprintf("group:%d", a.Arg)
	}
	return fmt.Sprintf("op%d:%d", a.Op, a.Arg)
}

// Bucket is one replication branch of an ALL group.
type Bucket struct {
	Actions []Action
}

// Group is an OpenFlow group-table entry of type ALL.
type Group struct {
	ID      GroupID
	Buckets []Bucket
}

// MutationCount reports how many packet-mutating actions the list contains;
// the data plane charges per-action CPU cost using it.
func MutationCount(actions []Action) int {
	n := 0
	for _, a := range actions {
		if a.Op != OpOutput && a.Op != OpOutputGroup {
			n++
		}
	}
	return n
}
