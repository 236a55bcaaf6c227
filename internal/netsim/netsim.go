// Package netsim executes a topo.Graph on the discrete-event engine: links
// with bandwidth, propagation delay and drop-tail queues; switches running
// an OpenFlow-style flow table; and hosts that hand packets to a transport
// stack. It replaces the paper's Mininet + Open vSwitch testbed.
//
// Every simulated operation charges virtual CPU time to a
// metrics.CPUAccount, which is how the repository reproduces the paper's
// CPU-usage comparison (Fig 9c) without physical probes.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package netsim

import (
	"fmt"
	"time"

	"mic/internal/addr"
	"mic/internal/chunk"
	"mic/internal/flowtable"
	"mic/internal/metrics"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

// Config sets the physical parameters of the emulated fabric. Zero fields
// take the defaults in DefaultConfig, which are calibrated in
// EXPERIMENTS.md against the paper's Mininet testbed.
type Config struct {
	LinkBandwidthBps int64         // link rate in bits/s
	LinkDelay        time.Duration // one-way propagation delay
	QueueCapPackets  int           // per-direction drop-tail queue capacity
	SwitchLatency    time.Duration // software-switch forwarding latency
	HostLatency      time.Duration // host protocol-stack latency per packet

	// Virtual CPU costs (Fig 9c substitutes). CostSwitchPacket is the
	// slow path — a full classifier lookup, OVS's userspace upcall;
	// CostSwitchCacheHit is the microflow-cache fast path. Charging them
	// separately mirrors the fast/slow-path split of the paper's OVS
	// testbed (see DESIGN.md §5b).
	CostSwitchPacket   time.Duration // per packet taking a full (slow-path) lookup
	CostSwitchCacheHit time.Duration // per packet served by the microflow cache
	CostSwitchAction   time.Duration // per packet-mutating flow action
	CostHostPacket     time.Duration // per packet through a host stack

	// PoolDebug enables the packet and chunk pools' use-after-release
	// guards (poisoned free-list buffers and chunks, double-release
	// panics). Tests set it; it is off by default because the checks are
	// O(payload) per packet.
	PoolDebug bool

	// Seed is the root of every random draw on the network (Stream).
	Seed uint64

	// FlowTableCapacity bounds every switch's flow table (the TCAM model);
	// zero keeps tables unbounded, the seed behaviour. The at-capacity
	// policy defaults to deny-new; a controller may opt switches into LRU
	// eviction via flowtable.Table.Policy.
	FlowTableCapacity int
}

// DefaultConfig mirrors a 1 Gb/s Mininet fabric with Open vSwitch.
func DefaultConfig() Config {
	return Config{
		LinkBandwidthBps:   1e9,
		LinkDelay:          5 * time.Microsecond,
		QueueCapPackets:    100,
		SwitchLatency:      10 * time.Microsecond,
		HostLatency:        15 * time.Microsecond,
		CostSwitchPacket:   2 * time.Microsecond,
		CostSwitchCacheHit: 500 * time.Nanosecond,
		CostSwitchAction:   300 * time.Nanosecond,
		CostHostPacket:     3 * time.Microsecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.LinkBandwidthBps == 0 {
		c.LinkBandwidthBps = d.LinkBandwidthBps
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = d.LinkDelay
	}
	if c.QueueCapPackets == 0 {
		c.QueueCapPackets = d.QueueCapPackets
	}
	if c.SwitchLatency == 0 {
		c.SwitchLatency = d.SwitchLatency
	}
	if c.HostLatency == 0 {
		c.HostLatency = d.HostLatency
	}
	if c.CostSwitchPacket == 0 {
		c.CostSwitchPacket = d.CostSwitchPacket
	}
	if c.CostSwitchCacheHit == 0 {
		c.CostSwitchCacheHit = d.CostSwitchCacheHit
	}
	if c.CostSwitchAction == 0 {
		c.CostSwitchAction = d.CostSwitchAction
	}
	if c.CostHostPacket == 0 {
		c.CostHostPacket = d.CostHostPacket
	}
	return c
}

// Controller receives table-miss packets from switches. The Mimic
// Controller and any learning/routing controller implement it.
//
// Ownership: the packet is fabric-owned and valid only for the duration of
// the PacketIn call — the switch releases it to the packet pool when the
// call returns. Controllers that need the packet (or its payload) afterwards
// must Clone it or copy the bytes out.
type Controller interface {
	PacketIn(sw *Switch, inPort int, p *packet.Packet)
}

// Direction of a tapped packet relative to the tapped node.
type Direction int

// Mirror directions.
const (
	Ingress Direction = iota
	Egress
)

// String names the direction.
func (d Direction) String() string {
	if d == Ingress {
		return "ingress"
	}
	return "egress"
}

// TapEvent is one observation from a port mirror. The packet is a private
// clone; adversaries may inspect it freely.
type TapEvent struct {
	Node topo.NodeID
	Port int
	Dir  Direction
	At   sim.Time // egress: when sent; ingress: when it arrived
	Pkt  *packet.Packet
}

// Tap is a port-mirroring observer, the paper's traffic-observation vector
// (Sec III-B: "the adversary may use the port mirroring for traffic
// observing").
type Tap func(TapEvent)

// EventKind classifies a fabric state-change notification.
type EventKind int

// Fabric event kinds, modeled on OpenFlow port-status and connection-state
// messages.
const (
	PortDown EventKind = iota
	PortUp
	SwitchDown
	SwitchUp
	CtrlDown
	CtrlUp
	Partition
	Heal
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case PortDown:
		return "port-down"
	case PortUp:
		return "port-up"
	case SwitchDown:
		return "switch-down"
	case SwitchUp:
		return "switch-up"
	case CtrlDown:
		return "ctrl-down"
	case CtrlUp:
		return "ctrl-up"
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	}
	return "unknown"
}

// Event is one fabric state-change notification: the substitute for
// OpenFlow OFPT_PORT_STATUS and controller connection loss. Port events
// carry the (Node, Port) whose effective liveness changed; switch events
// carry the node only (Port is -1). Controller-host events carry the
// controller-host index in Port and -1 in Node: controllers live off-fabric
// (an out-of-band management network, as in OpenFlow deployments), so they
// have no topology node.
// Partition/Heal events carry the directional management-network cut in
// From/To (Node and Port are -1): one event per direction that flipped.
type Event struct {
	Kind EventKind
	Node topo.NodeID
	Port int
	At   sim.Time

	// From/To identify the management-network direction of a Partition or
	// Heal event; zero-valued otherwise.
	From, To MgmtEnd
}

// Listener receives fabric events. Listeners run synchronously at the
// instant the failure occurs; anything latency-sensitive must reschedule on
// the engine (the control plane adds its own notification delay).
type Listener func(Event)

// Stats aggregates fabric-wide counters.
type Stats struct {
	Delivered uint64 // packets handed to host stacks
	Forwarded uint64 // packets forwarded by switches
	Dropped   uint64 // queue-overflow drops plus injected frame loss
	LostDown  uint64 // packets black-holed by failed links or switches
	TableMiss uint64 // packets with no matching flow entry and no controller
	TxBytes   uint64 // bytes serialized onto links

	// Per-link fault injection outcomes (SetLinkFault).
	LostFault  uint64 // frames dropped by an injected loss profile
	Corrupted  uint64 // frames discarded by the receiver's FCS after corruption
	Duplicated uint64 // extra copies made by a duplication profile
	Reordered  uint64 // frames delayed by reorder jitter
}

// linkDir is the state of one direction of one cable. Link failure and
// switch failure are tracked as independent causes: a cable cut with
// SetLinkDown stays cut when an attached switch crashes and later restores.
type linkDir struct {
	busyUntil sim.Time
	queue     txQueue // frames accepted and not yet serialised
	txBytes   uint64
	drops     uint64
	linkDown  bool // failed via SetLinkDown
	swDown    int  // number of failed endpoint switches darkening this cable

	// fault, when non-nil, degrades this direction (SetLinkFault). The RNG
	// is the direction's own stream of Config.Seed, so frame fates on one
	// link never depend on traffic crossing another.
	fault    *FaultProfile
	faultRNG *sim.RNG
}

// txFrame is one frame in a drop-tail queue: the instant its last bit
// leaves, and the engine's LastSeq when it was accepted.
type txFrame struct {
	done sim.Time
	seq  uint64
}

// txQueue is the occupancy of one direction's drop-tail queue, kept without
// an engine event per frame. A frame leaves the queue when its
// serialisation finishes; were that an event, it would be scheduled when
// the frame is accepted, for instant done, and so fire after every event
// of that instant scheduled earlier and before every one scheduled later.
// The queue records (done, LastSeq at acceptance) instead and settles the
// question when the next frame asks: seen from an event firing at now with
// sequence number s, a frame still occupies the queue iff done > now, or
// done == now and s <= seq. Both fields only grow from one frame to the
// next, so frames leave in FIFO order and expiry pops from the head.
type txQueue struct {
	buf  []txFrame // ring; len is zero or a power of two
	head int
	n    int
}

// occupancy drops the frames that have left by (now, firing) and returns
// how many remain.
func (q *txQueue) occupancy(now sim.Time, firing uint64) int {
	for q.n > 0 {
		f := q.buf[q.head]
		if f.done > now || f.done == now && firing <= f.seq {
			break
		}
		q.head = (q.head + 1) & (len(q.buf) - 1)
		q.n--
	}
	return q.n
}

// push appends a frame. The ring doubles as needed; occupancy never
// exceeds Config.QueueCapPackets, which bounds its size.
func (q *txQueue) push(f txFrame) {
	if q.n == len(q.buf) {
		grown := make([]txFrame, max(2*len(q.buf), 8))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = f
	q.n++
}

func (d *linkDir) down() bool { return d.linkDown || d.swDown > 0 }

// Network binds a topology to the event engine.
type Network struct {
	Eng   *sim.Engine
	Graph *topo.Graph
	CPU   *metrics.CPUAccount
	Cfg   Config
	Stats Stats

	nodes     []node // indexed by topo.NodeID
	listeners []Listener
	// failed counts the failed switches and the link directions down for any
	// cause: zero iff every path of the fabric is alive (AllUp).
	failed    int
	ctrlHosts []bool // down flag per registered controller host
	channels  int    // control channels registered (RegisterChannel)

	// mgmtCuts holds the active directional management-network partitions
	// (SetMgmtCut). Nil when the management network is whole.
	mgmtCuts map[mgmtCut]bool

	// pool recycles data-plane packets and chunks the payload bytes they
	// alias. Per network (not global) because the harness runs independent
	// engines on parallel goroutines.
	pool   *packet.Pool
	chunks *chunk.Pool

	// hopFree recycles hop records (hop.go), per network for the same
	// reason.
	hopFree []*hop

	// Meters of the two categories the packet path charges, resolved once.
	vswitchCPU, stackCPU *metrics.CPUMeter
}

// node is the runtime of one topology node: its switch or host, and the
// per-port link state, so that the packet path indexes instead of hashing.
type node struct {
	sw   *Switch
	host *Host
	dirs []linkDir // by port: the direction leaving this node
	taps []Tap
}

type portKey struct {
	node topo.NodeID
	port int
}

// dir returns the link direction leaving (id, port), or nil if there is no
// such port.
func (n *Network) dir(id topo.NodeID, port int) *linkDir {
	if id < 0 || int(id) >= len(n.nodes) || port < 0 || port >= len(n.nodes[id].dirs) {
		return nil
	}
	return &n.nodes[id].dirs[port]
}

// New builds runtimes for every node of g.
func New(eng *sim.Engine, g *topo.Graph, cfg Config) *Network {
	n := &Network{
		Eng:    eng,
		Graph:  g,
		CPU:    metrics.NewCPUAccount(),
		Cfg:    cfg.withDefaults(),
		nodes:  make([]node, len(g.Nodes)),
		pool:   packet.NewPool(),
		chunks: chunk.NewPool(),
	}
	n.vswitchCPU, n.stackCPU = n.CPU.Meter("vswitch"), n.CPU.Meter("stack")
	if cfg.PoolDebug {
		n.pool.SetDebug(true)
		n.chunks.SetDebug(true)
	}
	for _, node := range g.Nodes {
		switch node.Kind {
		case topo.KindSwitch:
			tbl := flowtable.NewTable()
			tbl.Capacity = n.Cfg.FlowTableCapacity
			n.nodes[node.ID].sw = &Switch{net: n, ID: node.ID, Name: node.Name, Table: tbl}
		case topo.KindHost:
			n.nodes[node.ID].host = &Host{net: n, ID: node.ID, Name: node.Name, IP: node.IP, MAC: node.MAC}
		}
		n.nodes[node.ID].dirs = make([]linkDir, len(node.Ports))
	}
	return n
}

// Stream returns the stream of Config.Seed named label: its draws depend on
// the seed and the label alone.
func (n *Network) Stream(label string) *sim.RNG { return sim.NewRNG(n.Cfg.Seed).Stream(label) }

// PacketPool returns the network's packet pool. Transport stacks draw their
// data packets from it; the fabric releases packets back at their sinks
// (delivery, drop, or table miss).
func (n *Network) PacketPool() *packet.Pool { return n.pool }

// ChunkPool returns the network's chunk pool. Transport stacks and MIC
// streams carve the payload bytes they send from it; a chunk comes back
// once no send queue, stream and in-flight packet holds it.
func (n *Network) ChunkPool() *chunk.Pool { return n.chunks }

// Switch returns the switch runtime for a node ID.
func (n *Network) Switch(id topo.NodeID) *Switch {
	if id < 0 || int(id) >= len(n.nodes) {
		return nil
	}
	return n.nodes[id].sw
}

// Host returns the host runtime for a node ID.
func (n *Network) Host(id topo.NodeID) *Host {
	if id < 0 || int(id) >= len(n.nodes) {
		return nil
	}
	return n.nodes[id].host
}

// HostByIP returns the host runtime owning ip, or nil.
func (n *Network) HostByIP(ip addr.IP) *Host {
	if node := n.Graph.HostByIP(ip); node != nil {
		return n.nodes[node.ID].host
	}
	return nil
}

// Switches returns all switch runtimes in topology order.
func (n *Network) Switches() []*Switch {
	ids := n.Graph.Switches()
	out := make([]*Switch, len(ids))
	for i, id := range ids {
		out[i] = n.nodes[id].sw
	}
	return out
}

// Hosts returns all host runtimes in topology order.
func (n *Network) Hosts() []*Host {
	ids := n.Graph.Hosts()
	out := make([]*Host, len(ids))
	for i, id := range ids {
		out[i] = n.nodes[id].host
	}
	return out
}

// SetController attaches ctrl to every switch.
func (n *Network) SetController(ctrl Controller) {
	for i := range n.nodes {
		if sw := n.nodes[i].sw; sw != nil {
			sw.Ctrl = ctrl
		}
	}
}

// RegisterCtrlHost allocates a controller-host slot and returns its index.
// Controller hosts model the machines a controller process runs on: they sit
// on the management network, not the data fabric, so crashing one does not
// darken any link. Fault injectors fail them with SetCtrlHostDown.
func (n *Network) RegisterCtrlHost() int {
	n.ctrlHosts = append(n.ctrlHosts, false)
	return len(n.ctrlHosts) - 1
}

// RegisterChannel numbers a new control channel, from 0 in creation order:
// the engine is single-threaded, so the number is the same in every run.
func (n *Network) RegisterChannel() int {
	n.channels++
	return n.channels - 1
}

// SetCtrlHostDown crashes or restarts the controller host at idx. Listeners
// receive a CtrlDown/CtrlUp event (index in Port, Node -1) if the liveness
// flipped; the controller runtime bound to the host reacts by going silent
// or rejoining.
func (n *Network) SetCtrlHostDown(idx int, down bool) {
	if idx < 0 || idx >= len(n.ctrlHosts) || n.ctrlHosts[idx] == down {
		return
	}
	n.ctrlHosts[idx] = down
	kind := CtrlUp
	if down {
		kind = CtrlDown
	}
	n.emit(kind, -1, idx)
}

// CtrlHostDown reports whether the controller host at idx is crashed.
// Unregistered indices read as down: there is no machine there to run on.
func (n *Network) CtrlHostDown(idx int) bool {
	if idx < 0 || idx >= len(n.ctrlHosts) {
		return true
	}
	return n.ctrlHosts[idx]
}

// AddTap mirrors all traffic of a node to fn.
func (n *Network) AddTap(id topo.NodeID, fn Tap) {
	n.nodes[id].taps = append(n.nodes[id].taps, fn)
}

func (n *Network) fireTaps(id topo.NodeID, port int, dir Direction, at sim.Time, p *packet.Packet) {
	taps := n.nodes[id].taps
	if len(taps) == 0 {
		return
	}
	ev := TapEvent{Node: id, Port: port, Dir: dir, At: at, Pkt: p.Clone()}
	for _, t := range taps {
		t(ev)
	}
}

// Notify registers a listener for fabric events (port/switch liveness
// changes). The Mimic Controller's self-healing layer subscribes here; so
// can experiments and adversaries.
func (n *Network) Notify(fn Listener) {
	n.listeners = append(n.listeners, fn)
}

func (n *Network) emit(kind EventKind, node topo.NodeID, port int) {
	ev := Event{Kind: kind, Node: node, Port: port, At: n.Eng.Now()}
	for _, l := range n.listeners {
		l(ev)
	}
}

// SetLinkDown fails or restores the cable at (node, port), both directions.
// Packets sent into a failed link are silently black-holed, as after a
// physical cut. Listeners receive a PortDown/PortUp event for each cable
// end whose effective liveness changed.
func (n *Network) SetLinkDown(node topo.NodeID, port int, down bool) {
	peer := n.Graph.Node(node).Ports[port]
	for _, pk := range [2]portKey{{node, port}, {peer.Peer, peer.PeerPort}} {
		d := n.dir(pk.node, pk.port)
		was := d.down()
		d.linkDown = down
		n.count(was, d.down())
		n.notifyPort(pk, was, d.down())
	}
}

// count keeps failed as a liveness flag goes from was to now.
func (n *Network) count(was, now bool) {
	switch {
	case now && !was:
		n.failed++
	case was && !now:
		n.failed--
	}
}

// AllUp reports whether no switch and no link of the fabric has failed,
// silently or not.
func (n *Network) AllUp() bool { return n.failed == 0 }

// notifyPort emits a port event if the effective liveness flipped.
func (n *Network) notifyPort(pk portKey, was, now bool) {
	if was == now {
		return
	}
	kind := PortUp
	if now {
		kind = PortDown
	}
	n.emit(kind, pk.node, pk.port)
}

// LinkDown reports whether the cable at (node, port) is failed, for any
// cause (direct cut or a failed endpoint switch).
func (n *Network) LinkDown(node topo.NodeID, port int) bool {
	return n.dir(node, port).down()
}

// SetSwitchDown fails or restores a whole switch: it stops forwarding and
// every attached link goes dark. Restoring the switch re-lights only the
// links it darkened — cables cut independently via SetLinkDown stay cut.
// Listeners receive a SwitchDown/SwitchUp event plus port events for every
// cable whose effective liveness changed.
func (n *Network) SetSwitchDown(id topo.NodeID, down bool) {
	n.setSwitchDown(id, down, true)
}

// SetSwitchDownQuiet is SetSwitchDown without event emission: a silent
// failure (wedged forwarding plane, dead management NIC) that only the
// control plane's liveness prober can detect.
// lint:ignore unused fault-injection seam: a silent switch failure only the prober can see
func (n *Network) SetSwitchDownQuiet(id topo.NodeID, down bool) {
	n.setSwitchDown(id, down, false)
}

func (n *Network) setSwitchDown(id topo.NodeID, down bool, notify bool) {
	sw := n.nodes[id].sw
	if sw.Down == down {
		return
	}
	sw.Down = down
	n.count(!down, down)
	delta := 1
	if !down {
		delta = -1
	}
	for port, p := range n.Graph.Node(id).Ports {
		for _, pk := range [2]portKey{{id, port}, {p.Peer, p.PeerPort}} {
			d := n.dir(pk.node, pk.port)
			was := d.down()
			d.swDown += delta
			n.count(was, d.down())
			if notify {
				n.notifyPort(pk, was, d.down())
			}
		}
	}
	if notify {
		kind := SwitchUp
		if down {
			kind = SwitchDown
		}
		n.emit(kind, id, -1)
	}
}

// LinkTxBytes reports bytes sent from node out of port since start.
func (n *Network) LinkTxBytes(id topo.NodeID, port int) uint64 {
	if d := n.dir(id, port); d != nil {
		return d.txBytes
	}
	return 0
}

// send serializes p out of (from, port): drop-tail queueing, transmission
// delay at the configured bandwidth, propagation, then the one event the
// frame costs at the peer (arrive).
func (n *Network) send(from topo.NodeID, port int, p *packet.Packet) {
	node := n.Graph.Node(from)
	if port < 0 || port >= len(node.Ports) {
		panic(fmt.Sprintf("netsim: %s sending out nonexistent port %d", node.Name, port))
	}
	n.fireTaps(from, port, Egress, n.Eng.Now(), p)
	dir := &n.nodes[from].dirs[port]
	fate := dir.fate()
	if fate == fateLost {
		n.Stats.Dropped++
		n.Stats.LostFault++
		p.Release()
		return
	}
	if dir.down() {
		n.Stats.LostDown++
		p.Release()
		return
	}
	now := n.Eng.Now()
	if dir.queue.occupancy(now, n.Eng.FiringSeq()) >= n.Cfg.QueueCapPackets {
		dir.drops++
		n.Stats.Dropped++
		p.Release()
		return
	}
	peer := node.Ports[port]
	wire := p.WireLen()
	tx := time.Duration(int64(wire) * 8 * int64(time.Second) / n.Cfg.LinkBandwidthBps)
	start := now
	if dir.busyUntil > start {
		start = dir.busyUntil
	}
	done := start.Add(tx)
	dir.busyUntil = done
	dir.queue.push(txFrame{done: done, seq: n.Eng.LastSeq()})
	dir.txBytes += uint64(wire)
	n.Stats.TxBytes += uint64(wire)
	at := done.Add(n.Cfg.LinkDelay)
	switch fate {
	case fateCorrupt:
		// The frame burns wire time but the receiving NIC's FCS rejects it.
		n.schedule(at, hopCorrupt, peer.Peer, peer.PeerPort, p)
		return
	case fateDup:
		n.Stats.Duplicated++
		n.arrive(at, peer.Peer, peer.PeerPort, p)
		p = p.Clone() // the copy arrives at the same instant, after the original
	case fateReorder:
		n.Stats.Reordered++
		at = at.Add(time.Duration(dir.faultRNG.Int63n(int64(dir.fault.Jitter)) + 1))
	}
	n.arrive(at, peer.Peer, peer.PeerPort, p)
}
