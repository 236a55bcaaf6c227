package mic

import (
	"fmt"

	"mic/internal/addr"
	"mic/internal/ctrlplane"
	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

// This file is the controller unit: a ShardedMC runs N >= 1 full MC
// processes over one fabric, partitioned by the initiator's access (edge)
// switch, behind a thin router that implements the same ControlPlane
// interface a single MC does. Each shard owns a disjoint slice of the
// flow-ID space, a distinct InstanceID (so channel IDs and group IDs are
// collision-free by construction — the paper's Sec VI-C "assign a unique ID
// space for each controller"), its own admission token bucket and its own
// virtual planning CPU (mc.cpuFree) — the serialized-planning bottleneck
// that sharding exists to split. Fabric-wide attachments that must exist
// exactly once — proactive common routing, the packet-in handler, the
// eviction hooks — belong to the router, not the shards.
//
// Every shard derives identical MAGA keying: keying streams hang off
// Config.Seed only, never InstanceID, so a rule computed by any shard is
// meaningful to every other controller on the fabric (and to a standby).
//
// The unit is all the router knows about. Replacing a dead unit — journal,
// heartbeats, leases, promotion, reconciliation, audit — is the Cluster's
// job (failover.go), which runs one unit per member and loops over its
// shards; a unit of one shard is the degenerate case, not a separate path.
// Each shard stamps its journal records with its shard index, so the
// cluster's single log replays into N disjoint controllers.

// ShardedMC is a controller unit. It implements ControlPlane (client-facing)
// and netsim.Controller (fabric-facing).
type ShardedMC struct {
	Net *netsim.Network
	Cfg Config // base config with defaults applied (per-shard fields differ)

	shards []*MC
	// edgeShard maps an initiator's access switch to its owning shard, fixed
	// at construction in graph enumeration order.
	edgeShard map[topo.NodeID]int
}

// NewShardedMC builds n active controller shards over the fabric and
// installs the shared attachments once. n == 1 degenerates to a standalone
// MC behind the router, the baseline arm of the s10 scale-out experiment.
func NewShardedMC(net *netsim.Network, cfg Config, n int) (*ShardedMC, error) {
	return newShardedMC(net, cfg, n, mcShard)
}

// newShardedMC builds a unit of n shards: active ones (mcShard) with the
// router's fabric attachments installed, or the inert passive twin
// (mcPassive) a Cluster keeps as a warm standby until a takeover.
func newShardedMC(net *netsim.Network, cfg Config, n int, mode mcMode) (*ShardedMC, error) {
	if n < 1 {
		return nil, fmt.Errorf("mic: shard count %d must be at least 1", n)
	}
	base := cfg.withDefaults()
	lo, hi, err := base.idSpace()
	if err != nil {
		return nil, err
	}
	if (hi-lo)/uint32(n) < 2 {
		return nil, fmt.Errorf("mic: ID space [%d, %d) too small to split %d ways", lo, hi, n)
	}
	s := &ShardedMC{Net: net, Cfg: base, edgeShard: make(map[topo.NodeID]int)}
	span := (hi - lo) / uint32(n)
	for i := 0; i < n; i++ {
		shardCfg := base
		shardCfg.InstanceID = base.InstanceID + uint32(i)
		shardCfg.IDSpace = IDRange{Lo: lo + uint32(i)*span, Hi: lo + uint32(i+1)*span}
		if i == n-1 {
			shardCfg.IDSpace.Hi = hi // the last shard absorbs the remainder
		}
		mc, err := newMC(net, shardCfg, mode)
		if err != nil {
			return nil, err
		}
		mc.shardID = uint32(i)
		s.shards = append(s.shards, mc)
	}
	// Partition initiators by access switch: distinct edge switches in graph
	// enumeration order, round-robin over the shards — deterministic, and
	// hosts behind one edge always share a shard (plan-cache locality).
	nextShard := 0
	for _, hid := range net.Graph.Hosts() {
		sw := accessSwitch(net.Graph, hid)
		if sw < 0 {
			continue // multi-homed hosts fall to shard 0 via shardOf
		}
		if _, seen := s.edgeShard[sw]; !seen {
			s.edgeShard[sw] = nextShard
			nextShard = (nextShard + 1) % n
		}
	}
	if mode == mcShard {
		router := &ctrlplane.ProactiveRouter{CFLabel: s.shards[0].CFLabel}
		if _, err := router.Install(net); err != nil {
			return nil, err
		}
		s.attach()
	}
	return s, nil
}

// Shards reports the shard count.
func (s *ShardedMC) Shards() int { return len(s.shards) }

// Shard returns shard i's controller (tests and harnesses).
func (s *ShardedMC) Shard(i int) *MC { return s.shards[i] }

// shardOf maps an initiator to its owning shard: the shard of its access
// switch, or shard 0 when the host is unknown or multi-homed (the shard's
// own validation produces the proper refusal).
func (s *ShardedMC) shardOf(initiator addr.IP) int {
	h := s.Net.HostByIP(initiator)
	if h == nil {
		return 0
	}
	sw := accessSwitch(s.Net.Graph, h.ID)
	if sw < 0 {
		return 0
	}
	return s.edgeShard[sw]
}

// shardOfChannel recovers the owning shard from a channel ID: channel IDs
// carry their minting controller's InstanceID in the high 32 bits, and the
// shards' InstanceIDs are base..base+n-1 in shard order.
func (s *ShardedMC) shardOfChannel(id uint64) (int, error) {
	i := int(uint32(id>>32)) - int(s.Cfg.InstanceID)
	if i < 0 || i >= len(s.shards) {
		return 0, fmt.Errorf("mic: channel %d belongs to no shard of this controller", id)
	}
	return i, nil
}

// Engine implements ControlPlane.
func (s *ShardedMC) Engine() *sim.Engine { return s.Net.Eng }

// ClientSeed implements ControlPlane.
func (s *ShardedMC) ClientSeed() uint64 { return s.Cfg.Seed }

// EstablishChannel implements ControlPlane: the dial is served entirely by
// the initiator's shard — its admission bucket, its planning CPU, its ID
// ranges.
func (s *ShardedMC) EstablishChannel(initiator addr.IP, target string, opts ChannelOptions, cb func(*ChannelInfo, error)) {
	s.shards[s.shardOf(initiator)].EstablishChannel(initiator, target, opts, cb)
}

// CloseChannel implements ControlPlane, routing by the channel ID's
// embedded InstanceID.
func (s *ShardedMC) CloseChannel(id uint64, cb func()) error {
	i, err := s.shardOfChannel(id)
	if err != nil {
		return err
	}
	return s.shards[i].CloseChannel(id, cb)
}

// SubscribeRepair implements ControlPlane: subscribers hear every shard.
func (s *ShardedMC) SubscribeRepair(fn func(RepairEvent)) {
	for _, mc := range s.shards {
		mc.SubscribeRepair(fn)
	}
}

// SubscribeChannelDown implements ControlPlane.
func (s *ShardedMC) SubscribeChannelDown(fn func(id uint64, err error)) {
	for _, mc := range s.shards {
		mc.SubscribeChannelDown(fn)
	}
}

// RegisterHiddenService registers the mapping on every shard: any shard may
// serve a dial to the name. Each shard journals its own copy, so a standby
// unit's per-shard replay rebuilds every resolver.
// lint:secret ip
func (s *ShardedMC) RegisterHiddenService(name string, ip addr.IP) error {
	for _, mc := range s.shards {
		if err := mc.RegisterHiddenService(name, ip); err != nil {
			return err
		}
	}
	return nil
}

// LiveChannels sums live channels across shards.
func (s *ShardedMC) LiveChannels() int {
	n := 0
	for _, mc := range s.shards {
		n += mc.LiveChannels()
	}
	return n
}

// attach takes the fabric attachments that exist once per unit: the
// packet-in handler and the per-switch eviction hooks, whose victims are
// attributed to shard 0's counter (the aggregate's home).
func (s *ShardedMC) attach() {
	s.Net.SetController(s)
	s.shards[0].armEviction()
}

// PacketIn implements netsim.Controller: the router demuxes fabric misses
// over its shards (packetIn, mic.go).
func (s *ShardedMC) PacketIn(sw *netsim.Switch, inPort int, p *packet.Packet) {
	packetIn(s.shards, sw, inPort, p)
}

// unionIntent collects every shard's intended rules for one switch: the
// entries by reconciliation key and the groups by ID, what reconciliation and
// the audit diff a switch's table against.
func (s *ShardedMC) unionIntent(node topo.NodeID) (intent map[reconKey]*flowtable.Entry, groupIntent map[flowtable.GroupID]*flowtable.Group) {
	intent = make(map[reconKey]*flowtable.Entry)
	groupIntent = make(map[flowtable.GroupID]*flowtable.Group)
	for _, mc := range s.shards {
		// lint:ignore detrange filling maps; the result is independent of order
		for _, st := range mc.channels {
			for _, rr := range st.rules {
				if rr.node != node {
					continue
				}
				if rr.entry != nil {
					intent[entryReconKey(rr.entry)] = rr.entry
				}
				if rr.group != nil {
					groupIntent[rr.group.ID] = rr.group
				}
			}
		}
	}
	return intent, groupIntent
}

// missingAt returns the mods that put back what of the shard's intent for sw
// a dump of it lacks (have, haveGroup), channels in ID order, a group with
// its rule's entry, whose cookie orders it; n counts the rules and groups.
func (mc *MC) missingAt(sw *netsim.Switch, have map[reconKey]bool, haveGroup map[flowtable.GroupID]bool) (mods []ctrlplane.Mod, n int) {
	for _, id := range sortedChanIDs(mc.channels) {
		for _, rr := range mc.channels[id].rules {
			if rr.node != sw.ID {
				continue
			}
			mod := ctrlplane.Mod{Switch: sw, Entry: rr.entry}
			if rr.group != nil && !haveGroup[rr.group.ID] {
				mod.Group = rr.group
				n++
			}
			if rr.entry != nil && !have[entryReconKey(rr.entry)] {
				n++
			} else if mod.Group == nil {
				continue
			}
			mods = append(mods, mod)
		}
	}
	return mods, n
}
