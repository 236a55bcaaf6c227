package ctrlplane

import (
	"time"

	"mic/internal/sim"
	"mic/internal/topo"
)

// Prober detects silent switch failures — a wedged forwarding plane that
// emits no port-status event — by sending periodic Echo probes over the
// control channel, the simulation's stand-in for OpenFlow echo
// request/reply keepalives. A switch is declared dead after ProbeMisses
// consecutive unanswered probe rounds (a single miss can be control-channel
// loss), and declared recovered on the first answered round afterwards.
type Prober struct {
	Ch *Channel

	// Interval between probe rounds. Every switch is probed each round.
	Interval time.Duration

	// OnDown fires when a switch crosses the miss threshold; OnUp when a
	// previously declared-dead switch answers again. Both may be nil.
	OnDown func(id topo.NodeID)
	OnUp   func(id topo.NodeID)

	// Probes counts echo rounds completed; Deaths and Recoveries count
	// threshold crossings.
	Probes     uint64
	Deaths     uint64
	Recoveries uint64

	missed map[topo.NodeID]int
	dead   map[topo.NodeID]bool
	round  sim.Timer // the next probe round; disarmed once stopped
}

// ProbeMisses tolerates two lost probe rounds before declaring death;
// combined with ProbeRedundancy it keeps the false-positive rate negligible
// at realistic control-loss rates.
const ProbeMisses = 3

// ProbeRedundancy is the echoes sent per switch per round; the round misses
// only when all are lost, so a lossy-but-alive control channel does not
// masquerade as switch death.
const ProbeRedundancy = 4

// NewProber builds a prober over ch probing every interval. Call Start to
// begin probing.
func NewProber(ch *Channel, interval time.Duration) *Prober {
	p := &Prober{
		Ch:       ch,
		Interval: interval,
		missed:   make(map[topo.NodeID]int),
		dead:     make(map[topo.NodeID]bool),
	}
	p.round.Bind(ch.Eng, p.tick)
	return p
}

// Dead reports whether the prober currently believes switch id is down.
func (p *Prober) Dead(id topo.NodeID) bool { return p.dead[id] }

// Start begins periodic probing and returns a stop function; echoes still in
// flight when it is called record nothing.
func (p *Prober) Start() (stop func()) {
	p.round.Reset(p.Interval)
	return p.round.Stop
}

// tick is one probe round: ProbeRedundancy echoes to every switch, whose
// answers settle into one verdict per switch.
func (p *Prober) tick() {
	p.Probes++
	for _, sw := range p.Ch.Net.Switches() {
		id := sw.ID
		pending := ProbeRedundancy
		alive := false
		settle := func(_ sim.Time, ok bool) {
			// tick re-arms the round before any echo it sends can answer,
			// so the round is armed exactly while the prober runs.
			if !p.round.Armed() {
				return
			}
			if ok {
				alive = true
			}
			pending--
			if pending > 0 {
				return
			}
			p.record(id, alive)
		}
		for i := 0; i < ProbeRedundancy; i++ {
			p.Ch.Echo(sw, settle)
		}
	}
	p.round.Reset(p.Interval)
}

// record folds one probe-round verdict into the per-switch state machine.
func (p *Prober) record(id topo.NodeID, alive bool) {
	if alive {
		p.missed[id] = 0
		if p.dead[id] {
			delete(p.dead, id)
			p.Recoveries++
			if p.OnUp != nil {
				p.OnUp(id)
			}
		}
		return
	}
	p.missed[id]++
	if p.missed[id] >= ProbeMisses && !p.dead[id] {
		p.dead[id] = true
		p.Deaths++
		if p.OnDown != nil {
			p.OnDown(id)
		}
	}
}
