package chaos

import (
	"fmt"
	"math"
	"time"

	"mic/internal/sim"
	"mic/internal/topo"
)

// This file builds setup storms: bursts of channel-open dials arriving at a
// seeded Poisson rate, the control-plane analogue of the fault storms above.
// A storm is pure data — a list of (time, initiator, responder) dials — so
// harnesses decide how to execute them (which client, which port, whether
// admission control is on) and the schedule stays reusable across ablations.

// stormStart is when every storm's arrival window opens.
const stormStart = time.Millisecond

// StormConfig parameterizes SetupStorm. Zero fields pick defaults.
type StormConfig struct {
	// Pairs is how many distinct initiator hosts dial (each paired with a
	// distinct responder host). Default 8.
	Pairs int

	// Rate is the aggregate offered dial rate in dials per second across
	// all initiators. Default 2000.
	Rate float64

	// Window is how long arrivals keep coming. Default 100ms.
	Window time.Duration

	// MaxDials caps the schedule length as a safety net against absurd
	// Rate x Window products. Default 4096.
	MaxDials int
}

func (c StormConfig) withDefaults() StormConfig {
	if c.Pairs <= 0 {
		c.Pairs = 8
	}
	if c.Rate <= 0 {
		c.Rate = 2000
	}
	if c.Window <= 0 {
		c.Window = 100 * time.Millisecond
	}
	if c.MaxDials <= 0 {
		c.MaxDials = 4096
	}
	return c
}

// Dial is one scheduled channel-setup attempt: initiator From dials
// responder To at virtual time At.
type Dial struct {
	At       time.Duration
	From, To topo.NodeID
}

// SetupStorm builds a dial schedule deterministically from seed: arrivals
// form a Poisson process at cfg.Rate over [stormStart, stormStart+Window),
// each dial drawn from cfg.Pairs fixed initiator->responder host pairs.
// Initiators are the topology's first Pairs hosts, responders the last Pairs
// hosts, so the two sets never overlap and every dial crosses the fabric.
func SetupStorm(g *topo.Graph, seed uint64, cfg StormConfig) ([]Dial, error) {
	cfg = cfg.withDefaults()
	hosts := g.Hosts()
	if len(hosts) < 2*cfg.Pairs {
		return nil, fmt.Errorf("chaos: storm needs %d hosts for %d pairs, topology has %d",
			2*cfg.Pairs, cfg.Pairs, len(hosts))
	}
	initiators := hosts[:cfg.Pairs]
	responders := hosts[len(hosts)-cfg.Pairs:]
	rng := sim.NewRNG(seed).Stream("chaos-storm")
	var dials []Dial
	at := stormStart
	for len(dials) < cfg.MaxDials {
		// Exponential inter-arrival via inverse transform; 1-U avoids
		// log(0). Deterministic given the seeded stream.
		at += time.Duration(-math.Log(1-rng.Float64()) / cfg.Rate * float64(time.Second))
		if at >= stormStart+cfg.Window {
			break
		}
		pair := rng.Intn(cfg.Pairs)
		dials = append(dials, Dial{At: at, From: initiators[pair], To: responders[pair]})
	}
	if len(dials) == 0 {
		return nil, fmt.Errorf("chaos: storm produced no dials (rate %.0f over %v)", cfg.Rate, cfg.Window)
	}
	return dials, nil
}
