package netsim

import (
	"testing"

	"mic/internal/sim"
	"mic/internal/topo"
)

// refLink is the reference model of one direction's drop-tail queue: a
// counter that an engine event decrements when a frame's serialisation
// ends. txQueue must take the same accept/drop decisions without the event.
type refLink struct {
	eng       *sim.Engine
	cap       int
	tx        sim.Duration
	busyUntil sim.Time
	queued    int
	frames    []*refFrame

	// What the sends saw at colliding instants, so that the test can show
	// it exercised them.
	tiesQueued, tiesGone        int // frames whose done was the send instant, still queued / already gone
	strictWrong, inclusiveWrong int // decisions a "done > now" / "done >= now" rule would get wrong
}

type refFrame struct {
	done sim.Time
	gone bool
}

func (r *refLink) send() bool {
	now := r.eng.Now()
	after, at := 0, 0
	for _, f := range r.frames {
		switch {
		case f.done > now:
			after++
		case f.done == now && f.gone:
			at++
			r.tiesGone++
		case f.done == now:
			at++
			r.tiesQueued++
		}
	}
	accept := r.queued < r.cap
	if accept != (after < r.cap) {
		r.strictWrong++
	}
	if accept != (after+at < r.cap) {
		r.inclusiveWrong++
	}
	if !accept {
		return false
	}
	start := max(now, r.busyUntil)
	f := &refFrame{done: start.Add(r.tx)}
	r.busyUntil = f.done
	r.queued++
	r.frames = append(r.frames, f)
	r.eng.At(f.done, func() {
		r.queued--
		f.gone = true
	})
	return true
}

// linkProgram offers frames to send at instants on a grid of one
// serialisation time, so that a frame's done instant is routinely the
// instant of a later send. Senders are scheduled by planner events that
// also send, which puts a sender's place in the engine's order on either
// side of the frames whose done it collides with. Every few grid steps one
// frame is offered from outside any handler, right after RunUntil.
func linkProgram(eng *sim.Engine, tx sim.Duration, seed uint64, send func() bool) (decisions []bool) {
	r := sim.NewRNG(seed)
	offer := func() { decisions = append(decisions, send()) }
	for i := 0; i < 40; i++ {
		eng.At(sim.Time(tx)*sim.Time(r.Intn(30)), func() {
			for k := r.Intn(4); k >= 0; k-- {
				if r.Intn(2) == 0 {
					offer()
				}
				eng.After(tx*sim.Duration(r.Intn(6)), func() {
					for j := r.Intn(2); j >= 0; j-- {
						offer()
					}
				})
			}
		})
	}
	for step := 1; step <= 40; step++ {
		eng.RunUntil(sim.Time(tx) * sim.Time(step))
		if step%3 == 0 {
			offer()
		}
	}
	eng.Run()
	return decisions
}

// TestLinkOccupancyMatchesDecrementEvents saturates one link with sends at
// colliding instants and compares every accept/drop decision against the
// reference model with explicit decrement events.
func TestLinkOccupancyMatchesDecrementEvents(t *testing.T) {
	const queueCap = 3
	g, err := topo.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	var accepted, dropped int
	var ties refLink
	for seed := uint64(1); seed <= 20; seed++ {
		eng := sim.New()
		n := New(eng, g, Config{QueueCapPackets: queueCap, LinkBandwidthBps: 8e9}) // 1 byte per ns
		h1 := n.Host(g.Hosts()[0])
		pkt := frame(h1.IP, n.Host(g.Hosts()[1]).IP, "a frame of one fixed size")
		tx := sim.Duration(pkt.WireLen())
		got := linkProgram(eng, tx, seed, func() bool {
			before := n.Stats.Dropped
			n.send(h1.ID, 0, pkt.Clone())
			return n.Stats.Dropped == before
		})

		ref := &refLink{eng: sim.New(), cap: queueCap, tx: tx}
		want := linkProgram(ref.eng, tx, seed, ref.send)

		if len(got) != len(want) {
			t.Fatalf("seed %d: %d decisions, reference took %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: send %d accepted = %v, reference says %v", seed, i, got[i], want[i])
			}
			if want[i] {
				accepted++
			} else {
				dropped++
			}
		}
		ties.tiesQueued += ref.tiesQueued
		ties.tiesGone += ref.tiesGone
		ties.strictWrong += ref.strictWrong
		ties.inclusiveWrong += ref.inclusiveWrong
	}
	if accepted == 0 || dropped == 0 {
		t.Fatalf("accepted %d, dropped %d: the link was not driven across its capacity", accepted, dropped)
	}
	if ties.tiesQueued == 0 || ties.tiesGone == 0 {
		t.Fatalf("colliding instants seen: %d with the frame still queued, %d with it gone; want both", ties.tiesQueued, ties.tiesGone)
	}
	if ties.strictWrong == 0 || ties.inclusiveWrong == 0 {
		t.Fatalf("a rule ignoring event order would have passed: done > now wrong %d times, done >= now wrong %d times",
			ties.strictWrong, ties.inclusiveWrong)
	}
}
