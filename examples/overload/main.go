// Overload: the Mimic Controller refusing gracefully instead of falling
// over. Switch flow tables are capped TCAM-style and the MC runs admission
// control, so a burst of channel setups walks the whole degradation ladder:
// early dials get the full F m-flows, later dials are admitted with fewer
// (degraded F), and once even one m-flow no longer fits the MC answers a
// typed ErrOverloaded — every dial hears back, nothing is dropped silently.
// Clients retry refusals with seeded-jitter exponential backoff, and as
// admitted channels close, the MC hands their freed budget back to degraded
// channels one m-flow at a time.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

func main() {
	graph, err := topo.FatTree(4)
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.New()
	// Every switch table holds 48 entries; ~32 are common routing, so the
	// whole fabric has room for only a handful of F=4 channels.
	net := netsim.New(eng, graph, netsim.Config{FlowTableCapacity: 48})

	mc, err := mic.NewMC(net, mic.Config{
		MNs: 3, MFlows: 4,
		Admission: mic.AdmissionConfig{
			Enabled: true,
			Rate:    1000, Burst: 8, // token bucket on channel opens
			QueueLimit: 16, QueueDeadline: 10 * time.Millisecond,
			SwitchRuleBudget: 16, // per-switch cap on intended m-flow rules
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	hosts := graph.Hosts()
	responder := transport.NewStack(net.Host(hosts[15]))
	mic.Listen(responder, 80, false, func(s *mic.Stream) {})
	target := responder.Host.IP.String()

	// Eight initiators dial 3ms apart — each is a fresh channel against the
	// same bounded fabric.
	clients := make([]*mic.Client, 8)
	for i := 0; i < 8; i++ {
		i := i
		eng.After(time.Duration(i)*3*time.Millisecond, func() {
			stack := transport.NewStack(net.Host(hosts[i]))
			c := mic.NewClientSeeded(stack, mc, uint64(i)+1)
			c.DialRetries = -1 // show raw outcomes first; retry demo below
			clients[i] = c
			c.Dial(target, 80, func(s *mic.Stream, err error) {
				switch {
				case err == nil && s.FlowCount() == 4:
					fmt.Printf("dial %d at t=%v: admitted, full F=4\n", i, eng.Now())
				case err == nil:
					fmt.Printf("dial %d at t=%v: admitted DEGRADED, F=%d of 4\n", i, eng.Now(), s.FlowCount())
				case errors.Is(err, mic.ErrOverloaded):
					fmt.Printf("dial %d at t=%v: refused (typed ErrOverloaded — retryable)\n", i, eng.Now())
				default:
					log.Fatalf("dial %d: unexpected error: %v", i, err)
				}
			})
		})
	}
	// A ninth dial lands on the saturated fabric with automatic retries
	// enabled: the early attempts are refused, the client backs off with
	// seeded jitter, and an attempt after dial 0's channel closes fits.
	retry := mic.NewClientSeeded(transport.NewStack(net.Host(hosts[9])), mc, 99)
	retry.RetryBackoff = 30 * time.Millisecond
	retry.DialRetries = 5
	var admitted bool
	eng.After(30*time.Millisecond, func() {
		retry.Dial(target, 80, func(s *mic.Stream, err error) {
			if err != nil {
				fmt.Printf("retrying dial still refused after backoff: %v\n", err)
				return
			}
			admitted = true
			fmt.Printf("retrying dial admitted at t=%v with F=%d after %d automatic retries\n",
				eng.Now(), s.FlowCount(), retry.DialRetryCount)
		})
	})
	eng.RunUntil(sim.Time(100 * time.Millisecond))

	tel := mc.Telemetry()
	fmt.Printf("\nladder so far: %d degraded, %d refused, 0 silent drops\n",
		tel.Get("channels_degraded"), tel.Get("channels_refused"))

	// Close the first (full-F) channel: its freed rule budget goes to the
	// oldest degraded channel, which gets one m-flow back, and the retrying
	// client's next backoff attempt finds room too.
	fmt.Printf("\nclosing dial 0's channel at t=%v to release budget...\n", eng.Now())
	if err := clients[0].CloseChannel(target, nil); err != nil {
		log.Fatal(err)
	}
	eng.RunUntil(sim.Time(400 * time.Millisecond))
	fmt.Printf("flows restored to degraded channels: %d\n", mc.Telemetry().Get("flows_restored"))

	if !admitted {
		fmt.Println("fabric still saturated — the refusal stayed typed and the client stayed informed")
	}
	fmt.Println("\nthe MC never fell over: overload surfaced as degraded F and typed refusals,")
	fmt.Println("and capacity released by closes flowed back to degraded channels")
}
