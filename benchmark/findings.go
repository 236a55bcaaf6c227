package main

import (
	"fmt"
	"time"

	"mic/internal/maga"
)

// printFindings re-measures the numbers README.md's Findings section
// quotes, each from one iteration of the dial workload at other settings.
// No fix is attempted here; the findings are inputs to later issues.
func printFindings(seed uint64) error {
	dial := func(arity, n int, rate float64) (*iterResult, error) {
		dials, err := dialSchedule(seed, arity, n, rate)
		if err != nil {
			return nil, err
		}
		r := newIterResult()
		err = iterDial(&inputs{dials: dials, arity: arity, hold: 5 * time.Millisecond}, nil, r)
		return r, err
	}

	// (a) The BENCH_pr9 k8 storm: 1200 dials at 60000/s, 5 ms hold.
	r, err := dial(8, 1200, 60000)
	if err != nil {
		return err
	}
	w := maga.FitWidths(fatTreeSwitches(8))
	fmt.Printf("(a) BENCH_pr9's k8 storm, 1200 dials at 60000/s: ok %.0f, failed %.0f, of which flow-ID exhaustion %.0f\n",
		r.counts["mic.dials_ok"], r.counts["mic.dials"]-r.counts["mic.dials_ok"], r.counts[failIDExhausted])
	fmt.Printf("    fat-tree(8) has %d flow IDs; a channel of 2 m-flows holds 4 (2 per m-flow, one per direction): %d channels fit\n",
		w.MaxFlowIDs(), w.MaxFlowIDs()/4)
	fmt.Printf("    channels_per_s %.0f is ok / (last ack - first dial) = a %.1f ms burst; the first close is due 5 ms after the first ack\n",
		r.virt["channels_per_s"], r.virt["done_ms"])

	// (b) Dial latency against offered rate.
	fmt.Println("(b) dial latency on fat-tree(8), 5 ms hold (ms, virtual):")
	fmt.Println("    dials   rate/s      p50      p99   failed")
	for _, c := range []struct {
		n    int
		rate float64
	}{
		{1000, 1000}, {1000, 5000}, {1000, 10000}, {1000, 20000}, {1000, 40000}, {1000, 60000}, {1000, 80000},
		{2000, 5000}, {2000, 10000}, {2000, 20000}, {4000, 5000}, {4000, 10000}, {4000, 20000}, {4000, 30000},
	} {
		r, err := dial(8, c.n, c.rate)
		if err != nil {
			return err
		}
		fmt.Printf("    %5d %8.0f %8.2f %8.2f %8.0f\n", c.n, c.rate,
			r.virt["dial_p50_ms"], r.virt["dial_tail_ms"], r.counts["mic.dials"]-r.counts["mic.dials_ok"])
	}

	// (c) The flow-ID space of fat-tree(16).
	w = maga.FitWidths(fatTreeSwitches(16))
	fmt.Printf("(c) fat-tree(16): %d switches need %d S_ID bits, leaving %d flow-ID bits = %d IDs = %d concurrent 2-m-flow channels\n",
		fatTreeSwitches(16), w.SID, w.FPart, w.MaxFlowIDs(), w.MaxFlowIDs()/4)
	for _, n := range []int{200, 400} {
		r, err := dial(16, n, 60000)
		if err != nil {
			return err
		}
		fmt.Printf("    %d dials at 60000/s: ok %.0f, flow-ID exhaustion %.0f\n", n, r.counts["mic.dials_ok"], r.counts[failIDExhausted])
	}
	return nil
}
