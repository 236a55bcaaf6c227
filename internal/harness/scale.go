package harness

import (
	"fmt"

	"mic/internal/maga"
	"mic/internal/metrics"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "sc",
		Title: "Sec VI-C: MC scalability — setup time and flow-table occupancy vs live channels and fabric size",
		Run:   runScale,
	})
}

// runScale quantifies the paper's scalability analysis: channel setup cost
// is O(|F|) and independent of how many channels are already live, and the
// per-switch rule footprint grows modestly. Measured on the paper's k=4
// fat-tree and on k=8 (80 switches, 128 hosts) with widened MAGA label
// fields.
func runScale(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	tbl := metrics.NewTable("topology", "live_channels", "setup_ms", "max_rules_per_switch", "mean_rules_per_switch")
	fabrics := []struct {
		name   string
		k      int
		widths maga.Widths
		checks []int
	}{
		{"fattree-4", 4, maga.Widths{}, []int{1, 16, 48}},
		{"fattree-8", 8, maga.Widths{SID: 8, SPart: 13, FPart: 7}, []int{1, 16, 48}},
	}
	if cfg.Quick {
		fabrics[0].checks = []int{1, 16}
		fabrics[1].checks = []int{1, 16}
	}
	for _, f := range fabrics {
		rows, err := scaleTrial(f.k, f.widths, f.checks, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("sc %s: %w", f.name, err)
		}
		for _, r := range rows {
			tbl.AddRow(f.name, r.channels, r.setupMS, r.maxRules, r.meanRules)
		}
	}
	return &Result{
		ID: "sc", Title: "MC scalability (Sec VI-C)", Table: tbl,
		Notes: []string{
			"paper claim: routing calculation is O(|F|) per channel — setup time should not grow with live channels or fabric size",
			"rule footprint: common routing is per-destination; each channel adds O(path length) exact-match rules",
		},
	}, nil
}

type scaleRow struct {
	channels  int
	setupMS   float64
	maxRules  int
	meanRules float64
}

// scaleTrial establishes channels between distinct host pairs sequentially
// and samples the setup latency and table occupancy at each checkpoint.
func scaleTrial(k int, widths maga.Widths, checks []int, seed uint64) ([]scaleRow, error) {
	tb, err := NewTestbed(SchemeMICTCP, k, netsim.Config{}, mic.Config{MNs: 3, Widths: widths, Seed: seed}, nil)
	if err != nil {
		return nil, err
	}
	eng, net, mc, stacks := tb.Eng, tb.Net, tb.MC, tb.Stacks
	n := len(stacks)
	total := checks[len(checks)-1]
	if total > n*(n-1) {
		return nil, fmt.Errorf("harness: %d channels exceed host pairs", total)
	}

	var rows []scaleRow
	rng := sim.NewRNG(seed ^ 0x5ca1e)
	check := 0
	var establish func(i int)
	establish = func(i int) {
		if i >= total {
			return
		}
		// Distinct cross-half pairs; initiators cycle over the first half.
		src := i % (n / 2)
		dst := n/2 + (src+i/(n/2)+rng.Intn(n/4))%(n/2)
		if dst == src {
			dst = (dst + 1) % n
		}
		start := eng.Now()
		mc.EstablishChannel(stacks[src].Host.IP, stacks[dst].Host.IP.String(), mic.ChannelOptions{}, func(info *mic.ChannelInfo, err error) {
			if err != nil {
				// Pair collisions can exhaust entry reservations on tiny
				// fabrics; skip rather than fail the sweep.
				establish(i + 1)
				return
			}
			if check < len(checks) && i+1 == checks[check] {
				maxR, meanR := ruleStats(net)
				rows = append(rows, scaleRow{
					channels:  i + 1,
					setupMS:   eng.Now().Sub(start).Seconds() * 1e3,
					maxRules:  maxR,
					meanRules: meanR,
				})
				check++
			}
			establish(i + 1)
		})
	}
	establish(0)
	eng.Run()
	if len(rows) != len(checks) {
		return nil, fmt.Errorf("harness: only %d/%d checkpoints reached", len(rows), len(checks))
	}
	return rows, nil
}

func ruleStats(net *netsim.Network) (max int, mean float64) {
	total := 0
	count := 0
	for _, sw := range net.Switches() {
		l := sw.Table.Len()
		total += l
		count++
		if l > max {
			max = l
		}
	}
	return max, float64(total) / float64(count)
}
