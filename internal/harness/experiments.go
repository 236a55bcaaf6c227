package harness

import (
	"fmt"

	"mic/internal/metrics"
	"mic/internal/mic"
)

// transferSize returns the bulk-transfer size for throughput experiments.
func transferSize(cfg RunConfig) int {
	if cfg.Quick {
		return 1 << 20
	}
	return 8 << 20
}

func routeLengths(cfg RunConfig) []int {
	if cfg.Quick {
		return []int{1, 3, 5}
	}
	return []int{1, 2, 3, 4, 5}
}

func init() {
	register(Experiment{
		ID:    "7",
		Title: "Fig 7: route setup time vs route length (ms)",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "8",
		Title: "Fig 8: 10-byte ping-pong latency after session establishment (ms)",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "9a",
		Title: "Fig 9(a): throughput of one flow vs path length (Mbps)",
		Run:   runFig9a,
	})
	register(Experiment{
		ID:    "9b",
		Title: "Fig 9(b): average per-flow throughput vs number of flows (Mbps)",
		Run:   runFig9b,
	})
	register(Experiment{
		ID:    "9c",
		Title: "Fig 9(c): CPU usage during the one-flow throughput run",
		Run:   runFig9c,
	})
}

func runFig7(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	tbl := metrics.NewTable("route_len", "MIC", "Tor", "TCP", "SSL")
	for _, rl := range routeLengths(cfg) {
		row := []any{rl}
		for _, scheme := range []Scheme{SchemeMICTCP, SchemeTor, SchemeTCP, SchemeSSL} {
			scheme, rl := scheme, rl
			sample, err := RunTrials(cfg.Trials, cfg.Seed, func(seed uint64) (float64, error) {
				d, err := SetupTime(scheme, rl, seed)
				return d.Seconds() * 1e3, err
			})
			if err != nil {
				return nil, fmt.Errorf("fig7 %v len %d: %w", scheme, rl, err)
			}
			row = append(row, sample.Mean())
		}
		tbl.AddRow(row...)
	}
	return &Result{
		ID: "7", Title: "Route setup time vs route length (ms)", Table: tbl,
		Notes: []string{
			"paper shape: Tor grows ~linearly with route length; MIC stays nearly flat, slightly above TCP/SSL",
		},
	}, nil
}

func runFig8(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	tbl := metrics.NewTable("scheme", "latency_ms", "vs_TCP")
	var tcpBase float64
	type rowT struct {
		scheme Scheme
		ms     float64
	}
	var rows []rowT
	for _, scheme := range AllSchemes() {
		scheme := scheme
		sample, err := RunTrials(cfg.Trials, cfg.Seed, func(seed uint64) (float64, error) {
			d, err := PingPongLatency(scheme, defaultPair[0], defaultPair[1], 3, seed)
			return d.Seconds() * 1e3, err
		})
		if err != nil {
			return nil, fmt.Errorf("fig8 %v: %w", scheme, err)
		}
		if scheme == SchemeTCP {
			tcpBase = sample.Mean()
		}
		rows = append(rows, rowT{scheme, sample.Mean()})
	}
	for _, r := range rows {
		tbl.AddRow(r.scheme.String(), r.ms, fmt.Sprintf("%.1fx", r.ms/tcpBase))
	}
	return &Result{
		ID: "8", Title: "Latency comparison (10-byte echo)", Table: tbl,
		Notes: []string{
			"paper shape: Tor ~62x TCP; MIC-TCP ~ TCP; MIC-SSL ~ SSL",
		},
	}, nil
}

func runFig9a(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	size := transferSize(cfg)
	tbl := metrics.NewTable("path_len", "TCP", "SSL", "MIC-TCP", "MIC-SSL", "Tor")
	for _, rl := range routeLengths(cfg) {
		row := []any{rl}
		for _, scheme := range []Scheme{SchemeTCP, SchemeSSL, SchemeMICTCP, SchemeMICSSL, SchemeTor} {
			scheme, rl := scheme, rl
			sample, err := RunTrials(cfg.Trials, cfg.Seed, func(seed uint64) (float64, error) {
				r, err := ThroughputOneFlow(scheme, rl, size, seed)
				return r.Mbps, err
			})
			if err != nil {
				return nil, fmt.Errorf("fig9a %v len %d: %w", scheme, rl, err)
			}
			row = append(row, sample.Mean())
		}
		tbl.AddRow(row...)
	}
	return &Result{
		ID: "9a", Title: "Throughput of one flow vs path length (Mbps)", Table: tbl,
		Notes: []string{
			"paper shape: MIC within ~1% of TCP (SSL) at every length; Tor far lower and decreasing",
		},
	}, nil
}

func runFig9b(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	size := transferSize(cfg)
	flowCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		flowCounts = []int{1, 4, 8}
	}
	tbl := metrics.NewTable("flows", "TCP", "SSL", "MIC-TCP", "MIC-SSL", "Tor")
	for _, nf := range flowCounts {
		row := []any{nf}
		for _, scheme := range []Scheme{SchemeTCP, SchemeSSL, SchemeMICTCP, SchemeMICSSL, SchemeTor} {
			scheme, nf := scheme, nf
			sample, err := RunTrials(cfg.Trials, cfg.Seed, func(seed uint64) (float64, error) {
				return MultiFlowAvgThroughput(scheme, nf, size, seed, mic.Config{})
			})
			if err != nil {
				return nil, fmt.Errorf("fig9b %v flows %d: %w", scheme, nf, err)
			}
			row = append(row, sample.Mean())
		}
		tbl.AddRow(row...)
	}
	return &Result{
		ID: "9b", Title: "Average per-flow throughput vs number of flows (Mbps)", Table: tbl,
		Notes: []string{
			"paper shape: TCP/SSL/MIC stay roughly flat (disjoint pairs); Tor's average collapses as shared relays saturate",
		},
	}, nil
}

func runFig9c(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	size := transferSize(cfg)
	tbl := metrics.NewTable("scheme", "cpu_util", "crypto_ms", "relay_ms", "vswitch_ms", "stack_ms")
	for _, scheme := range AllSchemes() {
		r, err := ThroughputOneFlow(scheme, 3, size, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("fig9c %v: %w", scheme, err)
		}
		ms := func(cat string) float64 { return r.CPUBy[cat].Seconds() * 1e3 }
		tbl.AddRow(scheme.String(),
			float64(r.CPUTotal)/float64(r.Wall),
			ms("crypto"), ms("relay"), ms("vswitch"), ms("stack"))
	}
	return &Result{
		ID: "9c", Title: "CPU usage during the Fig 9(a) transfer", Table: tbl,
		Notes: []string{
			"paper shape: MIC-TCP ~= TCP + small vswitch overhead; MIC-SSL ~= SSL; Tor several times higher (relay forwarding + layered crypto)",
			"cpu_util is virtual CPU time over transfer wall time (cores)",
		},
	}, nil
}
