package main

// This file is the benchmark's contract in one place: which workloads
// exist and why, and every metric's name, unit, clock, direction and bound.
// BENCHMARK.json at the repository root is generated from these tables
// (`-spec`); the smoke test fails when the two drift apart.

// Clocks. A virtual metric is a property of the modelled fabric: it is
// deterministic and repeats exactly for a given seed. A wall metric is a
// property of the simulator process.
const (
	clockVirtual = "virtual"
	clockWall    = "wall"
)

// metricSpec describes one metric.
type metricSpec struct {
	Name   string
	Unit   string
	Clock  string
	Better string // "lower" or "higher"

	// End-to-end metrics only. Bound is the share of the parent's median by
	// which the metric may get worse. Gate marks the metrics every workload
	// reports, which are the ones BENCHMARK.json lists; the others are
	// reported only by the workloads named in On, in the suite's table and
	// ledger.
	Bound float64
	Gate  bool
	On    []string
}

// endToEnd lists what a user of the system (or of the simulator) would see.
//
// The gated set is the subset that is defined, never zero and never the same
// at two seeds, on all six workloads. Every workload dials (a plain TCP
// connect counts as a dial), so dial latency applies everywhere; the gate
// takes its mean and its tail, because the median of 8 uncontended TCP
// connects is one constant of the fabric model. dial_tail_ms is dial_p99_ms
// where 10 samples lie beyond p99 and the slowest dial elsewhere, which on
// mckill_k4 is the blackout probe. done_ms is when the last payload byte or
// response arrived, or the last dial was acknowledged where no payload is
// carried: it stands for whichever figure the workload has (the inverse of
// goodput on bulk8_*, 2000 round trips on rpc64_mic, the inverse of
// channels_per_s on dial_*).
//
// Gated bounds are three times the spread (quartile distance over median)
// seen across ten seeds on the 2-core box this was written on, rounded up.
// For the virtual metrics that spread is what a 2 us shift of arrival
// instants does to the workload, which on dial_steady_k8 is 3 % of the mean
// dial latency: a bound tighter than that would trip on any change that
// reorders two events. At one seed the virtual metrics are exact, and
// -selfcheck demands exact equality.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Clock: clockWall, Better: "lower", Bound: 0.25, Gate: true},
	{Name: "wall_s", Unit: "s", Clock: clockWall, Better: "lower", Bound: 0.25, Gate: true},
	{Name: "alloc_mb", Unit: "MB", Clock: clockWall, Better: "lower", Bound: 0.05, Gate: true},
	{Name: "virt_cpu_ms", Unit: "ms", Clock: clockVirtual, Better: "lower", Bound: 0.02, Gate: true},
	{Name: "dial_mean_ms", Unit: "ms", Clock: clockVirtual, Better: "lower", Bound: 0.10, Gate: true},
	{Name: "dial_tail_ms", Unit: "ms", Clock: clockVirtual, Better: "lower", Bound: 0.05, Gate: true},
	{Name: "done_ms", Unit: "ms", Clock: clockVirtual, Better: "lower", Bound: 0.05, Gate: true},

	{Name: "goodput_mbps", Unit: "Mbit/s", Clock: clockVirtual, Better: "higher", Bound: 0.005,
		On: []string{"bulk8_mic", "bulk8_tcp", "mckill_k4"}},
	{Name: "rtt_p50_us", Unit: "us", Clock: clockVirtual, Better: "lower", Bound: 0.005, On: []string{"rpc64_mic"}},
	{Name: "rtt_p99_us", Unit: "us", Clock: clockVirtual, Better: "lower", Bound: 0.005, On: []string{"rpc64_mic"}},
	{Name: "dial_p50_ms", Unit: "ms", Clock: clockVirtual, Better: "lower", Bound: 0.005,
		On: []string{"bulk8_mic", "dial_burst_k8", "dial_steady_k8"}},
	{Name: "dial_p99_ms", Unit: "ms", Clock: clockVirtual, Better: "lower", Bound: 0.005,
		On: []string{"dial_burst_k8", "dial_steady_k8"}},
	{Name: "channels_per_s", Unit: "1/s", Clock: clockVirtual, Better: "higher", Bound: 0.005,
		On: []string{"dial_burst_k8", "dial_steady_k8"}},
	{Name: "blackout_ms", Unit: "ms", Clock: clockVirtual, Better: "lower", Bound: 0.005, On: []string{"mckill_k4"}},
	// fail_ratio is 0 at baseline and its bound is absolute: any failure is
	// a regression. The driver sees it as attempted/failed.
	{Name: "fail_ratio", Unit: "ratio", Clock: clockVirtual, Better: "lower", Bound: 0},
}

// perLayer lists the metrics of single layers; names are <module>.<metric>
// with the modules being the directories under internal/, plus host for the
// simulator process. Counts are read from exported counters and are exact;
// *_ns and *_allocs are kernels timed through one layer's public functions;
// est_share is kernel ns x the workload's count / wall_s.
var perLayer = []metricSpec{
	{Name: "host.iters", Unit: "count", Clock: clockWall, Better: "higher"},
	{Name: "host.wall_q1_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "host.wall_q3_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "host.wall_hi_s", Unit: "s", Clock: clockWall, Better: "lower"},
	{Name: "host.wall_hi_pct", Unit: "%", Clock: clockWall, Better: "higher"},
	{Name: "host.build_ms", Unit: "ms", Clock: clockWall, Better: "lower"},
	{Name: "host.run_ms", Unit: "ms", Clock: clockWall, Better: "lower"},
	{Name: "host.verify_ms", Unit: "ms", Clock: clockWall, Better: "lower"},
	{Name: "host.ns_per_event", Unit: "ns", Clock: clockWall, Better: "lower"},
	{Name: "host.ns_per_hop", Unit: "ns", Clock: clockWall, Better: "lower"},
	{Name: "host.mallocs_per_event", Unit: "count", Clock: clockWall, Better: "lower"},
	{Name: "host.alloc_bytes_per_hop", Unit: "B", Clock: clockWall, Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Clock: clockWall, Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Clock: clockWall, Better: "lower"},
	{Name: "host.peak_heap_mb", Unit: "MB", Clock: clockWall, Better: "lower"},
	{Name: "host.trace_overhead_ratio", Unit: "ratio", Clock: clockWall, Better: "lower"},
	{Name: "host.unattributed_share", Unit: "ratio", Clock: clockWall, Better: "lower"},

	{Name: "sim.events", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "sim.events_per_hop", Unit: "ratio", Clock: clockVirtual, Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Clock: clockWall, Better: "higher"},
	{Name: "sim.pending_peak", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Clock: clockWall, Better: "lower"},
	{Name: "sim.est_share", Unit: "ratio", Clock: clockWall, Better: "lower"},

	{Name: "packet.marshal_ns", Unit: "ns", Clock: clockWall, Better: "lower"},
	{Name: "packet.clone_ns", Unit: "ns", Clock: clockWall, Better: "lower"},
	{Name: "packet.clone_allocs", Unit: "count", Clock: clockWall, Better: "lower"},
	{Name: "packet.est_share", Unit: "ratio", Clock: clockWall, Better: "lower"},

	{Name: "flowtable.lookups", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "flowtable.cache_hit_ratio", Unit: "ratio", Clock: clockVirtual, Better: "higher"},
	{Name: "flowtable.entries_peak", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "flowtable.evictions", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "flowtable.lookup_hit_ns", Unit: "ns", Clock: clockWall, Better: "lower"},
	{Name: "flowtable.lookup_miss_ns", Unit: "ns", Clock: clockWall, Better: "lower"},
	{Name: "flowtable.insert_ns", Unit: "ns", Clock: clockWall, Better: "lower"},
	{Name: "flowtable.delete_cookie_ns", Unit: "ns", Clock: clockWall, Better: "lower"},
	{Name: "flowtable.est_share", Unit: "ratio", Clock: clockWall, Better: "lower"},

	{Name: "netsim.forwarded", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "netsim.delivered", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "netsim.dropped", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "netsim.lost_down", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "netsim.table_miss", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "netsim.tx_bytes", Unit: "B", Clock: clockVirtual, Better: "lower"},
	{Name: "netsim.wire_bytes_per_payload_byte", Unit: "ratio", Clock: clockVirtual, Better: "lower"},
	{Name: "netsim.virt_cpu_vswitch_ms", Unit: "ms", Clock: clockVirtual, Better: "lower"},
	{Name: "netsim.hop_ns", Unit: "ns", Clock: clockWall, Better: "lower"},
	{Name: "netsim.hop_allocs", Unit: "count", Clock: clockWall, Better: "lower"},
	{Name: "netsim.est_share", Unit: "ratio", Clock: clockWall, Better: "lower"},

	{Name: "transport.retransmits", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "transport.virt_cpu_stack_ms", Unit: "ms", Clock: clockVirtual, Better: "lower"},
	{Name: "transport.virt_cpu_crypto_ms", Unit: "ms", Clock: clockVirtual, Better: "lower"},
	{Name: "transport.mb_ns", Unit: "ns", Clock: clockWall, Better: "lower"},

	{Name: "maga.maddr_ns", Unit: "ns", Clock: clockWall, Better: "lower"},
	{Name: "maga.label_ns", Unit: "ns", Clock: clockWall, Better: "lower"},

	{Name: "topo.build_us", Unit: "us", Clock: clockWall, Better: "lower"},
	{Name: "topo.ecmp_ns", Unit: "ns", Clock: clockWall, Better: "lower"},

	{Name: "ctrlplane.flowmods", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "ctrlplane.groupmods", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "ctrlplane.deletes", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "ctrlplane.barriers", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "ctrlplane.batches", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "ctrlplane.mods_per_batch", Unit: "ratio", Clock: clockVirtual, Better: "higher"},
	{Name: "ctrlplane.retransmits", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "ctrlplane.timeouts", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "ctrlplane.giveups", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "ctrlplane.table_fulls", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "ctrlplane.stale_rejects", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "ctrlplane.heartbeats", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "ctrlplane.hellos", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "ctrlplane.dumps", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "ctrlplane.install_mod_ns", Unit: "ns", Clock: clockWall, Better: "lower"},

	{Name: "mic.dials", Unit: "count", Clock: clockVirtual, Better: "higher"},
	{Name: "mic.dials_ok", Unit: "count", Clock: clockVirtual, Better: "higher"},
	{Name: "mic.fail_overloaded", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.fail_timeout", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.fail_not_active", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.fail_unacked", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.fail_table_full", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.fail_id_exhausted", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.fail_other", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.path_cache_hit_ratio", Unit: "ratio", Clock: clockVirtual, Better: "higher"},
	{Name: "mic.path_cache_misses", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.live_channels_peak", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.rules_per_channel", Unit: "ratio", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.stream_retransmits", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.virt_cpu_mc_ms", Unit: "ms", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.journal_records", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.takeovers", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.stepdowns", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.rules_reinstalled", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.rules_stale_deleted", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.audit_stale", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.audit_missing", Unit: "count", Clock: clockVirtual, Better: "lower"},
	{Name: "mic.establish_ns", Unit: "ns", Clock: clockWall, Better: "lower"},
	{Name: "mic.establish_allocs", Unit: "count", Clock: clockWall, Better: "lower"},
	{Name: "mic.journal_append_ns", Unit: "ns", Clock: clockWall, Better: "lower"},
}

// reports tells whether workload w reports end-to-end metric m.
func (m metricSpec) reports(w string) bool {
	if m.Gate || m.On == nil {
		return true
	}
	for _, name := range m.On {
		if name == w {
			return true
		}
	}
	return false
}

// benchmarkFile is the shape of BENCHMARK.json: exactly the keys the driver
// accepts.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []e2eJSON      `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 12

// benchmarkSpec renders the tables above as BENCHMARK.json.
func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadJSON{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		if m.Gate {
			f.EndToEnd = append(f.EndToEnd, e2eJSON{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
		}
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layerJSON{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return f
}
