package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"mic/internal/sim"
)

// warmups is how many iterations set-up runs and discards, so the measured
// pass starts with a grown heap and warm caches.
const warmups = 3

// tracedIters is the length of the traced pass.
const tracedIters = 5

// runIter runs one iteration of w on a fresh testbed.
func runIter(w *workload, in *inputs, tr *tracer, i int) (*iterResult, error) {
	r := newIterResult()
	tr.beginIter(i)
	r.tStart = time.Now()
	if err := w.iter(in, tr, r); err != nil {
		return nil, err
	}
	r.tDone = time.Now()
	tr.spanTo("iteration", "", r.tStart, r.tDone)
	tr.spanTo("build", "iteration", r.tStart, r.tBuilt)
	tr.spanTo("run", "iteration", r.tBuilt, r.tRan)
	tr.spanTo("verify", "iteration", r.tRan, r.tDone)
	return r, nil
}

// setup makes the workload's inputs from the seed and runs the warm-up
// iterations. It returns the inputs and how long set-up took.
func setup(w *workload, seed uint64, sc scale, warm int) (*inputs, time.Duration, error) {
	start := time.Now()
	rng := sim.NewRNG(seed).Stream("benchmark/" + w.name)
	in, err := w.gen(rng, sc)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	for i := 0; i < warm; i++ {
		if _, err := runIter(w, in, nil, i); err != nil {
			return nil, 0, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}
	return in, time.Since(start), nil
}

// pass is the outcome of a run of identical iterations.
type pass struct {
	iters  int
	first  *iterResult // virtual metrics and counts, identical in every iteration
	wall   []float64   // per-iteration wall seconds
	build  []float64   // ms
	run    []float64   // ms
	verify []float64   // ms
	topo   []float64   // us

	attempted, failed int
	problems          []string
	otherFails        []string

	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPauseNs           uint64
	peakHeapBytes       uint64
}

// runPass runs iterations of w until more() says stop, checking after each
// that it produced exactly what the first did.
func runPass(w *workload, in *inputs, tr *tracer, more func(done int, elapsed time.Duration) bool) (*pass, error) {
	p := &pass{}
	runtime.GC()
	var m0, m runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for more(p.iters, time.Since(start)) {
		r, err := runIter(w, in, tr, p.iters)
		if err != nil {
			return nil, fmt.Errorf("%s: iteration %d: %w", w.name, p.iters, err)
		}
		if p.first == nil {
			p.first = r
			p.otherFails = r.otherFails
		} else if diff := diffResults(p.first, r); diff != "" {
			p.problems = append(p.problems, fmt.Sprintf("iteration %d is not identical to iteration 0: %s", p.iters, diff))
		}
		for _, msg := range r.problems {
			p.problems = append(p.problems, fmt.Sprintf("iteration %d: %s", p.iters, msg))
		}
		p.iters++
		p.attempted += r.attempted
		p.failed += r.failed
		p.wall = append(p.wall, r.tDone.Sub(r.tStart).Seconds())
		p.build = append(p.build, ms(r.tBuilt.Sub(r.tStart)))
		p.run = append(p.run, ms(r.tRan.Sub(r.tBuilt)))
		p.verify = append(p.verify, ms(r.tDone.Sub(r.tRan)))
		p.topo = append(p.topo, float64(r.topoBuild)/1e3)
		if tr != nil {
			// Heap in use at the end of the iteration, before the next
			// one lets the collector at it; read in the traced pass
			// only, because reading stops the world.
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > p.peakHeapBytes {
				p.peakHeapBytes = m.HeapAlloc
			}
		}
	}
	runtime.ReadMemStats(&m)
	p.allocBytes = m.TotalAlloc - m0.TotalAlloc
	p.mallocs = m.Mallocs - m0.Mallocs
	p.gcCycles = m.NumGC - m0.NumGC
	p.gcPauseNs = m.PauseTotalNs - m0.PauseTotalNs
	if len(p.problems) > 8 {
		p.problems = append(p.problems[:8], fmt.Sprintf("... and %d more", len(p.problems)-8))
	}
	return p, nil
}

// diffResults names the first virtual metric or count on which two
// iterations of one seed disagree, or returns "".
func diffResults(a, b *iterResult) string {
	for _, pair := range [][2]map[string]float64{{a.virt, b.virt}, {a.counts, b.counts}} {
		names := make([]string, 0, len(pair[0]))
		for name := range pair[0] {
			names = append(names, name)
		}
		for name := range pair[1] {
			if _, ok := pair[0][name]; !ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			x, okx := pair[0][name]
			y, oky := pair[1][name]
			if !okx || !oky || x != y {
				return fmt.Sprintf("%s = %v vs %v", name, x, y)
			}
		}
	}
	return ""
}

// fixedIters stops a pass after n iterations.
func fixedIters(n int) func(int, time.Duration) bool {
	return func(done int, _ time.Duration) bool { return done < n }
}

// forDuration stops a pass once d has elapsed, after at least min iterations.
func forDuration(d time.Duration, min int) func(int, time.Duration) bool {
	return func(done int, elapsed time.Duration) bool { return done < min || elapsed < d }
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// outcome is everything measured for one workload at one seed.
type outcome struct {
	w        *workload
	seed     uint64
	setupS   float64
	untraced *pass
	traced   *pass   // nil when the traced pass was not run
	tr       *tracer // nil likewise
	kernels  map[string]float64
	problems []string
}

func (o *outcome) correct() bool { return len(o.problems) == 0 }

// e2e returns the workload's end-to-end metrics, measured by the untraced
// pass. A metric that does not apply, or whose every sample failed, is
// absent.
func (o *outcome) e2e() map[string]float64 {
	p := o.untraced
	out := map[string]float64{
		"setup_s":  o.setupS,
		"wall_s":   median(p.wall),
		"alloc_mb": float64(p.allocBytes) / float64(p.iters) / 1e6,
	}
	for name, v := range p.first.virt {
		out[name] = v
	}
	return out
}

// layers returns the workload's per-layer metrics. Counts come from the
// untraced pass (the traced pass must agree), sampled peaks and the tracing
// overhead from the traced pass, kernels from the process-wide measurement.
func (o *outcome) layers() map[string]float64 {
	p := o.untraced
	out := map[string]float64{}
	for name, v := range p.first.counts {
		out[name] = v
	}
	for name, v := range o.kernels {
		out[name] = v
	}
	wallS := median(p.wall)
	runMs := median(p.run)
	events, hops := out["sim.events"], out["netsim.forwarded"]

	sorted := append([]float64(nil), p.wall...)
	sort.Float64s(sorted)
	n := len(sorted)
	hi, hiPct := sorted[n-1], 100.0
	if n > 10 {
		// the highest percentile with at least ten samples beyond it
		hi, hiPct = sorted[n-11], 100*float64(n-10)/float64(n)
	}
	out["host.iters"] = float64(p.iters)
	out["host.wall_q1_s"] = sorted[(n-1)/4]
	out["host.wall_q3_s"] = sorted[(3*n-1)/4]
	out["host.wall_hi_s"] = hi
	out["host.wall_hi_pct"] = hiPct
	out["host.build_ms"] = median(p.build)
	out["host.run_ms"] = runMs
	out["host.verify_ms"] = median(p.verify)
	out["host.ns_per_event"] = ratio(runMs*1e6, events)
	out["host.ns_per_hop"] = ratio(runMs*1e6, hops)
	out["host.mallocs_per_event"] = ratio(float64(p.mallocs)/float64(p.iters), events)
	out["host.alloc_bytes_per_hop"] = ratio(float64(p.allocBytes)/float64(p.iters), hops)
	out["host.gc_cycles"] = float64(p.gcCycles)
	out["host.gc_pause_ms"] = float64(p.gcPauseNs) / 1e6
	out["sim.events_per_s"] = ratio(events, runMs/1e3)
	out["topo.build_us"] = median(p.topo)

	if o.traced != nil {
		out["host.peak_heap_mb"] = float64(o.traced.peakHeapBytes) / 1e6
		out["host.trace_overhead_ratio"] = ratio(median(o.traced.wall), wallS)
		out["sim.pending_peak"] = float64(o.tr.pendingPeak)
		out["flowtable.entries_peak"] = float64(o.tr.entriesPeak)
	}

	// est_share: what each layer's kernels, priced per call, say its calls
	// cost this workload, as a share of one iteration's wall clock. The
	// shares do not overlap: netsim's is priced at what a hop costs beyond
	// the events and the lookup that sim and flowtable already claim.
	if o.kernels != nil && wallS > 0 {
		k := o.kernels
		wallNs := wallS * 1e9
		hits := out["flowtable.cache_hits"]
		out["sim.est_share"] = k["sim.event_ns"] * events / wallNs
		out["packet.est_share"] = k["packet.clone_ns"] * out["netsim.host_tx_packets"] / wallNs
		out["flowtable.est_share"] = (k["flowtable.lookup_hit_ns"]*hits +
			k["flowtable.lookup_miss_ns"]*(out["flowtable.lookups"]-hits) +
			k["flowtable.insert_ns"]*(out["ctrlplane.flowmods"]+out["ctrlplane.groupmods"]) +
			k["flowtable.delete_cookie_ns"]*out["ctrlplane.deletes"]) / wallNs
		out["netsim.est_share"] = k["netsim.hop_self_ns"] * hops / wallNs
		out["host.unattributed_share"] = 1 - out["sim.est_share"] - out["packet.est_share"] -
			out["flowtable.est_share"] - out["netsim.est_share"]
	}
	return out
}

// options selects how much of a workload's measurement runs.
type options struct {
	seed     uint64
	sc       scale
	warm     int
	more     func(int, time.Duration) bool // length of the untraced pass
	traced   int                           // traced iterations, 0 for none
	setups   int                           // how many times set-up runs; the median is reported
	traceDir string                        // where trace and profile go; "" writes neither
	kernels  map[string]float64
}

// measure runs one workload: set-up, the untraced pass that yields the
// end-to-end metrics, and the traced pass that yields the per-layer ones.
func measure(w *workload, opt options) (*outcome, error) {
	o := &outcome{w: w, seed: opt.seed, kernels: opt.kernels}
	var in *inputs
	var setups []float64
	for i := 0; i < max(opt.setups, 1); i++ {
		var d time.Duration
		var err error
		if in, d, err = setup(w, opt.seed, opt.sc, opt.warm); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	o.setupS = median(setups)

	var err error
	if o.untraced, err = runPass(w, in, nil, opt.more); err != nil {
		return nil, err
	}
	o.problems = append(o.problems, o.untraced.problems...)
	for _, msg := range o.untraced.otherFails {
		o.problems = append(o.problems, "unclassified dial failure: "+msg)
	}
	if o.untraced.failed > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%d of %d operations failed", o.untraced.failed, o.untraced.attempted))
	}
	if opt.traced == 0 {
		return o, nil
	}

	o.tr = newTracer()
	stopProfile := func() error { return nil }
	if opt.traceDir != "" {
		if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(filepath.Join(opt.traceDir, "cpu-"+w.name+".pprof"))
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopProfile = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	o.traced, err = runPass(w, in, o.tr, fixedIters(opt.traced))
	if cerr := stopProfile(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	o.problems = append(o.problems, o.traced.problems...)
	if diff := diffResults(o.untraced.first, o.traced.first); diff != "" {
		o.problems = append(o.problems, "traced pass is not identical to untraced pass: "+diff)
	}
	if opt.traceDir != "" {
		if err := o.tr.write(filepath.Join(opt.traceDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// compareOutcomes checks a second measurement of the same code against the
// first: virtual metrics and counts must match exactly, wall end-to-end
// metrics must be within their own bound.
func compareOutcomes(a, b *outcome) []string {
	var out []string
	if diff := diffResults(a.untraced.first, b.untraced.first); diff != "" {
		out = append(out, fmt.Sprintf("%s: virtual output differs between runs: %s", a.w.name, diff))
	}
	ea, eb := a.e2e(), b.e2e()
	for _, m := range endToEnd {
		if m.Clock != clockWall {
			continue
		}
		if worse := eb[m.Name]/ea[m.Name] - 1; worse > m.Bound {
			out = append(out, fmt.Sprintf("%s: %s %.4g -> %.4g %s is %.1f%% worse, bound %.0f%%",
				a.w.name, m.Name, ea[m.Name], eb[m.Name], m.Unit, 100*worse, 100*m.Bound))
		}
	}
	return out
}

// selected resolves a comma-separated workload list; "" means all.
func selected(list string) ([]*workload, error) {
	if list == "" {
		return workloads, nil
	}
	var out []*workload
	for _, name := range strings.Split(list, ",") {
		w := findWorkload(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}
