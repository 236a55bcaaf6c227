// Command benchmark is the repository's benchmark: six workloads on two
// clocks, with per-layer attribution measured from outside the layers.
//
// Without -seconds it is the suite: every workload (or those named by
// -workload) runs a fixed number of identical same-seed iterations in one
// process, on one goroutine, and every metric is printed by name with its
// unit and clock. With -seconds it is one driver run of one workload, which
// measures for that long and prints one JSON object as its last line. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// procStart is as close to process start as the program can observe.
var procStart = time.Now()

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workloads to run, comma-separated (default: all)")
		seed         = flag.Uint64("seed", 1, "seed the inputs are made from")
		seconds      = flag.Int("seconds", 0, "driver mode: measure one workload for this long, print one JSON line")
		trace        = flag.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		itersScale   = flag.Float64("iters-scale", 1, "suite: scale every workload's iteration count by this factor")
		out          = flag.String("out", "", "suite: write the ledger (one JSON document of metric rows) to this file")
		traceDir     = flag.String("trace-dir", "out", "directory for Chrome-trace JSON and CPU profiles of the traced pass")
		selfcheck    = flag.Bool("selfcheck", false, "run the suite twice and on a held-out seed; fail unless the runs agree")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json as generated from the metric tables, and exit")
		findings     = flag.Bool("findings", false, "re-measure the numbers of README.md's Findings section, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	switch {
	case *spec:
		doc, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(doc))
	case *findings:
		if err := printFindings(*seed); err != nil {
			fatal(err)
		}
	case *seconds > 0:
		if err := driverRun(*workloadFlag, *seed, time.Duration(*seconds)*time.Second, *trace != 0, *traceDir); err != nil {
			fatal(err)
		}
	default:
		ws, err := selected(*workloadFlag)
		if err != nil {
			fatal(err)
		}
		cfg := suiteConfig{seed: *seed, workloads: ws, itersScale: *itersScale, sc: 1, warm: warmups,
			traced: tracedIters, traceDir: *traceDir, kernelBudget: 20 * time.Millisecond}
		if *selfcheck {
			err = runSelfcheck(cfg)
		} else {
			var res *suiteResult
			if res, err = runSuite(cfg); err == nil {
				res.print(os.Stdout)
				if *out != "" {
					err = res.writeLedger(*out)
				}
				if err == nil && !res.correct() {
					err = fmt.Errorf("correctness checks failed")
				}
			}
		}
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// driverRun is one run under the driver's contract: one workload, inputs
// from the seed, measured for the given time, one JSON object on the last
// line of standard output. With tracing off the metrics are the gated
// end-to-end metrics; with tracing on, every per-layer metric.
func driverRun(name string, seed uint64, budget time.Duration, traced bool, traceDir string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("driver mode needs -workload, one of %v", workloadNames())
	}
	opt := options{seed: seed, sc: 1, warm: warmups}
	var specs []metricSpec
	if traced {
		kernels, err := runKernels(20 * time.Millisecond)
		if err != nil {
			return err
		}
		opt.kernels, opt.setups, opt.traced, opt.traceDir = kernels, 1, tracedIters, traceDir
		// The untraced pass is here the baseline of the tracing overhead.
		opt.more = forDuration(budget/3, 5)
		specs = perLayer
	} else {
		// Set-up runs five times and the median is reported.
		opt.setups = 5
		opt.more = forDuration(budget, 5)
		for _, m := range endToEnd {
			if m.Gate {
				specs = append(specs, m)
			}
		}
	}
	o, err := measure(w, opt)
	if err != nil {
		return err
	}
	values := o.e2e()
	if traced {
		values = o.layers()
	}

	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Attempted: o.untraced.attempted, Failed: o.untraced.failed, Metrics: map[string]metricJSON{}}
	if o.traced != nil {
		line.Attempted += o.traced.attempted
		line.Failed += o.traced.failed
	}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			o.problems = append(o.problems, "metric "+m.Name+" could not be measured")
			continue
		}
		line.Metrics[m.Name] = metricJSON{Value: v, Unit: m.Unit}
	}
	line.Correct = o.correct()
	for _, msg := range o.problems {
		fmt.Fprintln(os.Stderr, "benchmark:", w.name+":", msg)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d untraced iterations, process up %.1fs\n",
		w.name, seed, o.untraced.iters, time.Since(procStart).Seconds())
	doc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(doc))
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
