package harness

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"mic/internal/metrics"
)

// RunConfig tunes an experiment run.
type RunConfig struct {
	Seed   uint64 // base seed; trial i uses Seed + i*1000003
	Trials int    // independent repetitions per data point
	Quick  bool   // smaller transfers, fewer points (for CI)
	Arity  int    // fat-tree arity for scale experiments (default 8)
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Trials == 0 {
		if c.Quick {
			c.Trials = 1
		} else {
			c.Trials = 3
		}
	}
	if c.Arity == 0 {
		c.Arity = 8
	}
	return c
}

// Result is one experiment's regenerated table plus commentary comparing it
// to the paper's reported shape.
type Result struct {
	ID    string
	Title string
	Table *metrics.Table
	Notes []string
}

// String renders the result for terminal output.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	b.WriteString(r.Table.String())
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment regenerates one figure or table.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg RunConfig) (*Result, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDs lists every registered experiment's ID, sorted and comma-separated.
func IDs() string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have: %s)", id, IDs())
}

// RunTrials evaluates fn for `trials` independent seeds and returns the
// sample of their results; see runTrialColumns.
func RunTrials(trials int, baseSeed uint64, fn func(seed uint64) (float64, error)) (*metrics.Sample, error) {
	cols, err := runTrialColumns(trials, baseSeed, func(seed uint64) ([]float64, error) {
		v, err := fn(seed)
		return []float64{v}, err
	})
	if err != nil {
		return nil, err
	}
	return &cols[0], nil
}

// runTrialColumns evaluates fn, which measures several values at once, for
// `trials` independent seeds in parallel and returns one sample per column,
// filled in trial order so a mean never depends on which goroutine finished
// first. Any failed trial fails the data point, with the lowest-numbered
// trial's error.
//
// These are the only goroutines the repository starts, and the ownership rule
// is stated here once: a bed — engine, network, control plane, counters —
// belongs to the goroutine that runs its engine; fn builds its bed, drives it
// and reads it on the one goroutine it is called on. Trials share nothing but
// their own slot of rows and errs (joined by wg) and the payload memo
// (schemes.go, under payloadMu), so nothing a bed is made of needs a lock.
func runTrialColumns(trials int, baseSeed uint64, fn func(seed uint64) ([]float64, error)) ([]metrics.Sample, error) {
	if trials < 1 {
		return nil, fmt.Errorf("harness: %d trials requested, need at least one", trials)
	}
	rows := make([][]float64, trials)
	errs := make([]error, trials)
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	var wg sync.WaitGroup
	for i := 0; i < trials; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i], errs[i] = fn(baseSeed + uint64(i)*1000003)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	cols := make([]metrics.Sample, len(rows[0]))
	for _, row := range rows {
		for c := range cols {
			cols[c].Add(row[c])
		}
	}
	return cols, nil
}
