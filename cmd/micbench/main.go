// Command micbench regenerates the paper's evaluation: every figure of
// Section VI plus the quantified security analysis and ablations. It is the
// repository's one virtual-time measuring stack; wall clock is benchmark/'s.
//
// Usage:
//
//	micbench -list              # show experiment IDs
//	micbench -fig 9a            # one experiment
//	micbench -all               # everything
//	micbench -all -quick        # smaller transfers, single trial
//	micbench -all -json out.json # also write machine-readable results
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mic/internal/harness"
)

// jsonResult is one experiment's table in machine-readable form. The rows
// are the already-formatted table cells, so the JSON is byte-stable across
// runs with the same seed (part of the determinism contract) apart from the
// wall-clock elapsed field.
type jsonResult struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	Elapsed string     `json:"elapsed"`
}

// jsonDoc is the top-level document written by -json.
type jsonDoc struct {
	Seed    uint64       `json:"seed"`
	Trials  int          `json:"trials"`
	Quick   bool         `json:"quick"`
	Results []jsonResult `json:"results"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values: 0 on success, 1 if
// an experiment or an output file failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("micbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "", "experiment ID to run ("+harness.IDs()+")")
		all      = fs.Bool("all", false, "run every experiment")
		list     = fs.Bool("list", false, "list experiments")
		quick    = fs.Bool("quick", false, "reduced sizes and trials")
		seed     = fs.Uint64("seed", 1, "base RNG seed")
		trials   = fs.Int("trials", 0, "trials per data point (0 = default)")
		csvDir   = fs.String("csv", "", "also write each table as CSV into this directory")
		jsonPath = fs.String("json", "", "also write all results as JSON to this file")
		arity    int
	)
	fs.Func("topo", "fabric for scale experiments: k8, k16 (default k8)", func(sel string) (err error) {
		digits, ok := strings.CutPrefix(sel, "k")
		if arity, err = strconv.Atoi(digits); !ok || err != nil || arity < 2 {
			return errors.New("not a fat-tree selector")
		}
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}
	cfg := harness.RunConfig{Seed: *seed, Trials: *trials, Quick: *quick, Arity: arity}
	var exps []harness.Experiment
	switch {
	case *all:
		exps = harness.All()
	case *fig != "":
		e, err := harness.Find(*fig)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		exps = []harness.Experiment{e}
	default:
		fs.Usage()
		return 2
	}
	if err := regenerate(exps, cfg, *csvDir, *jsonPath, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// regenerate runs every experiment in exps, printing each table as it
// completes. A failed experiment is reported and the rest still run; the
// returned error names every experiment that failed.
func regenerate(exps []harness.Experiment, cfg harness.RunConfig, csvDir, jsonPath string, stdout, stderr io.Writer) error {
	doc := jsonDoc{Seed: cfg.Seed, Trials: cfg.Trials, Quick: cfg.Quick}
	var failed []string
	for _, e := range exps {
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "experiment %s failed: %v\n", e.ID, err)
			failed = append(failed, e.ID)
			continue
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		fmt.Fprint(stdout, res.String())
		fmt.Fprintf(stdout, "(regenerated in %v)\n\n", elapsed)
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(csvDir, "fig"+res.ID+".csv")
			if err := os.WriteFile(path, []byte(res.Table.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n\n", path)
		}
		doc.Results = append(doc.Results, jsonResult{
			ID:      res.ID,
			Title:   res.Title,
			Header:  res.Table.Header(),
			Rows:    res.Table.Rows(),
			Notes:   res.Notes,
			Elapsed: elapsed.String(),
		})
	}
	if jsonPath != "" {
		out, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", jsonPath)
	}
	if len(failed) > 0 {
		return fmt.Errorf("micbench: %d of %d experiments failed: %s", len(failed), len(exps), strings.Join(failed, ", "))
	}
	return nil
}
