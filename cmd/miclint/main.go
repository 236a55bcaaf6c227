// Command miclint runs the determinism and anonymity analyzers from
// internal/lint over the given packages (default ./...) and exits non-zero
// if any unsuppressed diagnostic is found.
//
//	go run ./cmd/miclint ./...
//
// Suppress a reviewed false positive at its site:
//
//	// lint:ignore detrange <reason>
//
// See internal/lint/README.md for what each check enforces and DESIGN.md's
// "Determinism contract" for why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mic/internal/lint"
)

// jsonFinding is the machine-readable shape of one diagnostic, stable for
// CI artifact consumers.
type jsonFinding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Checks   []string      `json:"checks"`
	Packages int           `json:"packages"`
	Findings []jsonFinding `json:"findings"`
}

func main() {
	var (
		checks  = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		list    = flag.Bool("list", false, "list available checks and exit")
		jsonOut = flag.String("json", "", "write findings as JSON to the given file (\"-\" for stdout)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: miclint [-checks c1,c2] [-json file] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *checks != "" {
		want := map[string]bool{}
		for _, c := range strings.Split(*checks, ",") {
			want[strings.TrimSpace(c)] = true
		}
		var kept []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				kept = append(kept, a)
				delete(want, a.Name)
			}
		}
		for unknown := range want {
			fmt.Fprintf(os.Stderr, "miclint: unknown check %q (try -list)\n", unknown)
			os.Exit(2)
		}
		analyzers = kept
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "miclint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(wd, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "miclint:", err)
		os.Exit(2)
	}
	findings, err := lint.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "miclint:", err)
		os.Exit(2)
	}
	if *jsonOut != "" {
		report := jsonReport{Packages: len(pkgs), Findings: []jsonFinding{}}
		for _, a := range analyzers {
			report.Checks = append(report.Checks, a.Name)
		}
		for _, f := range findings {
			report.Findings = append(report.Findings, jsonFinding{
				Check:   f.Check,
				File:    f.Position.Filename,
				Line:    f.Position.Line,
				Col:     f.Position.Column,
				Message: f.Message,
			})
		}
		out := os.Stdout
		if *jsonOut != "-" {
			var ferr error
			out, ferr = os.Create(*jsonOut)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "miclint:", ferr)
				os.Exit(2)
			}
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "miclint:", err)
			os.Exit(2)
		}
		if *jsonOut != "-" {
			if err := out.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "miclint:", err)
				os.Exit(2)
			}
		}
	}
	if *jsonOut != "-" {
		// Human-readable lines stay on stdout unless JSON owns it.
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
