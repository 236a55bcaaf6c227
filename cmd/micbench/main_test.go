package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mic/internal/harness"
	"mic/internal/metrics"
)

// update rewrites the golden figure sets from the current build instead of
// diffing against them:
//
//	go test ./cmd/micbench -run TestFiguresMatchGolden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's figures")

// TestFiguresMatchGolden pins every figure micbench regenerates — the tables
// EXPERIMENTS.md quotes — byte for byte at seed 1, in full and in quick mode.
// "Every figure byte-identical" is the contract of any change that is not
// meant to move virtual time; a change that is meant to regenerates the
// goldens in the same diff. The goldens were captured at the commit before
// the harness rigs moved onto the one Testbed (PR 17). The full set takes
// ~25 s and is skipped under -short.
func TestFiguresMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
		long   bool
	}{
		{"all.quick.seed1.golden", []string{"-all", "-quick"}, false},
		{"all.seed1.golden", []string{"-all"}, true},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("full figure set skipped under -short")
			}
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("micbench %v: exit %d\n%s", tc.args, code, stderr.String())
			}
			got := stripElapsed(stdout.String())
			golden := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("figures diverged from %s: %s", golden, firstDiff(string(want), got))
			}
		})
	}
}

// stripElapsed drops the "(regenerated in 1.2s)" lines, the only wall-clock
// reads in micbench's output.
func stripElapsed(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "(regenerated in ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// firstDiff renders the first differing line of two figure sets.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(wl), len(gl))
}

// TestAllRunsPastAFailedExperiment: a failing experiment must not silence
// the figures after it; the run reports it and fails at the end by name.
func TestAllRunsPastAFailedExperiment(t *testing.T) {
	ok := func(id string) harness.Experiment {
		return harness.Experiment{ID: id, Run: func(harness.RunConfig) (*harness.Result, error) {
			return &harness.Result{ID: id, Title: id, Table: metrics.NewTable("x")}, nil
		}}
	}
	bad := harness.Experiment{ID: "bad", Run: func(harness.RunConfig) (*harness.Result, error) {
		return nil, errors.New("boom")
	}}
	var stdout, stderr bytes.Buffer
	err := regenerate([]harness.Experiment{ok("first"), bad, ok("last")}, harness.RunConfig{}, "", "", &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "1 of 3 experiments failed: bad") {
		t.Fatalf("err = %v, want the failed ID named", err)
	}
	if !strings.Contains(stderr.String(), "experiment bad failed: boom") {
		t.Errorf("failure not reported as it happened:\n%s", stderr.String())
	}
	for _, id := range []string{"=== first:", "=== last:"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("figure %q missing from output:\n%s", id, stdout.String())
		}
	}
}

// TestUsageErrorsExit2: a selector micbench cannot parse is refused, not
// silently replaced by a default.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "s10", "-topo", "fat8"},
		{"-fig", "s10", "-topo", "k"},
		{"-fig", "s10", "-topo", "k8x"},
		{"-fig", "nope"},
		{},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("micbench %v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("micbench %v: stdout %q, stderr %q; want a message on stderr only", args, stdout.String(), stderr.String())
		}
	}
}

// TestFigHelpListsEveryExperiment: the -fig help is derived from the
// registry, so it cannot go stale.
func TestFigHelpListsEveryExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	for _, e := range harness.All() {
		if !strings.Contains(stderr.String(), e.ID+", ") && !strings.Contains(stderr.String(), e.ID+")") {
			t.Errorf("-fig help omits %q:\n%s", e.ID, stderr.String())
		}
	}
}
