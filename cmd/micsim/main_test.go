package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden reports from the current build instead of
// diffing against them:
//
//	go test ./cmd/micsim -run TestScenarioReportsAreDeterministic -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's reports")

// TestScenarioReportsAreDeterministic is the regression net under miclint
// and the behaviour contract of every refactor: each scenario's seed-7
// report must equal its committed golden byte for byte — fault schedules,
// repair traces, takeover lines, health counters, throughput figures and
// all. Any unordered map iteration, wall-clock read or global-rand draw on a
// simulated path, and any change to what the control plane does event by
// event, shows up here as a diff. The goldens were generated at the commit
// before the control plane and the scenario beds were unified (PR 14).
func TestScenarioReportsAreDeterministic(t *testing.T) {
	const size = 1 << 20
	scenarios := []struct {
		name string
		run  func(w io.Writer, seed uint64) error
	}{
		{"chaos", func(w io.Writer, seed uint64) error {
			return chaosReport(w, false, 0, 15, 3, 2, 1, size, seed)
		}},
		{"lossy", func(w io.Writer, seed uint64) error {
			return lossyReport(w, false, 0, 15, 3, 2, 1, size, seed)
		}},
		// mckill gets a 4 MB payload so the transfer is still mid-flight when
		// the controller dies at 30ms — the takeover must happen under load.
		{"mckill", func(w io.Writer, seed uint64) error {
			return mckillReport(w, false, 0, 15, 3, 2, 1, 4*size, seed)
		}},
		// partition exercises the lease/fencing paths: mgmt cuts, step-downs,
		// epoch bumps, Hello fan-out, and stale-write rejection at switches.
		{"partition", func(w io.Writer, seed uint64) error {
			return partitionReport(w, false, 0, 15, 3, 2, 1, size, seed)
		}},
		// storm exercises the admission/backoff paths: token-bucket drains,
		// queue shedding, degraded-F admissions, seeded retry jitter.
		{"storm", func(w io.Writer, seed uint64) error {
			return stormReport(w, false, 0, 15, 3, 4, 1, size, seed)
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := sc.run(&got, 7); err != nil {
				t.Fatalf("run: %v", err)
			}
			golden := filepath.Join("testdata", sc.name+".seed7.golden")
			if *update {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("scenario %s diverged from %s:\n%s", sc.name, golden, firstDiff(string(want), got.String()))
			}
		})
	}
}

// TestScenarioReportsVaryBySeed guards the test above against vacuity: a
// report that ignored the seed entirely would pass the identity check.
func TestScenarioReportsVaryBySeed(t *testing.T) {
	var a, b bytes.Buffer
	if err := chaosReport(&a, false, 0, 15, 3, 2, 1, 1<<20, 7); err != nil {
		t.Fatalf("seed 7: %v", err)
	}
	if err := chaosReport(&b, false, 0, 15, 3, 2, 1, 1<<20, 8); err != nil {
		t.Fatalf("seed 8: %v", err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("chaos reports for different seeds are identical; the scenario is not consuming the seed")
	}
}

// firstDiff renders the first differing line of two reports.
func firstDiff(a, b string) string {
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("reports differ in length: %d vs %d lines", len(al), len(bl))
}
