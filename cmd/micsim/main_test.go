package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mic/internal/harness"
)

// update rewrites the golden reports from the current build instead of
// diffing against them:
//
//	go test ./cmd/micsim -run TestScenarioReportsAreDeterministic -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's reports")

// report runs the named scenario at seed with -mns 3 -fanout 1 -from 0
// -to 15 and the given -mflows and -size.
func report(t *testing.T, name string, seed uint64, mflows, size int) []byte {
	t.Helper()
	e := lookup(name)
	if e == nil {
		t.Fatalf("no scenario %q in the table", name)
	}
	var b bytes.Buffer
	if err := e.play(&b, harness.Params{Seed: seed, From: 0, To: 15, Size: size}, 3, mflows, 1); err != nil {
		t.Fatalf("%s at seed %d: %v", name, seed, err)
	}
	return b.Bytes()
}

// goldenFlags are the -mflows and -size each golden was made with, where
// they are not 2 and 1 MiB: mckill carries 4 MiB so the transfer is still
// mid-flight when the controller dies at 30ms (the takeover must happen
// under load), and storm asks for 4 m-flows.
var goldenFlags = map[string]struct{ mflows, size int }{
	"mckill": {2, 4 << 20},
	"storm":  {4, 1 << 20},
}

// TestScenarioReportsAreDeterministic is the regression net under miclint
// and the behaviour contract of every refactor: each scenario's seed-7
// report must equal its committed golden byte for byte — fault schedules,
// repair traces, takeover lines, health counters, throughput figures and
// all. Any unordered map iteration, wall-clock read or global-rand draw on a
// simulated path, and any change to what the control plane does event by
// event, shows up here as a diff. Every scenario in the table has a golden,
// and every golden names a scenario in the table. The goldens were written
// at 48d2e49, when the control plane and the scenario beds were unified;
// storm's was regenerated on purpose at 56beba3, 7da95bf and dd06c9c, each
// time the control plane's timing moved.
func TestScenarioReportsAreDeterministic(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.seed7.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := strings.TrimSuffix(filepath.Base(f), ".seed7.golden"); lookup(name) == nil {
			t.Errorf("%s names no scenario in the table", f)
		}
	}
	for _, e := range scenarios {
		t.Run(e.name, func(t *testing.T) {
			f, ok := goldenFlags[e.name]
			if !ok {
				f.mflows, f.size = 2, 1<<20
			}
			got := report(t, e.name, 7, f.mflows, f.size)
			golden := filepath.Join("testdata", e.name+".seed7.golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("scenario %s has no golden: %v", e.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("scenario %s diverged from %s:\n%s", e.name, golden, firstDiff(string(want), string(got)))
			}
		})
	}
}

// TestScenarioReportsVaryBySeed guards the test above against vacuity: a
// report that ignored the seed entirely would pass the identity check.
func TestScenarioReportsVaryBySeed(t *testing.T) {
	for _, e := range scenarios {
		t.Run(e.name, func(t *testing.T) {
			if bytes.Equal(report(t, e.name, 7, 2, 1<<20), report(t, e.name, 8, 2, 1<<20)) {
				t.Errorf("%s reports for seeds 7 and 8 are identical; the scenario is not consuming the seed", e.name)
			}
		})
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
