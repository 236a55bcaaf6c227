package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mic/internal/harness"
	"mic/internal/mic"
	"mic/internal/netsim"
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
		if name := strings.TrimSuffix(filepath.Base(f), ".seed7.golden"); name != plainGolden && lookup(name) == nil {
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

// plainGolden names the golden of the plain transfer, the one seed-7 golden
// that is not a scenario's.
const plainGolden = "plain"

// TestPlainTransferMatchesGolden pins the plain transfer and the ping-pong
// of every scheme at micsim's default flags: the stdout of
// "micsim -scheme S -seed 7 -latency" for the five schemes, each after a
// "$ micsim ..." line. It was captured before every scheme's transfer ran
// through one harness.Testbed.StartTransfer. Regenerate only on purpose:
//
//	go test ./cmd/micsim -run TestPlainTransferMatchesGolden -update
func TestPlainTransferMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, scheme := range []string{"tcp", "ssl", "mic-tcp", "mic-ssl", "tor"} {
		args := []string{"-scheme", scheme, "-seed", "7", "-latency"}
		fmt.Fprintf(&got, "$ micsim %s\n", strings.Join(args, " "))
		var stderr bytes.Buffer
		if code := run(args, &got, &stderr); code != 0 {
			t.Fatalf("micsim %v: exit %d: %s", args, code, stderr.String())
		}
	}
	golden := filepath.Join("testdata", plainGolden+".seed7.golden")
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
		t.Errorf("plain transfers diverged from %s:\n%s", golden, firstDiff(string(want), got.String()))
	}
}

// TestPlainTransferHonoursPair: -from and -to pick the transfer's and the
// ping-pong's hosts under every scheme. A pair on one edge switch prints
// other figures than the default cross-pod pair, a MIC channel's m-flow runs
// between the pair, and so does a Tor circuit.
func TestPlainTransferHonoursPair(t *testing.T) {
	for _, scheme := range []string{"tcp", "ssl", "mic-tcp", "mic-ssl", "tor"} {
		t.Run(scheme, func(t *testing.T) {
			out := func(args ...string) string {
				var stdout, stderr bytes.Buffer
				args = append([]string{"-scheme", scheme, "-size", "65536", "-latency"}, args...)
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("micsim %v: exit %d: %s", args, code, stderr.String())
				}
				return stdout.String()
			}
			far, near := out(), out("-from", "2", "-to", "3")
			if far == near {
				t.Fatalf("-from 2 -to 3 printed what the default pair does:\n%s", far)
			}
			if strings.HasPrefix(scheme, "mic") && !regexp.MustCompile(` path=h3->\S*->h4 `).MatchString(near) {
				t.Errorf("m-flow does not run from h3 to h4:\n%s", near)
			}
			if scheme == "tor" && !regexp.MustCompile(`(?m)^circuit: h3->\S*->h4$`).MatchString(near) {
				t.Errorf("circuit does not run from h3 to h4:\n%s", near)
			}
		})
	}
}

// TestPingPongRunsOnTransferConfig: -latency measures the ping-pong over a
// channel of the transfer's own configuration (-seed, -mflows, -fanout), not
// over the scheme comparisons' bed: the line it prints is what
// Testbed.PingPong reads on a fresh bed of that configuration.
func TestPingPongRunsOnTransferConfig(t *testing.T) {
	args := []string{"-scheme", "mic-tcp", "-seed", "7", "-mflows", "4", "-fanout", "2", "-size", "1024", "-latency"}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("micsim %v: exit %d: %s", args, code, stderr.String())
	}
	cfg := mic.Config{MNs: 3, MFlows: 4, MulticastFanout: 2, Seed: 7}
	tb, err := harness.NewTestbed(harness.SchemeMICTCP, 4, netsim.Config{Seed: cfg.Seed}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := tb.PingPong(harness.SchemeMICTCP, 0, 15, cfg.MNs)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("pingpong latency=%v\n", d); !strings.HasSuffix(stdout.String(), want) {
		t.Fatalf("micsim %v printed\n%swant it to end with %q", args, stdout.String(), want)
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

// TestErrorPaths: each bad invocation is refused with exit 2 and a one-line
// message on stderr, before anything runs.
func TestErrorPaths(t *testing.T) {
	for _, args := range []string{
		"-scenario bogus",
		"-scenario chaos -scheme tcp",
		"-from 0 -to 0",
		"-size -5",
		"-scheme bogus",
		"-scenario chaos -latency",
	} {
		t.Run(args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(args), &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
				t.Errorf("stderr is not one line: %q", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("wrote to stdout: %q", stdout.String())
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
