package chaos_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mic/internal/chaos"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
)

// The schedule oracle. testdata/schedules.golden pins every fault script's
// resolved schedule byte for byte; regenerate it only on purpose:
//
//	go test ./internal/chaos -run TestScheduleGolden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// scripts are the four fault scripts as the golden names them, each resolved
// for a transfer from `from` to `to` at seed.
var scripts = []struct {
	name    string
	resolve func(g *topo.Graph, seed uint64, from, to topo.NodeID) (chaos.Schedule, error)
}{
	{"chaos", chaos.Fabric.Resolve},
	{"lossy", chaos.Lossy.Resolve},
	{"failover", chaos.Failover.Resolve},
	{"partition", chaos.Partition.Resolve},
}

// failoverStarts are the kill times the golden renders FailoverScenario at:
// its default, two of the jittered starts the mckill workload draws, and one
// too early for the pre-kill cut (an error).
var failoverStarts = []time.Duration{
	30 * time.Millisecond,
	30*time.Millisecond + 57*time.Microsecond,
	30*time.Millisecond + 199*time.Microsecond,
	time.Millisecond,
}

// renderOrError is s rendered on g, or "error" when it was refused.
func renderOrError(g *topo.Graph, s chaos.Schedule, err error) string {
	if err != nil {
		return "error\n"
	}
	return s.Render(g)
}

// TestScenarioDeterministic checks what the golden renders do not pin, on
// fat-tree(4) for hosts 0->15: each script resolves a seed to equal
// schedules twice, seed 42's victims differ from some seed in 1-8's, and the
// chaos script plays three kinds of fault or more.
func TestScenarioDeterministic(t *testing.T) {
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	for _, sc := range scripts {
		a, errA := sc.resolve(g, 42, hosts[0], hosts[15])
		b, errB := sc.resolve(g, 42, hosts[0], hosts[15])
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 42 resolved twice to different schedules (%v, %v)", sc.name, errA, errB)
		}
		diverged := false
		for seed := uint64(1); seed <= 8 && !diverged; seed++ {
			c, err := sc.resolve(g, seed, hosts[0], hosts[15])
			diverged = err == nil && !reflect.DeepEqual(a, c)
		}
		if !diverged {
			t.Errorf("%s: seeds 1-8 all resolved to seed 42's schedule; its victims are not seeded", sc.name)
		}
		if sc.name == "chaos" {
			if k := kinds(a); len(k) < 3 {
				t.Errorf("chaos schedule has only %d distinct fault kinds: %v", len(k), k)
			}
		}
	}
}

// TestLossyScenarioDeterministic checks that the lossy script resolves a
// seed to equal schedules twice and that its six faults are all gray:
// degrade or clear, nothing the MC can see, rendered with their loss.
func TestLossyScenarioDeterministic(t *testing.T) {
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	from, to := g.Hosts()[0], g.Hosts()[15]
	a, err := chaos.Lossy.Resolve(g, 9, from, to)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.Lossy.Resolve(g, 9, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different lossy schedules:\n%s\nvs\n%s", a.Render(g), b.Render(g))
	}
	for _, f := range a {
		if f.Kind != chaos.LinkDegrade && f.Kind != chaos.LinkClear {
			t.Fatalf("lossy schedule contains a visible fault: %v", f.Kind)
		}
	}
	if len(a) != 6 {
		t.Fatalf("lossy schedule has %d faults, want 6 (three degrade/clear pairs)", len(a))
	}
	if r := a.Render(g); !strings.Contains(r, "link-degrade") || !strings.Contains(r, "loss=") {
		t.Fatalf("render missing degrade details:\n%s", r)
	}
}

// TestScheduleGolden renders, on fat-tree(4), each script for hosts 0->15 at
// seeds 0-19 and a sha256 over its renders for every ordered pair of
// distinct hosts at each seed, then FailoverScenario at failoverStarts.
func TestScheduleGolden(t *testing.T) {
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()

	var b bytes.Buffer
	for _, sc := range scripts {
		for seed := uint64(0); seed < 20; seed++ {
			s, err := sc.resolve(g, seed, hosts[0], hosts[15])
			fmt.Fprintf(&b, "# %s seed %d h0->h15\n%s", sc.name, seed, renderOrError(g, s, err))
			h := sha256.New()
			for i, from := range hosts {
				for j, to := range hosts {
					if i == j {
						continue
					}
					s, err := sc.resolve(g, seed, from, to)
					fmt.Fprintf(h, "h%d->h%d\n%s", i, j, renderOrError(g, s, err))
				}
			}
			fmt.Fprintf(&b, "# %s seed %d every pair sha256 %x\n", sc.name, seed, h.Sum(nil))
		}
	}
	for _, start := range failoverStarts {
		s, err := chaos.FailoverScenario(g, 0, chaos.FailoverConfig{From: hosts[0], To: hosts[15], Start: start})
		fmt.Fprintf(&b, "# failover start %v seed 0 h0->h15\n%s", start, renderOrError(g, s, err))
	}

	golden := filepath.Join("testdata", "schedules.golden")
	if *update {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got, wantLines := bytes.Split(b.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(got), len(wantLines)) {
			if !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("%s line %d:\n got %s\nwant %s", golden, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", golden, len(got), len(wantLines))
	}
}

// TestScriptsAreSurvivable is one predicate over every script: resolved on
// fat-tree(4) at seeds 0-19 for every ordered pair of distinct hosts, and
// replayed instant by instant, a schedule must keep the endpoints connected
// through switches that are up and links that are up and not degraded to
// loss 1, and must never have controller hosts 0 and 1 down at once.
// Management cuts are outside the predicate: they sever controllers from
// each other and from switches, never the endpoints' path, and whether a
// cluster rides them is what the partition scenario and fig s11 measure.
func TestScriptsAreSurvivable(t *testing.T) {
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	edge := g.Node(hosts[0]).Ports[0].Peer
	for _, s := range []chaos.Schedule{
		{{At: time.Millisecond, Kind: chaos.SwitchCrash, Node: edge}},
		{{At: time.Millisecond, Kind: chaos.MCKill, Ctrl: 1}, {At: time.Millisecond, Kind: chaos.MCKill}},
	} {
		if unsurvivable(g, s, hosts[0], hosts[15]) == "" {
			t.Fatalf("the predicate passes an unsurvivable schedule:\n%s", s.Render(g))
		}
	}
	for _, sc := range scripts {
		for seed := uint64(0); seed < 20; seed++ {
			for _, from := range hosts {
				for _, to := range hosts {
					if from == to {
						continue
					}
					s, err := sc.resolve(g, seed, from, to)
					if err != nil {
						t.Fatalf("%s seed %d %s->%s: %v", sc.name, seed, g.Node(from).Name, g.Node(to).Name, err)
					}
					if why := unsurvivable(g, s, from, to); why != "" {
						t.Errorf("%s seed %d %s->%s: %s\n%s", sc.name, seed,
							g.Node(from).Name, g.Node(to).Name, why, s.Render(g))
					}
				}
			}
		}
	}
}

// unsurvivable replays s on a model of g and says at which instant, if any,
// it breaks TestScriptsAreSurvivable's predicate.
func unsurvivable(g *topo.Graph, s chaos.Schedule, from, to topo.NodeID) string {
	type cable [2]topo.NodeID
	cableOf := func(node topo.NodeID, port int) cable {
		peer := g.Node(node).Ports[port].Peer
		return cable{min(node, peer), max(node, peer)}
	}
	switchDown := map[topo.NodeID]bool{}
	linkDown, blackholed := map[cable]bool{}, map[cable]bool{}
	ctrlDown := map[int]bool{}
	for i, f := range s {
		switch f.Kind {
		case chaos.LinkCut, chaos.LinkRestore:
			linkDown[cableOf(f.Node, f.Port)] = f.Kind == chaos.LinkCut
		case chaos.LinkDegrade, chaos.LinkClear:
			blackholed[cableOf(f.Node, f.Port)] = f.Kind == chaos.LinkDegrade && f.Profile.Loss >= 1
		case chaos.SwitchCrash, chaos.SwitchRestart:
			switchDown[f.Node] = f.Kind == chaos.SwitchCrash
		case chaos.PodCrash, chaos.PodRestart:
			for _, id := range chaos.PodSwitches(g, f.Pod) {
				switchDown[id] = f.Kind == chaos.PodCrash
			}
		case chaos.MCKill, chaos.MCRestart:
			ctrlDown[f.Ctrl] = f.Kind == chaos.MCKill
		}
		if i+1 < len(s) && s[i+1].At == f.At {
			continue // the instant is not over
		}
		if ctrlDown[0] && ctrlDown[1] {
			return fmt.Sprintf("at %v both controller hosts are down", f.At)
		}
		seen := map[topo.NodeID]bool{from: true}
		for queue := []topo.NodeID{from}; len(queue) > 0; queue = queue[1:] {
			for port, p := range g.Node(queue[0]).Ports {
				if c := cableOf(queue[0], port); seen[p.Peer] || linkDown[c] || blackholed[c] || switchDown[p.Peer] {
					continue
				}
				seen[p.Peer] = true
				queue = append(queue, p.Peer)
			}
		}
		if !seen[to] {
			return fmt.Sprintf("at %v no live path is left", f.At)
		}
	}
	return ""
}

// TestPlayRefusesWhatItCannotApply checks that a Runner plays nothing of a
// schedule holding a fault it could not apply: a control-loss fault with no
// southbound channel to degrade, or a victim still named by role.
func TestPlayRefusesWhatItCannotApply(t *testing.T) {
	g, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	host := g.Node(g.Hosts()[0])
	for _, c := range []struct {
		name string
		s    chaos.Schedule
	}{
		{"control loss, no channel", chaos.Schedule{
			{At: time.Millisecond, Kind: chaos.LinkCut, Node: host.Ports[0].Peer, Port: host.Ports[0].PeerPort},
			{At: 2 * time.Millisecond, Kind: chaos.ControlLoss, Loss: 0.5},
		}},
		{"unresolved role", chaos.Fabric.Faults},
	} {
		eng := sim.New()
		net := netsim.New(eng, g, netsim.Config{})
		runner := chaos.NewRunner(net, nil)
		if err := runner.Play(c.s); err == nil {
			t.Errorf("%s: Play accepted the schedule", c.name)
		}
		eng.Run()
		if len(runner.Applied) != 0 || !net.AllUp() {
			t.Errorf("%s: a refused schedule applied %d faults", c.name, len(runner.Applied))
		}
	}
}
