package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"mic/internal/harness"
	"mic/internal/sim"
)

// TestEveryRootFollowsSeed runs every figure's quick trial, every scenario
// and the plain transfer of every scheme at two seeds, recording the seed of
// each random root made (sim.RecordRoot). A root is keyed by its call site
// (rootSite): the same site at both seeds is the same root. A site whose
// roots draw the same seeds at both run seeds ignores the seed, and every
// "per-seed" figure it feeds repeats one draw. Comparing per site, not raw
// values, matters: one site's seed at run seed 8 may be another's at 9.
func TestEveryRootFollowsSeed(t *testing.T) {
	a, b := recordRoots(t, 8), recordRoots(t, 9)
	var stuck []string
	for site, seeds := range a {
		if other, ok := b[site]; ok && slices.Equal(seeds, other) {
			stuck = append(stuck, describeSite(site))
		}
	}
	sort.Strings(stuck)
	stuck = slices.Compact(stuck)
	for _, s := range stuck {
		t.Errorf("a root ignores the run's seed: %s", s)
	}
	// Both seeds must reach the roots that only some runs make, or a seed
	// pair that misses one would pass the check above unseen.
	for _, maker := range []string{"netsim.(*Network).SetLinkFault", "ctrlplane.NewChannel", "mic.Listen", "onion.NewClient"} {
		for i, roots := range []map[string][]uint64{a, b} {
			if !reaches(roots, maker) {
				t.Errorf("run %d made no root in %s", i+1, maker)
			}
		}
	}
}

// reaches reports whether a recorded site passes through fn.
func reaches(roots map[string][]uint64, fn string) bool {
	for site := range roots {
		if strings.Contains(site, fn+":") {
			return true
		}
	}
	return false
}

// recordRoots runs everything at seed and returns the sorted root seeds made
// at each site.
func recordRoots(t *testing.T, seed uint64) map[string][]uint64 {
	t.Helper()
	roots := map[string][]uint64{}
	var mu sync.Mutex // figures run their trials on several goroutines
	sim.RecordRoot = func(s uint64) {
		if site := rootSite(); site != "" {
			mu.Lock()
			roots[site] = append(roots[site], s)
			mu.Unlock()
		}
	}
	defer func() { sim.RecordRoot = nil }()
	for _, e := range harness.All() {
		if _, err := e.Run(harness.RunConfig{Seed: seed, Quick: true}); err != nil {
			t.Fatalf("fig %s at seed %d: %v", e.ID, seed, err)
		}
	}
	for _, e := range scenarios {
		f, ok := goldenFlags[e.name]
		if !ok {
			f.mflows, f.size = 2, 1<<20
		}
		if err := e.play(io.Discard, harness.Params{Seed: seed, From: 0, To: 15, Size: f.size}, 3, f.mflows, 1); err != nil {
			t.Fatalf("%s at seed %d: %v", e.name, seed, err)
		}
	}
	for _, scheme := range []string{"tcp", "ssl", "mic-tcp", "mic-ssl", "tor"} {
		args := []string{"-scheme", scheme, "-seed", fmt.Sprint(seed), "-size", "65536", "-latency"}
		var stderr bytes.Buffer
		if code := run(args, io.Discard, &stderr); code != 0 {
			t.Fatalf("micsim %v: exit %d: %s", args, code, stderr.String())
		}
	}
	for _, seeds := range roots {
		slices.Sort(seeds)
	}
	return roots
}

// rootSite names the call site of a root: the function that made it and
// its caller (the user of a network stream), then the harness and micsim
// frames that led there, innermost first. The packages between them are
// left out: which message or event first needs a lazily made root varies
// with the seed, while the bed and the trial that ran the engine do not.
// A generator Stream makes is no root, and gets "": it follows its parent.
func rootSite() string {
	pc := make([]uintptr, 128)
	frames := runtime.CallersFrames(pc[:runtime.Callers(3, pc)])
	var chain []string
	for {
		f, more := frames.Next()
		fn := f.Function
		if fn == "mic/internal/sim.(*RNG).Stream" {
			return ""
		}
		if strings.HasPrefix(fn, "mic/") && !strings.HasPrefix(fn, "mic/internal/sim.") &&
			(len(chain) < 2 || strings.HasPrefix(fn, "mic/internal/harness.") || strings.HasPrefix(fn, "mic/cmd/")) {
			chain = append(chain, fmt.Sprintf("%s:%d", strings.TrimPrefix(fn, "mic/internal/"), f.Line))
		}
		if !more {
			return strings.Join(chain, " < ")
		}
	}
}

// describeSite renders a site as the function making the root and the
// innermost harness function the chain passes through (the figure's trial,
// the bed builder or the scenario player), closures named by their parent.
func describeSite(site string) string {
	chain := strings.Split(site, " < ")
	fn := func(frame string) string {
		name := frame[:strings.LastIndex(frame, ":")]
		if i := strings.Index(name, ".func"); i >= 0 {
			name = name[:i]
		}
		return name
	}
	from := fn(chain[len(chain)-1])
	for _, frame := range chain {
		if strings.HasPrefix(frame, "harness.") {
			from = fn(frame)
			break
		}
	}
	return fmt.Sprintf("made in %s, called from %s, reached from %s", fn(chain[0]), fn(chain[1]), from)
}
