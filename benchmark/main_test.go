package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpec checks the metric tables against the limits of the driver's
// contract and against the committed BENCHMARK.json.
func TestSpec(t *testing.T) {
	spec := benchmarkSpec()
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q does not match %v", s, nameRE)
		}
		if seen[s] {
			t.Errorf("name %q is used twice", s)
		}
		seen[s] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Clock != clockVirtual && m.Clock != clockWall {
			t.Errorf("%s: clock %q", m.Name, m.Clock)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: direction %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside 0..0.25", m.Name, m.Bound)
		}
		for _, on := range m.On {
			if findWorkload(on) == nil {
				t.Errorf("%s: reported by unknown workload %q", m.Name, on)
			}
		}
	}
	var setup *e2eJSON
	for i, m := range spec.EndToEnd {
		if m.Bound <= 0 {
			t.Errorf("%s: gated metric needs a positive bound", m.Name)
		}
		if m.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be gated, in s, lower is better: %+v", setup)
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&committed); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(committed, spec) {
		t.Errorf("BENCHMARK.json differs from the tables in spec.go; regenerate it with `go run -C benchmark . -spec`")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
}

// TestSuiteSmoke runs the whole suite twice at a tiny scale and checks that
// every workload emits exactly the metrics the tables name, that all checks
// are green, and that same-seed virtual output is identical across the two
// in-process runs.
func TestSuiteSmoke(t *testing.T) {
	dir := t.TempDir()
	cfg := suiteConfig{
		seed: 1, workloads: workloads, itersScale: 0.04, sc: 1.0 / 64, warm: 1,
		traced: 1, traceDir: dir, kernelBudget: time.Millisecond,
	}
	first, err := runSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range first.outcomes {
		w := o.w.name
		for _, msg := range o.problems {
			t.Errorf("%s: %s", w, msg)
		}
		if diff := diffResults(o.untraced.first, second.outcomes[i].untraced.first); diff != "" {
			t.Errorf("%s: same seed, different virtual output: %s", w, diff)
		}

		want := map[string]bool{}
		for _, m := range endToEnd {
			if m.reports(w) {
				want[m.Name] = true
			}
		}
		for _, m := range perLayer {
			want[m.Name] = true
		}
		e2e := o.e2e()
		for _, r := range o.rows() {
			if !want[r.Name] {
				t.Errorf("%s emits %s, which no table names", w, r.Name)
			}
			delete(want, r.Name)
			if r.Unit == "" || r.Clock == "" || r.Workload != w || r.Seed != 1 || r.Iters < 1 {
				t.Errorf("%s: incomplete ledger row %+v", w, r)
			}
		}
		if o.layers()["mic.dials"] < 1000 {
			delete(want, "dial_p99_ms") // p99 needs 10 samples beyond it
		}
		for name := range want {
			t.Errorf("%s does not emit %s", w, name)
		}
		for _, m := range endToEnd {
			if m.Gate && !(e2e[m.Name] > 0) {
				t.Errorf("%s: gated metric %s = %v, must never be 0", w, m.Name, e2e[m.Name])
			}
		}

		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ TraceEvents []traceEvent }
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace has %d events, err %v", w, len(doc.TraceEvents), err)
		}
		if st, err := os.Stat(filepath.Join(dir, "cpu-"+w+".pprof")); err != nil || st.Size() == 0 {
			t.Errorf("%s: CPU profile missing or empty: %v", w, err)
		}
	}

	ledger := filepath.Join(dir, "ledger.json")
	if err := first.writeLedger(ledger); err != nil {
		t.Fatal(err)
	}
	var doc struct{ Rows []row }
	raw, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Rows) == 0 {
		t.Errorf("ledger has %d rows, err %v", len(doc.Rows), err)
	}
}

// TestClassifyIDExhaustion pins the one failure class that has no sentinel
// error and is recognised by its message: fat-tree(8) has 4096 flow IDs, so
// 1024 channels of 2 m-flows fit and every further dial must be classified
// as flow-ID exhaustion, not as "other".
func TestClassifyIDExhaustion(t *testing.T) {
	dials, err := dialSchedule(1, 8, 1100, 60000)
	if err != nil {
		t.Fatal(err)
	}
	r := newIterResult()
	if err := iterDial(&inputs{dials: dials, arity: 8, hold: time.Second}, nil, r); err != nil {
		t.Fatal(err)
	}
	if ok, ex := r.counts["mic.dials_ok"], r.counts[failIDExhausted]; ok != 1024 || ex != 76 {
		t.Errorf("ok %v, id_exhausted %v; want 1024 and 76 (other: %v)", ok, ex, r.otherFails)
	}
}
