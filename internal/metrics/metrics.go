// Package metrics provides the measurement plumbing for experiments:
// scalar sample summaries, throughput/latency recorders, virtual-CPU cost
// accounting (the substitute for the paper's physical CPU-usage probes), and
// fixed-width table rendering for harness output.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample accumulates float64 observations.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or NaN when empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Max returns the largest observation, or NaN when empty.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0..100) by nearest-rank on a
// sorted copy, or NaN when empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), s.xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// CPUAccount tallies virtual CPU time charged by simulated components,
// bucketed by category (e.g. "crypto", "stack", "relay", "switch"). It is
// the substitute for the paper's CPU-usage measurements in Fig 9(c): every
// operation in the simulator charges a calibrated cost here.
type CPUAccount struct {
	byCategory map[string]*CPUMeter
}

// CPUMeter is one category of a CPUAccount, resolved once so that a
// per-packet path charges it without hashing the category name.
type CPUMeter struct {
	total   time.Duration
	charged bool // a category exists once charged, even with zero
}

// NewCPUAccount returns an empty account.
func NewCPUAccount() *CPUAccount {
	return &CPUAccount{byCategory: make(map[string]*CPUMeter)}
}

// Meter returns the meter of a category. Resolving a meter does not make
// the category exist: it appears in Categories with its first charge.
func (a *CPUAccount) Meter(category string) *CPUMeter {
	m := a.byCategory[category]
	if m == nil {
		m = &CPUMeter{}
		a.byCategory[category] = m
	}
	return m
}

// Charge adds d of virtual CPU time to the meter's category.
func (m *CPUMeter) Charge(d time.Duration) {
	if d < 0 {
		panic("metrics: negative CPU charge")
	}
	m.total += d
	m.charged = true
}

// Charge adds d of virtual CPU time to the category.
func (a *CPUAccount) Charge(category string, d time.Duration) {
	a.Meter(category).Charge(d)
}

// Total returns the sum across categories.
func (a *CPUAccount) Total() time.Duration {
	var t time.Duration
	for _, m := range a.byCategory {
		t += m.total
	}
	return t
}

// Category returns the time charged to one category.
func (a *CPUAccount) Category(c string) time.Duration {
	if m := a.byCategory[c]; m != nil {
		return m.total
	}
	return 0
}

// Categories returns the names of the categories charged so far, in
// sorted order.
func (a *CPUAccount) Categories() []string {
	out := make([]string, 0, len(a.byCategory))
	// lint:ignore detrange keys are collected then sorted immediately below
	for c, m := range a.byCategory {
		if m.charged {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// Counters is an ordered set of named integer counters: the export surface
// for component liveness/health telemetry (controller heartbeats, takeovers,
// reconciliation results). Names render in first-Add order, so a component
// that always sets its counters in one fixed order produces byte-stable
// report output.
type Counters struct {
	names  []string
	values map[string]uint64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{values: make(map[string]uint64)}
}

// Set overwrites name's value, creating it on first use.
func (c *Counters) Set(name string, v uint64) {
	if _, ok := c.values[name]; !ok {
		c.names = append(c.names, name)
	}
	c.values[name] = v
}

// Get returns name's value (zero when absent).
func (c *Counters) Get(name string) uint64 {
	return c.values[name]
}

// String renders one "name=value" pair per line in first-Add order.
func (c *Counters) String() string {
	var b strings.Builder
	for _, n := range c.names {
		fmt.Fprintf(&b, "%s=%d\n", n, c.values[n])
	}
	return b.String()
}

// Table renders aligned fixed-width text tables for harness output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Header returns the column headers.
func (t *Table) Header() []string { return t.header }

// Rows returns the formatted cell values, one slice per row.
func (t *Table) Rows() [][]string { return t.rows }

// CSV renders the table as comma-separated values with a header row.
// Cells containing commas or quotes are quoted per RFC 4180.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.header)
	for _, r := range t.rows {
		writeCSVRow(&b, r)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
