package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mic/internal/ctrlplane"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/onion"
	"mic/internal/transport"
)

// EXPERIMENTS' "Calibration constants" table names, in each row, the Go
// constants behind its values:
//
//	| Link rate / delay / queue | `netsim.DefaultLinkBandwidthBps` / ... | 1 Gb/s / 5 µs / 100 pkts | ... |
//
// The names and the values are lists joined by " / ", one value per name,
// each a number and a unit.

// calibration is every constant the table must state, by the name a row
// gives it, in the unit units scales a value to: durations in nanoseconds,
// rates in bits per second, queues in packets.
var calibration = map[string]float64{
	"netsim.DefaultLinkBandwidthBps": netsim.DefaultLinkBandwidthBps,
	"netsim.DefaultQueueCapPackets":  netsim.DefaultQueueCapPackets,
	"netsim.LinkDelay":               float64(netsim.LinkDelay),
	"netsim.SwitchLatency":           float64(netsim.SwitchLatency),
	"netsim.HostLatency":             float64(netsim.HostLatency),
	"netsim.CostSwitchPacket":        float64(netsim.CostSwitchPacket),
	"netsim.CostSwitchCacheHit":      float64(netsim.CostSwitchCacheHit),
	"netsim.CostSwitchAction":        float64(netsim.CostSwitchAction),
	"netsim.CostHostPacket":          float64(netsim.CostHostPacket),

	"ctrlplane.Latency":    float64(ctrlplane.Latency),
	"ctrlplane.AckTimeout": float64(ctrlplane.AckTimeout),
	"ctrlplane.MaxBackoff": float64(ctrlplane.MaxBackoff),

	"mic.RequestCryptoCost": float64(mic.RequestCryptoCost),
	"mic.PlanSearchCost":    float64(mic.PlanSearchCost),
	"mic.PlanCacheHitCost":  float64(mic.PlanCacheHitCost),

	"transport.SSLHandshakeClientCost": float64(transport.SSLHandshakeClientCost),
	"transport.SSLHandshakeServerCost": float64(transport.SSLHandshakeServerCost),
	"transport.SSLPerByteCost":         float64(transport.SSLPerByteCost),
	"transport.SSLPerRecordCost":       float64(transport.SSLPerRecordCost),

	"onion.HandshakeCost":  float64(onion.HandshakeCost),
	"onion.RelayCellCost":  float64(onion.RelayCellCost),
	"onion.ClientCellCost": float64(onion.ClientCellCost),
	"onion.RelayHopDelay":  float64(onion.RelayHopDelay),
}

var units = map[string]float64{"ns": 1, "µs": 1e3, "ms": 1e6, "s": 1e9, "Gb/s": 1e9, "pkts": 1}

var goName = regexp.MustCompile("^`([a-z]+\\.[A-Za-z]+)`$")

// TestCalibrationTableMatchesConstants fails naming the row whose value
// differs from the constant it names, a row naming no calibration constant,
// and a constant no row names.
func TestCalibrationTableMatchesConstants(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, experiments))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "## Calibration constants") {
			start = i + 1
		}
	}
	if start < 0 {
		t.Fatalf("%s has no \"Calibration constants\" section", experiments)
	}
	for start < len(lines) && !strings.HasPrefix(lines[start], "|") {
		start++
	}
	if start+1 >= len(lines) {
		t.Fatalf("%s: no calibration table", experiments)
	}
	if h := cells(lines[start]); len(h) < 3 || h[1] != "Go name" || h[2] != "Value" {
		t.Fatalf("%s:%d: calibration table header %q, want Constant | Go name | Value | ...", experiments, start+1, h)
	}
	named := map[string]bool{}
	for i := start + 2; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
		row := cells(lines[i])
		fail := func(format string, args ...any) {
			t.Errorf("%s:%d: row %q: %s", experiments, i+1, row[0], fmt.Sprintf(format, args...))
		}
		if len(row) < 3 {
			fail("has %d cells", len(row))
			continue
		}
		names, values := strings.Split(row[1], " / "), strings.Split(row[2], " / ")
		if len(names) != len(values) {
			fail("names %d constants for %d values", len(names), len(values))
			continue
		}
		for j, cell := range names {
			m := goName.FindStringSubmatch(cell)
			if m == nil {
				fail("%q is not a `pkg.Name`", cell)
				continue
			}
			want, ok := calibration[m[1]]
			if !ok {
				fail("names %s, which is not a calibration constant", m[1])
				continue
			}
			named[m[1]] = true
			got, unit, err := quantity(values[j])
			if err != nil {
				fail("%s: %v", m[1], err)
				continue
			}
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				fail("%s reads %s, the code holds %v %s", m[1], values[j], want/units[unit], unit)
			}
		}
	}
	var unnamed []string
	for name := range calibration {
		if !named[name] {
			unnamed = append(unnamed, name)
		}
	}
	slices.Sort(unnamed)
	for _, name := range unnamed {
		t.Errorf("%s: no calibration row names %s", experiments, name)
	}
}

// quantity parses "<number> <unit>" and scales it by the unit.
func quantity(s string) (float64, string, error) {
	num, unit, ok := strings.Cut(strings.TrimSpace(s), " ")
	scale, known := units[unit]
	if !ok || !known {
		return 0, "", fmt.Errorf("value %q is not a number and a unit", s)
	}
	v, err := strconv.ParseFloat(num, 64)
	return v * scale, unit, err
}
